"""Exact-distribution Monte Carlo for the block counting process and fixation line.

Single trajectories are produced jump by jump (competing exponentials, no
time discretization).  Both chains are monotone, and Siegmund duality,
P(N_t <= i | N_0 = n) = P(L_t >= n | L_0 = i), turns block questions
into fixation-line ones.  The block absorption time from n to <= i is
the first passage of the fixation line from i to >= n, run jump by jump
across replicates.  The marginals at a fixed time t come from the
state-1 fixation law (the Sibuya law with alpha = e^-t).  The fixation
line from n is a sum of n such draws (branching): one multinomial per
replicate counts the draws equal to 1..32, and only the draws past 32
are inverted, from uniforms drawn after every replicate's counts.  The
block count from n is the number of such draws whose running sum first
reaches n, each inverted from one uniform.  Every sample has the exact
finite-n distribution.

Randomness contract: every function takes an explicit
``numpy.random.Generator``; replicate-indexed work uses PCG64 streams
derived deterministically from ``(seed, replicate_index)`` via
``replicate_rng``, so results are bitwise reproducible for a fixed seed
and independent across replicates.  A single trajectory draws its
holding times and jump uniforms in blocks of fixed size (64 exponentials,
then 64 uniforms), so a seed gives a fixed path stream, different from
that of one scalar draw of each per jump.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PathSample",
    "EstimateWithError",
    "replicate_rng",
    "simulate_block",
    "simulate_fixation",
    "estimate_hitting",
    "sample_block_marginal",
    "sample_absorption_times",
    "sample_fixation_marginal",
    "scaled_marginal_sample",
    "ks_distance",
]


class PathSample(namedtuple("PathSample", "process n jump_times states")):
    """One trajectory: states[k] holds on [jump_times[k-1], jump_times[k]).

    ``process`` is "block" or "fixation"; both arrays are numpy arrays.
    """

    __slots__ = ()

    def __new__(cls, process: str, n: int, jump_times: np.ndarray, states: np.ndarray):
        if len(states) != len(jump_times) + 1:
            raise ValueError("states must have one more entry than jump_times")
        return super().__new__(cls, process, n, jump_times, states)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class EstimateWithError(namedtuple("EstimateWithError", "value std_error reps")):
    """A Monte Carlo estimate with its standard error over ``reps`` replicates."""

    __slots__ = ()


#: Work budget of the samplers whose work grows with their inputs, in rounds:
#: jumps of one path, or steps of a loop vectorized across replicates.  Each
#: such sampler states its expected rounds and raises ValueError, naming them,
#: before it draws anything when they pass the budget.
WORK_BUDGET = 10**7


def _check_work(rounds: float, what: str) -> None:
    """ValueError naming ``what`` when ``rounds`` passes WORK_BUDGET."""
    if not rounds <= WORK_BUDGET:
        raise ValueError(
            f"{what} come to about {rounds:.3g}, past the work budget WORK_BUDGET = {WORK_BUDGET:.0e} rounds"
        )


def _climb_rounds(gap: int) -> float:
    """About gap / log gap: the jumps a fixation line, whose increments have
    P(X > k) = 1/(k+1), takes to climb gap states; inf past the float range."""
    try:
        return gap / math.log(max(gap, 3))
    except OverflowError:
        return math.inf


def replicate_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic per-replicate stream for (seed, replicate index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


# ---------------------------------------------------------------------------
# jump laws (exact inverse transforms)
# ---------------------------------------------------------------------------

def _block_step(i: int, v: float) -> int:
    """Jump size of the block counting process from state i, for a uniform v.

    P(d = m) = i / ((i-1) m (m+1)) for m <= i-2; the remaining mass
    1/(i-1)^2 sends the chain straight to the absorbing state (d = i-1).
    The cumulative distribution is i m / ((i-1)(m+1)), so the inverse
    transform has the closed form d = ceil(v (i-1) / (i - v (i-1))),
    clipped to 1..i-1.
    """
    x = v * (i - 1)
    return min(max(math.ceil(x / (i - x)), 1), i - 1)


def _fixation_increment(rng: np.random.Generator, size: int) -> np.ndarray:
    """size jumps of the fixation line: floor(1/U) has exactly the law
    P(m) = 1/(m (m+1))."""
    u = 1.0 - rng.random(size)  # in (0, 1]
    return np.floor(1.0 / u)


_PATH_BLOCK = 64  # draws per refill of a trajectory's randomness


def _path_draws(rng: np.random.Generator):
    """Endless (exponential, uniform) pairs for a trajectory, as Python floats:
    each refill draws _PATH_BLOCK standard exponentials, then _PATH_BLOCK
    uniforms."""
    while True:
        yield from zip(rng.standard_exponential(_PATH_BLOCK).tolist(), rng.random(_PATH_BLOCK).tolist())


# ---------------------------------------------------------------------------
# single trajectories
# ---------------------------------------------------------------------------

def simulate_block(n: int, horizon: float, rng: np.random.Generator) -> PathSample:
    """One block counting trajectory from n, run until absorption at 1 or
    until the next jump would land beyond the horizon (inf runs to absorption).

    Work: about n / log n jumps to absorption, and at most about
    (n - 1) horizon before the horizon, since the chain leaves state m at
    rate m - 1; past WORK_BUDGET the smaller raises ValueError.  n is at
    most 2^62."""
    if not 1 <= n <= 2**62:
        raise ValueError(f"initial state must be positive and at most 2^62, got {n}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if n > 1:  # from n = 1 the path has no jump
        _check_work(
            min(_climb_rounds(n), (n - 1) * horizon),
            f"simulate_block from n={n} to horizon {horizon}: the lesser of (n - 1) horizon and n / log n jumps",
        )
    times: list[float] = []
    states = [n]
    t = 0.0
    i = n
    draws = _path_draws(rng)
    while i > 1:
        e, u = next(draws)
        t += e / (i - 1)
        if t > horizon:
            break
        i -= _block_step(i, 1.0 - u)
        times.append(t)
        states.append(i)
    return PathSample("block", n, np.asarray(times), np.asarray(states, dtype=np.int64))


def simulate_fixation(n: int, state_cap: int, rng: np.random.Generator) -> PathSample:
    """One fixation-line trajectory from n, stopped after the first jump
    beyond ``state_cap``, which must be finite.

    Work: about (cap - n) / log(cap - n) jumps; past WORK_BUDGET it raises
    ValueError."""
    if n < 1:
        raise ValueError(f"initial state must be positive, got {n}")
    if not n < state_cap < math.inf:
        raise ValueError(f"state_cap must be finite and exceed the initial state, got {state_cap}")
    _check_work(
        _climb_rounds(state_cap - n),
        f"simulate_fixation from n={n} past {state_cap}: (cap - n) / log(cap - n) jumps",
    )
    times: list[float] = []
    states = [n]
    t = 0.0
    i = n
    draws = _path_draws(rng)
    while i <= state_cap:
        e, u = next(draws)
        t += e / i
        i += math.floor(1.0 / (1.0 - u))  # as _fixation_increment
        times.append(t)
        states.append(i)
    return PathSample("fixation", n, np.asarray(times), np.asarray(states, dtype=np.int64))


# ---------------------------------------------------------------------------
# batch estimators
# ---------------------------------------------------------------------------

def estimate_hitting(i: int, j: int, reps: int, rng: np.random.Generator) -> EstimateWithError:
    """Fraction of fixation-line jump chains from i that visit j before
    overshooting it.

    Work: about (j - i) / log(j - i) rounds, each one jump of every live
    chain; past WORK_BUDGET it raises ValueError."""
    if not (1 <= i <= j):
        raise ValueError(f"need 1 <= i <= j, got ({i}, {j})")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    _check_work(_climb_rounds(j - i), f"estimate_hitting from {i} to {j}: (j - i) / log(j - i) rounds")
    if i == j:
        return EstimateWithError(1.0, 0.0, reps)
    states = np.full(reps, i, dtype=np.int64)  # the chains still below j, in index order
    hits = 0
    while states.size:
        states += _fixation_increment(rng, states.size).astype(np.int64)
        hits += int(np.count_nonzero(states == j))
        states = states[states < j]
    p = hits / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return EstimateWithError(p, se, reps)


def sample_absorption_times(n: int, i: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the first time the block count from n drops to <= i.

    Both chains are monotone, so {tau <= t} = {N_t <= i}, and by Siegmund
    duality P(N_t <= i | N_0 = n) = P(L_t >= n | L_0 = i): tau has the law
    of the first time the fixation line from i reaches n or more.  That
    line runs jump by jump, vectorized across the live chains: each round
    draws one exponential per chain, divided by its state (the line leaves
    m at rate m), then one uniform for its increment, in index order.  A
    chain that reaches n writes its clock and leaves.  Domain:
    1 <= i <= n <= 2^62; i = n gives zeros.

    Work: the line's increments have P(X > k) = 1/(k+1), so a chain needs
    about (n - i) / log(n - i) rounds to reach n; past WORK_BUDGET (n of
    about 1.9e8 at i = 1) it raises ValueError.  n = 1e6, i = 1 with 200
    reps takes about 3 s on a 2-vCPU host.  A best-first search of the
    random recursive tree that builds the coalescent (Goldschmidt and
    Martin, EJP 10, 2005) would cost O(i log n) per draw instead.
    """
    if not 1 <= i <= n <= 2**62:
        raise ValueError(f"need 1 <= i <= n <= 2^62, got i={i}, n={n}")
    _check_work(
        _climb_rounds(n - i), f"sample_absorption_times from n={n} to i={i}: (n - i) / log(n - i) rounds"
    )
    out = np.zeros(reps)
    rows = np.arange(reps if i < n else 0)  # the live chains, in index order
    states = np.full(rows.size, i, dtype=np.int64)
    clocks = np.zeros(rows.size)
    while rows.size:
        clocks += rng.exponential(size=rows.size) / states
        states += _fixation_increment(rng, rows.size).astype(np.int64)  # < 2^62 + 2^53, no wrap
        done = states >= n
        out[rows[done]] = clocks[done]
        live = ~done
        rows, states, clocks = rows[live], states[live], clocks[live]
    return out


# -- the state-1 fixation marginal: the Sibuya law ---------------------------
#
# The fixation line from 1 at time t has pgf 1 - (1-z)^alpha, alpha = e^-t,
# which is the Sibuya law.  A 32-entry pmf covers the bulk.  Past it,
# Wendel's inequality puts Gamma(1-alpha) P(X > x) between
# (x+1-alpha)^-alpha and x^-alpha, so the smallest x with P(X > x) <= v is
# ceil(y) - 1 or ceil(y), y = (v Gamma(1-alpha))^(-1/alpha), and one
# log-survival evaluation picks between them (Hofert, CSDA 55, 2011).  A
# draw is exact up to about 1e10; past that float64 cannot always separate
# neighbouring survival values and it may be off by one (by a relative
# 4e-15 past 1e15).

# Stirling series: log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + phi(w),
# phi(w) = polyval(_STIRLING, w^-2) / w up to the w^-11 term
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_INT64_MAX = int(np.iinfo(np.int64).max)
_ROUND = 1 << 16  # array entries per round of a sampler: 512 KiB of int64 or float64


def _sibuya_pmf(alpha: float) -> np.ndarray:
    """P(X = 1), ..., P(X = 32) for X ~ Sibuya(alpha)."""
    j = np.arange(1.0, 32.0)  # P(X = j+1) / P(X = j) = (j - alpha) / (j + 1)
    return np.concatenate(([alpha], alpha * np.cumprod((j - alpha) / (j + 1.0))))


def _sibuya_tail(alpha: float, v: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Sibuya(alpha) draws past the table: for each survival level v in
    (0, P(X > 32)], the smallest x >= 33 with P(X > x) <= v, as int64.

    With a cap the draws are min(x, cap); without one a draw past 2^63 - 1
    raises OverflowError.
    """
    with np.errstate(divide="ignore", over="ignore"):  # y = inf once alpha underflows to 0
        z = np.ceil((v * math.gamma(1.0 - alpha)) ** np.divide(-1.0, alpha))
    if cap is not None:
        z = np.minimum(z, cap + 1.0)  # a quantile past cap + 1 is past cap
    elif not z.max() < 2.0**63:
        raise OverflowError(f"fixation draw past 2^63 - 1 at alpha = {alpha!r}")
    # log P(X >= z) = log Gamma(z - alpha) - log Gamma(z) - log Gamma(1 - alpha), by Stirling:
    # log_ge below plus phi(w) - phi(z), w = z - alpha
    w = z - alpha
    log_ge = (w - 0.5) * np.log1p(-alpha / z) - alpha * np.log(z) + alpha - math.lgamma(1.0 - alpha)
    log_v = np.log(v)
    # The series is added only where it can change the comparison with log v.
    # The rounded w has z - 1 <= w and z - w <= 2 alpha, and on w >= 1 the
    # series has |phi'(w)| <= 1/(12 w^2), so |phi(w) - phi(z)| <= 2 alpha /
    # (12 (z - 1)^2) for z >= 2.  Its float value is off by less than
    # 2^-48 / (z - 1), and the final rounding of log_ge by at most an ulp of
    # log v: farther from log v than the sum of the three (the first taken
    # 1.5 times), the sign is settled.  z < 2 happens only where rounding
    # puts v Gamma(1 - alpha) at 1 or above (alpha below about 1e-13): at
    # z = 1 the bound is inf, or NaN at alpha = 0, where w = z.
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 / (z - 1.0)
        bound = q * (0.25 * alpha)  # in place: a temporary costs about as much as the arithmetic
        bound += 2.0**-48
        bound *= q
        bound -= 2.0**-50 * log_v
    near = np.flatnonzero(np.abs(log_ge - log_v) <= bound)
    if near.size:
        wn, zn = w[near], z[near]
        log_ge[near] += np.polyval(_STIRLING, 1.0 / (wn * wn)) / wn - np.polyval(_STIRLING, 1.0 / (zn * zn)) / zn
    # v <= P(X > 32) places every draw past 32; rounding must not undo it
    x = np.maximum(z.astype(np.int64) - (log_ge <= log_v), 33)
    return x if cap is None else np.minimum(x, cap)


def _sibuya_above_one(cdf: np.ndarray, r: np.ndarray, cap: int) -> np.ndarray:
    """The Sibuya quantile given X >= 2 as a function of uniforms, capped at cap.

    cdf is the cumulative 32-entry table, so cdf[0] = alpha = P(X = 1).  Each r
    in [0, 1) maps to min(x, cap) for the smallest x >= 1 with P(X <= x) >=
    alpha + (1 - alpha) r, as int64: the draw is X given X >= 2 except at
    r = 0.  One binary search reads the table; past it ``_sibuya_tail`` inverts.
    """
    alpha = cdf[0]
    x = np.searchsorted(cdf, alpha + (1.0 - alpha) * r) + 1
    tail = np.flatnonzero(x == 33)
    if tail.size:
        # 1 - u without the rounding of u: 1 - r is exact on the 2^-53 grid of rng.random
        x[tail] = _sibuya_tail(alpha, (1.0 - alpha) * (1.0 - r[tail]), cap)
    return np.minimum(x, cap)


def sample_block_marginal(n: int, t: float, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the block count at time t, started from n (vectorized).

    By Siegmund duality P(N_t <= i | N_0 = n) = P(L_t >= n | L_0 = i), and the
    fixation line from i is a sum of i state-1 draws X_k, so N_t has the law
    of min{i : X_1 + ... + X_i >= n}.  Each X_k is 1 with probability
    alpha = e^-t, so the sum is walked one run of ones at a time: a geometric
    run length, then one draw of X given X >= 2, capped at n.  That is about
    (1 - e^-t) n^(e^-t) rounds per replicate; past WORK_BUDGET it raises
    ValueError.  Domain: 1 <= n <= 2^62 and t >= 0 (t = inf gives 1).
    Draws are exact for n up to about 1e10; past that one state-1 draw near
    n may be off by one.  At t <= 2^-54, where
    e^-t rounds to 1, the draw is n: the chain jumps by t with probability
    at most (n - 1) t.
    """
    if not 1 <= n <= 2**62 or not t >= 0:
        raise ValueError(f"need 1 <= n <= 2^62 and t >= 0, got n={n}, t={t}")
    alpha = math.exp(-t)
    if n == 1 or alpha == 1.0:
        return np.full(reps, n, dtype=np.int64)
    if alpha == 0.0:
        return np.ones(reps, dtype=np.int64)
    _check_work(
        (1.0 - alpha) * n**alpha, f"sample_block_marginal from n={n} at t={t!r}: (1 - e^-t) n^(e^-t) rounds"
    )
    cdf = np.cumsum(_sibuya_pmf(alpha))
    out = np.empty(reps, dtype=np.int64)
    rows = np.arange(reps)
    steps = np.zeros(reps, dtype=np.int64)  # draws so far
    need = np.full(reps, n, dtype=np.int64)  # n minus their sum
    while rows.size:
        # gap - 1 ones, then X >= 2: P(gap > k) = alpha^k = P(E / t >= k) for E
        # standard exponential; gaps past n end every walk alike
        gap = np.minimum(rng.standard_exponential(rows.size) / t, n).astype(np.int64) + 1
        inside = need < gap
        out[rows[inside]] = steps[inside] + need[inside]
        go = ~inside
        rows, steps, need = rows[go], steps[go] + gap[go], need[go] - gap[go] + 1
        need -= np.maximum(_sibuya_above_one(cdf, rng.random(rows.size), n), 2)
        cross = need <= 0
        out[rows[cross]] = steps[cross]
        rows, steps, need = rows[~cross], steps[~cross], need[~cross]
    return out


def sample_fixation_marginal(
    n: int, t: float, reps: int, rng: np.random.Generator, diagnostics: dict | None = None
) -> np.ndarray:
    """reps draws of the fixation line at time t, started from n.

    Uses the branching property: the marginal is the sum of n independent
    state-1 (Sibuya) draws.  One ``rng.multinomial(n, [p_1, ..., p_32,
    P(X > 32)])`` per replicate counts the draws equal to 1..32; only the
    draws past 32 are drawn one by one, each by inverting one uniform
    conditioned on X > 32 (a closed-form quantile bracket).  The stream is
    every replicate's multinomial in order, then the uniforms of the draws
    past 32 in replicate order, so the output does not depend on the size
    of the rounds it is drawn in.  A state-1 draw is exact up to about
    1e10; past that it may be off by one (by a relative 4e-15 past 1e15).
    On return, ``diagnostics["tail_draws"]`` holds the number of state-1
    draws past 32.  Domain: 1 <= n < 2^58 and 0 <= t < inf; at t = 0 the
    draw is n.  Raises OverflowError when a state-1 draw or a replicate's
    sum passes 2^63 - 1.
    """
    if not 1 <= n < 2**58 or not 0 <= t < math.inf:
        raise ValueError(f"need 1 <= n < 2^58 and 0 <= t < inf, got n={n}, t={t}")
    alpha = math.exp(-t)
    past = float(np.prod(1.0 - alpha / np.arange(1.0, 33.0)))  # P(X > 32) without cancellation
    pvals = np.append(_sibuya_pmf(alpha), past)
    out = np.empty(reps, dtype=np.int64)
    tails = np.empty(reps, dtype=np.int64)
    step = max(1, _ROUND // pvals.size)
    for start in range(0, reps, step):
        counts = rng.multinomial(n, pvals, size=min(step, reps - start))
        out[start : start + len(counts)] = counts[:, :32] @ np.arange(1, 33)  # <= 32 n, no wrap
        tails[start : start + len(counts)] = counts[:, 32]
    # the draws past 32, concatenated in replicate order, in rounds that may split a replicate
    rows = np.flatnonzero(tails)
    ends = np.cumsum(tails[rows])
    starts = ends - tails[rows]
    total = int(ends[-1]) if rows.size else 0
    for a in range(0, total, _ROUND):
        x = _sibuya_tail(alpha, past * (1.0 - rng.random(min(_ROUND, total - a))))
        i, j = np.searchsorted(ends, a, side="right"), np.searchsorted(starts, a + x.size)
        seg = np.maximum(starts[i:j] - a, 0)  # where the draws of rows[i:j] begin in x
        sums = np.add.reduceat(x, seg)
        # a segment of draws <= INT64_MAX // size cannot wrap; sum the others exactly
        edges = np.append(seg, x.size)
        big = np.flatnonzero(np.maximum.reduceat(x, seg) > _INT64_MAX // x.size)
        wraps = any(sum(map(int, x[edges[k] : edges[k + 1]])) > _INT64_MAX for k in big)
        if wraps or (sums > _INT64_MAX - out[rows[i:j]]).any():
            raise OverflowError(f"fixation marginal from n={n} past 2^63 - 1 at t={t!r}")
        out[rows[i:j]] += sums
    if diagnostics is not None:
        diagnostics["tail_draws"] = total
    return out


def scaled_marginal_sample(
    process: str,
    n: int,
    t: float,
    reps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """reps draws of the scaled marginal N_t/n^{e^{-t}} or L_t/n^{e^t}."""
    if process not in ("block", "fixation"):
        raise ValueError(f"unknown process {process!r}")
    if n < 2:
        raise ValueError(f"scaling needs n >= 2, got {n}")
    if process == "block":
        states = sample_block_marginal(n, t, reps, rng)
        return states / n ** math.exp(-t)
    states = sample_fixation_marginal(n, t, reps, rng)
    return states / n ** math.exp(t)


def ks_distance(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between the empirical CDF of samples and cdf, which must map
    an array to an array of the same shape: one call on the distinct sample values and
    their left neighbours."""
    v, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
    if v.size == 0:
        raise ValueError("samples must be nonempty")
    # The lower discrepancy needs left limits so that cdfs with atoms at
    # the sample points are compared correctly.
    points = np.concatenate((v, np.nextafter(v, -np.inf)))
    F = np.asarray(cdf(points), dtype=np.float64)
    if F.shape != points.shape:
        raise ValueError(f"cdf mapped shape {points.shape} to {F.shape}, not to the same shape")
    if np.isnan(F).any():
        raise ValueError("cdf returned NaN")
    c = np.cumsum(counts)
    return float(max((c / c[-1] - F[: v.size]).max(), (F[v.size :] - (c - counts) / c[-1]).max(), 0.0))
