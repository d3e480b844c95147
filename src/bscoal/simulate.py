"""Exact-distribution Monte Carlo for the block counting process and fixation line.

Single trajectories are produced jump by jump (competing exponentials, no
time discretization), and so are the block absorption times, vectorized
across replicates.  The marginals at a fixed time t come from one exact
inverse of the state-1 fixation law (the Sibuya law with alpha = e^-t):
the fixation line from n is a sum of n such draws (branching), and the
block count from n is the number of such draws whose running sum first
reaches n (Siegmund duality).  Every sample has the exact finite-n
distribution.

Randomness contract: every function takes an explicit
``numpy.random.Generator``; replicate-indexed work uses PCG64 streams
derived deterministically from ``(seed, replicate_index)`` via
``replicate_rng``, so results are bitwise reproducible for a fixed seed
and independent across replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PathSample:
    """One trajectory: states[k] holds on [jump_times[k-1], jump_times[k])."""

    process: str  # "block" or "fixation"
    n: int
    jump_times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.jump_times) + 1:
            raise ValueError("states must have one more entry than jump_times")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    reps: int


def replicate_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic per-replicate stream for (seed, replicate index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


# ---------------------------------------------------------------------------
# jump laws (exact inverse transforms)
# ---------------------------------------------------------------------------

def _block_decrement(i, v):
    """Jump size of the block counting process from state(s) i, for uniforms v.

    P(d = m) = i / ((i-1) m (m+1)) for m <= i-2; the remaining mass
    1/(i-1)^2 sends the chain straight to the absorbing state (d = i-1).
    The cumulative distribution is i m / ((i-1)(m+1)), so the inverse
    transform has the closed form d = ceil(v (i-1) / (i - v (i-1))).
    """
    x = v * (i - 1) / (i - v * (i - 1))
    d = np.ceil(x)
    return np.clip(d, 1, i - 1)


def _fixation_increment(rng: np.random.Generator, size=None):
    """Jump size of the fixation line: floor(1/U) has exactly the law
    P(m) = 1/(m (m+1))."""
    u = 1.0 - rng.random(size)  # in (0, 1]
    return np.floor(1.0 / u)


# ---------------------------------------------------------------------------
# single trajectories
# ---------------------------------------------------------------------------

def simulate_block(n: int, horizon: float, rng: np.random.Generator) -> PathSample:
    """One block counting trajectory from n, run until absorption at 1 or
    until the next jump would land beyond the horizon (inf runs to absorption)."""
    if n < 1:
        raise ValueError(f"initial state must be positive, got {n}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    times: list[float] = []
    states = [n]
    t = 0.0
    i = n
    while i > 1:
        t += rng.exponential() / (i - 1)
        if t > horizon:
            break
        d = int(_block_decrement(float(i), 1.0 - rng.random()))
        i -= d
        times.append(t)
        states.append(i)
    return PathSample("block", n, np.asarray(times), np.asarray(states, dtype=np.int64))


def simulate_fixation(n: int, state_cap: int, rng: np.random.Generator) -> PathSample:
    """One fixation-line trajectory from n, stopped after the first jump
    beyond ``state_cap``."""
    if n < 1:
        raise ValueError(f"initial state must be positive, got {n}")
    if not state_cap > n:
        raise ValueError(f"state_cap must exceed the initial state, got {state_cap}")
    times: list[float] = []
    states = [n]
    t = 0.0
    i = n
    while i <= state_cap:
        t += rng.exponential() / i
        i += int(_fixation_increment(rng))
        times.append(t)
        states.append(i)
    return PathSample("fixation", n, np.asarray(times), np.asarray(states, dtype=np.int64))


# ---------------------------------------------------------------------------
# batch estimators
# ---------------------------------------------------------------------------

def estimate_hitting(i: int, j: int, reps: int, rng: np.random.Generator) -> EstimateWithError:
    """Fraction of fixation-line jump chains from i that visit j before
    overshooting it."""
    if not (1 <= i <= j):
        raise ValueError(f"need 1 <= i <= j, got ({i}, {j})")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if i == j:
        return EstimateWithError(1.0, 0.0, reps)
    states = np.full(reps, i, dtype=np.int64)
    hit = np.zeros(reps, dtype=bool)
    while True:
        active = states < j
        if not active.any():
            break
        inc = _fixation_increment(rng, size=int(active.sum())).astype(np.int64)
        states[active] += inc
        hit |= states == j
    p = float(hit.mean())
    se = math.sqrt(p * (1.0 - p) / reps)
    return EstimateWithError(p, se, reps)


def sample_absorption_times(n: int, i: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the first time the block count from n drops to <= i.

    The chains run jump by jump, vectorized across replicates: each round
    draws one exponential holding time per chain still above i, then one
    uniform for its decrement, in index order.
    """
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    states = np.full(reps, n, dtype=np.int64)
    clocks = np.zeros(reps)
    active = np.flatnonzero(states > i)
    while active.size:
        s = states[active].astype(np.float64)
        clocks[active] += rng.exponential(size=active.size) / (s - 1.0)
        states[active] -= _block_decrement(s, 1.0 - rng.random(active.size)).astype(np.int64)
        active = active[states[active] > i]
    return clocks


# -- the state-1 fixation marginal: the Sibuya law ---------------------------
#
# The fixation line from 1 at time t has pgf 1 - (1-z)^alpha, alpha = e^-t,
# which is the Sibuya law, and one uniform u is inverted per draw.  A
# 32-entry cumulative table covers the bulk; a guide table of equal
# buckets of u starts each lookup a few entries below its answer (Chen &
# Asau 1974).  Past the table, Wendel's inequality puts Gamma(1-alpha)
# P(X > x) between (x+1-alpha)^-alpha and x^-alpha, so with v = 1 - u the
# quantile is ceil(y) - 1 or ceil(y), y = (v Gamma(1-alpha))^(-1/alpha),
# and one log-survival evaluation picks between them (Hofert, CSDA 55,
# 2011).  A draw is exact up to about 1e10; past that float64 cannot
# always separate neighbouring survival values and it may be off by one
# (by a relative 4e-15 past 1e15).

# Stirling series: log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + phi(w),
# phi(w) = polyval(_STIRLING, w^-2) / w up to the w^-11 term
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_INT64_MAX = int(np.iinfo(np.int64).max)
_GUIDE = 1024


def _sibuya_inverse(alpha: float, lo: float = 0.0):
    """The Sibuya(alpha) quantile as a function of uniforms, tables built once.

    quantile(r, cap=None, diag=None) maps each r in [0, 1) to the smallest
    x >= 1 with P(X <= x) >= lo + (1 - lo) r, as int64; lo = alpha = P(X = 1)
    draws X given X >= 2.  With a cap the draws are min(x, cap); without one
    a draw past 2^63 - 1 raises OverflowError.  ``diag["tail_draws"]``
    counts the draws past the table.
    """
    j = np.arange(1.0, 32.0)  # P(X = j+1) / P(X = j) = (j - alpha) / (j + 1)
    pmf = np.concatenate(([alpha], alpha * np.cumprod((j - alpha) / (j + 1.0))))
    cdf = np.append(np.cumsum(pmf), np.inf)  # the sentinel stops every walk at 32
    # equal buckets of u over [lo, 1], at least 1024 of them over the part past
    # P(X = 1) = alpha, where the table's entries lie, and at most 2^16
    buckets = _GUIDE
    while buckets < 1 << 16 and buckets * (1.0 - alpha) < _GUIDE * (1.0 - lo):
        buckets *= 2
    scale = buckets / (1.0 - lo)
    # guide[b] counts the entries in buckets below b; the bucket is nondecreasing
    # in u, so the answer for u in bucket b lies between guide[b] and guide[b + 1]
    edges = ((cdf[:32] - lo) * scale).astype(np.intp)
    guide = np.repeat(np.arange(33, dtype=np.int64), np.diff(edges, prepend=-1, append=buckets + 1))
    span = int(np.diff(guide).max())

    def quantile(r: np.ndarray, cap: int | None = None, diag: dict | None = None) -> np.ndarray:
        u = r if lo == 0.0 else lo + (1.0 - lo) * r
        out = guide[((u - lo) * scale).astype(np.intp)]
        for _ in range(span):
            out += cdf[out] < u
        tail = np.flatnonzero(out == 32)
        out += 1
        if diag is not None:
            diag["tail_draws"] = diag.get("tail_draws", 0) + tail.size
        if tail.size:
            # 1 - u without the rounding of u: 1 - r is exact on the 2^-53 grid of rng.random
            v = (1.0 - lo) * (1.0 - r[tail])
            with np.errstate(divide="ignore", over="ignore"):  # y = inf once alpha underflows to 0
                z = np.ceil((v * math.gamma(1.0 - alpha)) ** np.divide(-1.0, alpha))
            if cap is not None:
                z = np.minimum(z, cap + 1.0)  # a quantile past cap + 1 is past cap
            elif not z.max() < 2.0**63:
                raise OverflowError(f"fixation draw past 2^63 - 1 at alpha = {alpha!r}")
            # log P(X >= z) = log Gamma(z - alpha) - log Gamma(z) - log Gamma(1 - alpha), by Stirling
            w = z - alpha
            log_ge = (w - 0.5) * np.log1p(-alpha / z) - alpha * np.log(z) + alpha - math.lgamma(1.0 - alpha)
            log_ge += np.polyval(_STIRLING, 1.0 / (w * w)) / w - np.polyval(_STIRLING, 1.0 / (z * z)) / z
            # the table already placed these draws past 32; rounding must not undo it
            out[tail] = np.maximum(z.astype(np.int64) - (log_ge <= np.log(v)), 33)
        return out if cap is None else np.minimum(out, cap)

    return quantile


def sample_block_marginal(n: int, t: float, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the block count at time t, started from n (vectorized).

    By Siegmund duality P(N_t <= i | N_0 = n) = P(L_t >= n | L_0 = i), and the
    fixation line from i is a sum of i state-1 draws X_k, so N_t has the law
    of min{i : X_1 + ... + X_i >= n}.  Each X_k is 1 with probability
    alpha = e^-t, so the sum is walked one run of ones at a time: a geometric
    run length, then one draw of X given X >= 2, capped at n.  That is about
    (1 - e^-t) n^(e^-t) rounds per replicate.  Domain: 1 <= n <= 2^62 and
    t >= 0 (t = inf gives 1).  Draws are exact for n up to about 1e10; past
    that one state-1 draw near n may be off by one.  At t <= 2^-54, where
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
    above_one = _sibuya_inverse(alpha, lo=alpha)
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
        need -= np.maximum(above_one(rng.random(rows.size), cap=n), 2)
        cross = need <= 0
        out[rows[cross]] = steps[cross]
        rows, steps, need = rows[~cross], steps[~cross], need[~cross]
    return out


def sample_fixation_marginal(
    n: int, t: float, reps: int, rng: np.random.Generator, diagnostics: dict | None = None
) -> np.ndarray:
    """reps draws of the fixation line at time t, started from n.

    Uses the branching property: the marginal is the sum of n independent
    copies of the state-1 marginal, each drawn by inverting one uniform
    (a 32-entry table, then a closed-form quantile bracket).  A
    state-1 draw is exact up to about 1e10; past that it may be off by one
    (by a relative 4e-15 past 1e15).  ``diagnostics["tail_draws"]`` counts
    the state-1 draws past the table.  Raises OverflowError when a state-1
    draw or a replicate's sum passes 2^63 - 1.
    """
    if n < 1 or not 0 <= t < math.inf:
        raise ValueError(f"need n >= 1 and 0 <= t < inf, got n={n}, t={t}")
    diag = diagnostics if diagnostics is not None else {}
    quantile = _sibuya_inverse(math.exp(-t))
    out = np.empty(reps, dtype=np.int64)
    chunk = max(1, (1 << 16) // n)  # about 2^16 uniforms (512 KiB) per round stay in cache
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        rows = quantile(rng.random((stop - start) * n), diag=diag).reshape(stop - start, n)
        # a row of draws <= INT64_MAX // n cannot wrap; sum the others exactly
        big = rows[rows.max(axis=1) > _INT64_MAX // n]
        if any(sum(map(int, row)) > _INT64_MAX for row in big):
            raise OverflowError(f"fixation marginal from n={n} past 2^63 - 1 at t={t!r}")
        out[start:stop] = rows.sum(axis=1)
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
