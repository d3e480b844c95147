"""Exact-distribution Monte Carlo for the block counting process and fixation line.

Single trajectories are produced jump by jump (competing exponentials, no
time discretization).  Batch estimators are vectorized across replicates
with numpy but draw from the same exact jump laws, so every sample has the
exact finite-n distribution.  One vectorized block engine serves both block
estimators: the marginal at t stops each chain at the horizon t, the
absorption time to i stops it on reaching a state <= i.

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


def _block_chains(n: int, reps: int, rng: np.random.Generator, horizon: float, floor: int):
    """(states, clocks) of reps block counting chains from n, vectorized.

    A chain retires once its state is <= floor, or when its next jump
    would land after horizon; clocks holds the time of its last jump.
    Each round draws one exponential per active chain and one uniform per
    landing chain, in index order.
    """
    states = np.full(reps, n, dtype=np.int64)
    clocks = np.zeros(reps)
    active = np.flatnonzero(states > floor)
    while active.size:
        s = states[active].astype(np.float64)
        nt = clocks[active] + rng.exponential(size=active.size) / (s - 1.0)
        land = nt <= horizon
        active = active[land]
        clocks[active] = nt[land]
        d = _block_decrement(s[land], 1.0 - rng.random(active.size))
        states[active] -= d.astype(np.int64)
        active = active[states[active] > floor]
    return states, clocks


def sample_block_marginal(n: int, t: float, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the block count at time t, started from n (vectorized)."""
    if n < 1 or not t >= 0:
        raise ValueError(f"need n >= 1 and t >= 0, got n={n}, t={t}")
    return _block_chains(n, reps, rng, t, 1)[0]


def sample_absorption_times(n: int, i: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps draws of the first time the block count from n drops to <= i."""
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return _block_chains(n, reps, rng, math.inf, i)[1]


# -- fixation marginal at fixed t, via the branching property ---------------
#
# The fixation line from n at time t is the sum of n independent copies of
# the state-1 marginal X, whose pgf 1 - (1-z)^alpha (alpha = e^-t) is the
# Sibuya law, so the marginal is sampled by inverting one uniform u per
# copy.  A 32-entry cumulative table covers the bulk.  Past it, Wendel's
# inequality puts Gamma(1-alpha) P(X > x) between (x+1-alpha)^-alpha and
# x^-alpha, so with v = 1 - u the quantile is ceil(y) - 1 or ceil(y),
# y = (v Gamma(1-alpha))^(-1/alpha), and one log-survival evaluation picks
# between them (Hofert, CSDA 55, 2011).  This sidesteps the path-level cost
# of growing the chain to order n^{e^t}.  A draw is exact up to about 1e10;
# past that float64 cannot always separate neighbouring survival values and
# it may be off by one (by a relative 4e-15 past 1e15).  A draw or a sum of
# n draws past 2^63 - 1 raises OverflowError.

# Stirling series: log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + phi(w),
# phi(w) = polyval(_STIRLING, w^-2) / w up to the w^-11 term
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _sample_fixation_single(alpha: float, rng: np.random.Generator, size: int, diag: dict):
    """size state-1 draws: the smallest x >= 1 with P(X <= x) >= u per uniform u."""
    j = np.arange(1.0, 32.0)  # P(X = j+1) / P(X = j) = (j - alpha) / (j + 1)
    pmf = np.concatenate(([alpha], alpha * np.cumprod((j - alpha) / (j + 1.0))))
    u = rng.random(size)
    out = (np.searchsorted(np.cumsum(pmf), u, side="left") + 1).astype(np.int64)
    tail = np.flatnonzero(out > 32)
    diag["tail_draws"] = diag.get("tail_draws", 0) + tail.size
    if tail.size:
        v = 1.0 - u[tail]
        with np.errstate(divide="ignore", over="ignore"):  # y = inf once alpha underflows to 0
            z = np.ceil((v * math.gamma(1.0 - alpha)) ** np.divide(-1.0, alpha))
        if not z.max() < 2.0**63:
            raise OverflowError(f"fixation draw past 2^63 - 1 at alpha = {alpha!r}")
        # log P(X >= z) = log Gamma(z - alpha) - log Gamma(z) - log Gamma(1 - alpha), by Stirling
        w = z - alpha
        log_ge = (w - 0.5) * np.log1p(-alpha / z) - alpha * np.log(z) + alpha - math.lgamma(1.0 - alpha)
        log_ge += np.polyval(_STIRLING, 1.0 / (w * w)) / w - np.polyval(_STIRLING, 1.0 / (z * z)) / z
        # the table already placed these draws past 32; rounding must not undo it
        out[tail] = np.maximum(z.astype(np.int64) - (log_ge <= np.log(v)), 33)
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
    alpha = math.exp(-t)
    out = np.empty(reps, dtype=np.int64)
    chunk = max(1, (4 << 20) // max(n, 1))
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        rows = _sample_fixation_single(alpha, rng, (stop - start) * n, diag).reshape(stop - start, n)
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
