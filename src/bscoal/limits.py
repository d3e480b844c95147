"""Marginals and samplers of the two scaling-limit processes.

The limit of the scaled block counting process has Mittag-Leffler
marginals with parameter alpha = exp(-t); the limit of the scaled fixation
line has one-sided alpha-stable marginals with Laplace transform
exp(-lambda^alpha).  A Mittag-Leffler variable is the (-alpha)-power of
a stable one, and one kernel of Kanter's rejection-free representation of
the stable law serves both laws twice: the samplers draw it in the log
domain, and the exact CDFs integrate over it.

Samplers accept ``size=None`` for a scalar draw or an integer for a
vectorized batch; the random stream is always an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import TimePoint, gumbel_cumulant

__all__ = [
    "LogProcess",
    "ml_moment",
    "sample_neveu",
    "sample_mittag_leffler",
    "mittag_leffler_cdf",
    "neveu_cdf",
    "neveu_laplace_fd",
    "log_cumulant",
    "siegmund_duality_gap",
    "check_pow_inequality",
]


def ml_moment(tp: TimePoint, m: float) -> float:
    """Moment of order m >= 0 of the Mittag-Leffler marginal at time t.

    Gamma(1 + m) / Gamma(1 + m alpha); finite for every m >= 0.
    """
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return math.exp(math.lgamma(1.0 + m) - math.lgamma(1.0 + m * tp.alpha))


def _kanter_kernel(a: float, u):
    # k(u) = (1-a) log A(u) for Kanter's A(u) = sin(a pi u)^(a/(1-a)) sin((1-a) pi u) / sin(pi u)^(1/(1-a)),
    # increasing from a log a + (1-a) log(1-a) at u = 0 to +inf at u = 1.  For U uniform on (0, 1)
    # and E standard exponential, exp((1-a) log E - k(U)) is Mittag-Leffler.
    return (
        a * np.log(np.sin(a * np.pi * u))
        + (1.0 - a) * np.log(np.sin((1.0 - a) * np.pi * u))
        - np.log(np.sin(np.pi * u))
    )


def _log_mittag_leffler(a: float, rng: np.random.Generator, size):
    u = 1.0 - rng.random(size)  # in (0, 1]
    return (1.0 - a) * np.log(rng.exponential(size=size)) - _kanter_kernel(a, u)


def sample_neveu(tp: TimePoint, rng: np.random.Generator, size=None):
    """Draws of the one-sided stable marginal with Laplace transform exp(-lam^alpha).

    alpha = 1 is the degenerate point mass at 1.  log Y = log X / -alpha for a
    Mittag-Leffler X grows like e^t, so from t of about 4 on a draw can leave
    the float64 range (0, inf); that raises ValueError.
    """
    if tp.alpha == 1.0:
        return 1.0 if size is None else np.ones(int(size))
    with np.errstate(over="ignore", under="ignore"):
        y = np.exp(_log_mittag_leffler(tp.alpha, rng, size) / -tp.alpha)
    if not (np.all(y > 0.0) and np.all(y < math.inf)):
        raise ValueError(f"a stable draw at t = {tp.t!r} leaves the float64 range (0, inf)")
    return y


def sample_mittag_leffler(tp: TimePoint, rng: np.random.Generator, size=None):
    """Draws with moments Gamma(1+m)/Gamma(1+m alpha): S^(-alpha) for stable S."""
    if tp.alpha == 1.0:
        return 1.0 if size is None else np.ones(int(size))
    return np.exp(_log_mittag_leffler(tp.alpha, rng, size))


# 10 Gauss-Legendre nodes on each of [0, 1/2], [1/2, 3/4], ..., [1 - 2^-40, 1]: the CDF
# integrands fall to 0 at a distance from u = 1 proportional to x.
_EDGES = np.append(1.0 - 0.5 ** np.arange(41.0), 1.0)
_HALF = np.diff(_EDGES)[:, None] / 2
_GL, _GW = np.polynomial.legendre.leggauss(10)
_NODES, _WEIGHTS = (_EDGES[:-1, None] + _HALF * (1.0 + _GL)).ravel(), (_HALF * _GW).ravel()


def _kanter_integral(tp: TimePoint, log_x: np.ndarray, g) -> np.ndarray:
    """int_0^1 g((x e^{k(u)})^(1/(1-alpha))) du on the graded rule, given log x."""
    k, p, flat = _kanter_kernel(tp.alpha, _NODES), 1.0 / (1.0 - tp.alpha), log_x.ravel()
    out = np.empty_like(flat)
    with np.errstate(over="ignore"):
        for s in range(0, flat.size, 128):  # 128 x 410 blocks stay in cache
            out[s : s + 128] = g(np.exp((flat[s : s + 128, None] + k) * p)) @ _WEIGHTS
    return out.reshape(log_x.shape)


def mittag_leffler_cdf(tp: TimePoint, x):
    """P(X <= x) = 1 - int_0^1 exp(-(x e^{k(u)})^(1/(1-alpha))) du, vectorized over x.

    Kanter's representation (Kanter 1975; Zolotarev 1986) on a fixed 410-node graded
    Gauss-Legendre rule.  Over the 0.1%-99.9% quantiles the absolute error against the
    alternating power series (150 digits) is at most 1.3e-13 for t >= 0.5 and 1.2e-15 for
    t >= 1.  As alpha -> 1 the integrand sharpens into a step: 1.2e-11 at t = 0.3, 6.4e-10
    at 0.2, 1.8e-7 at 0.1, 6e-6 at 0.05, about 2.6e-4 at t = 1e-2, 1e-3 and 1e-4.  t = 0 is
    the point mass at 1, and x <= 0 gives 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if tp.alpha == 1.0:
        return np.heaviside(x - 1.0, 1.0)
    with np.errstate(divide="ignore"):
        return _kanter_integral(tp, np.log(np.maximum(x, 0.0)), lambda v: -np.expm1(-v))


def neveu_cdf(tp: TimePoint, y):
    """P(Y <= y) = 1 - mittag_leffler_cdf(tp, y^(-alpha)), vectorized over y, with the same
    accuracy.  t = 0 is the point mass at 1, and y <= 0 gives 0."""
    y = np.asarray(y, dtype=np.float64)
    if tp.alpha == 1.0:
        return mittag_leffler_cdf(tp, y)
    with np.errstate(divide="ignore"):
        return _kanter_integral(tp, -tp.alpha * np.log(np.maximum(y, 0.0)), lambda v: np.exp(-v))


def neveu_laplace_fd(times: Sequence[float], lambdas: Sequence[float]) -> float:
    """Joint Laplace transform E exp(-sum_k lam_k Y_{t_k}) by backward recursion.

    Each step folds the last argument into the previous one through the
    conditional transform exponent alpha_k / alpha_{k-1}.
    """
    times = [float(t) for t in times]
    lams = [float(v) for v in lambdas]
    if len(times) != len(lams) or not times:
        raise ValueError("times and lambdas must be equal-length nonempty sequences")
    if any(l < 0 for l in lams):
        raise ValueError("lambdas must be nonnegative")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    alphas = [math.exp(-t) for t in times]
    while len(lams) > 1:
        lk = lams.pop()
        ak = alphas.pop()
        lams[-1] = lams[-1] + lk ** (ak / alphas[-1])
    return math.exp(-(lams[0] ** alphas[0]))


@dataclass(frozen=True)
class LogProcess:
    """Which logarithmic limit marginal a cumulant refers to."""

    which: str  # "mittag-leffler" or "neveu"
    t: float

    def __post_init__(self):
        if self.which not in ("mittag-leffler", "neveu"):
            raise ValueError(f"unknown log process {self.which!r}")
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")


def log_cumulant(spec: LogProcess, j: int) -> float:
    """j-th cumulant of log X_t (Mittag-Leffler) or log Y_t (stable limit).

    Both are scaled Gumbel cumulants: (e^{jt} - 1) kappa_j for the stable
    limit, (-1)^j (1 - e^{-jt}) kappa_j for the Mittag-Leffler one.
    """
    if j < 1:
        raise ValueError(f"cumulant order must be positive, got {j}")
    kg = gumbel_cumulant(j)
    if spec.which == "neveu":
        return (math.exp(j * spec.t) - 1.0) * kg
    return ((-1) ** j) * (1.0 - math.exp(-j * spec.t)) * kg


def siegmund_duality_gap(
    x: float, y: float, t: float, reps: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of P(X_t <= y | X_0 = x) - P(Y_t >= x | Y_0 = y).

    Uses the multiplicative semigroup forms x^{e^{-t}} X_t and y^{e^t} Y_t;
    the two probabilities are equal, so the estimate fluctuates around 0
    with standard error of order reps^{-1/2}.
    """
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    if x < 0 or y < 0 or t <= 0:
        raise ValueError("need x, y >= 0 and t > 0")
    tp = TimePoint.from_time(t)
    xs = sample_mittag_leffler(tp, rng, size=reps)
    p_x = float(np.mean(x ** tp.alpha * xs <= y))
    # Y_t = X'^(-1/alpha) for a second Mittag-Leffler X' (the draws of sample_neveu),
    # compared in the log domain: Y_t leaves the float64 range from t of about 4 on
    with np.errstate(divide="ignore", over="ignore"):
        log_ys = np.log(sample_mittag_leffler(tp, rng, size=reps)) / -tp.alpha
        p_y = float(np.mean(np.log(y) / tp.alpha + log_ys >= np.log(x)))
    return p_x - p_y


def check_pow_inequality(x: float, alpha: float) -> bool:
    """(1 - e^{-x})^alpha >= 1 - e^{-x^alpha} up to a 1e-12 equality margin."""
    if x < 0 or not (0.0 <= alpha <= 1.0):
        raise ValueError("need x >= 0 and alpha in [0, 1]")
    # expm1 keeps tiny x from rounding 1 - e^{-x} to zero; 0**0 == 1
    # covers the corner points.
    lhs = (-math.expm1(-x)) ** alpha
    rhs = -math.expm1(-(x**alpha))
    return lhs >= rhs - 1e-12
