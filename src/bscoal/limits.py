"""Marginals and samplers of the two scaling-limit processes.

The limit of the scaled block counting process has Mittag-Leffler
marginals with parameter alpha = exp(-t); the limit of the scaled fixation
line has one-sided alpha-stable marginals with Laplace transform
exp(-lambda^alpha).  A Mittag-Leffler variable is the (-alpha)-power of
a stable one, and one kernel of Kanter's rejection-free representation of
the stable law serves both laws twice: the samplers draw it in the log
domain, and the exact CDFs integrate over it.  With s1, s2, s3 the sines of
alpha pi u, (1 - alpha) pi u and pi u, the kernel is
k(u) = alpha log(s1/s3) + (1 - alpha) log(s2/s3), and a draw from a uniform
U and an exponential E is log X = (1 - alpha) log(E s3/s2) - alpha log(s1/s3):
two logs.  Each sine is 2 tau / (1 + tau^2) with tau the tangent of the half
angle, because numpy's float64 tan is vectorized and its sin is not (about 3
against 12-21 ns per element, numpy 2.4.6 on an x86-64 Xeon), so a draw costs
three tangents, two logs and one exp.  Seeded draws from this form differ
from those of the three-sine form in their last bits (Mittag-Leffler draws
by at most 4e-15 relative, stable ones by about that over alpha); they
follow the same law and repeat byte for byte.

Samplers accept ``size=None`` for a scalar draw (the first of a batch of
one) or an integer for a vectorized batch; the random stream is always an
explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from .analytics import NumericInstabilityError, TimePoint, gumbel_cumulant

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

    Gamma(1 + m) / Gamma(1 + m alpha); finite for every finite m >= 0.  Past
    the float range (m = inf, or m above about 170 at t = 1) it raises
    NumericInstabilityError.
    """
    if not m >= 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    try:
        value = math.exp(math.lgamma(1.0 + m) - math.lgamma(1.0 + m * tp.alpha))
    except OverflowError:
        value = math.inf
    if not value < math.inf:  # NaN at m = inf
        raise NumericInstabilityError(f"moment of order {m} at t = {tp.t!r} exceeds the float range")
    return value


def _sine(u, c: float, out, tmp):
    # sin(c pi u) for c pi u in [0, pi], into out, as 2 tau / (1 + tau^2) with
    # tau = tan(c pi u / 2) <= 1.6e16, so tau^2 cannot overflow; tmp is scratch
    np.tan(np.multiply(u, c * np.pi / 2, out=out), out=out)
    np.multiply(out, out, out=tmp)
    tmp += 1.0
    out *= 2.0
    out /= tmp
    return out


_BLOCK = 16384  # draws per block: the kernel's four scratch rows (512 KiB) stay in cache


def _kanter_kernel(a: float, u: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # (1-a) log e - k(u), with e = None read as e = 1 (-k(u), for the CDFs), where
    # k(u) = (1-a) log A(u) for Kanter's
    # A(u) = sin(a pi u)^(a/(1-a)) sin((1-a) pi u) / sin(pi u)^(1/(1-a)) increases from
    # a log a + (1-a) log(1-a) at u = 0 to +inf at u = 1.  With s1, s2, s3 the three sines it
    # is (1-a) log(e s3/s2) - a log(s1/s3): for U uniform on (0, 1] and E standard exponential,
    # log X for a Mittag-Leffler X.  u and e are only read; the CDFs pass the read-only _NODES.
    # Where a is subnormal, s1 can underflow to 0; clamped to the least subnormal 5e-324, a log
    # of it is about -745 a, which tends to 0 with a as a log(a pi u) does, instead of a (-inf).
    # s1/s3 >= s1 stays finite, as s3 <= 1.
    out = np.empty_like(u)
    scratch = np.empty((4, min(_BLOCK, u.size)))
    for i in range(0, u.size, _BLOCK):
        v, o = u[i : i + _BLOCK], out[i : i + _BLOCK]
        s1, s2, s3, tmp = scratch[:, : v.size]
        _sine(v, 1.0, s3, tmp)
        np.maximum(_sine(v, a, s1, tmp), 5e-324, out=s1)
        np.multiply(np.log(np.divide(s1, s3, out=s1), out=s1), a, out=o)
        np.divide(s3, _sine(v, 1.0 - a, s2, tmp), out=s3)
        if e is not None:
            s3 *= e[i : i + _BLOCK]
        np.log(s3, out=s3)
        s3 *= 1.0 - a
        np.subtract(s3, o, out=o)
    return out


def _log_mittag_leffler(a: float, rng: np.random.Generator, size) -> np.ndarray:
    """log X for Mittag-Leffler X, an array of the given size (1 for None) drawn as
    rng.random then rng.exponential of that size; zeros without a draw at a = 1."""
    n = 1 if size is None else size
    if a == 1.0:
        return np.zeros(n)
    u = rng.random(n)
    np.subtract(1.0, u, out=u)  # U in (0, 1]
    return _kanter_kernel(a, u, rng.exponential(size=n))


def sample_neveu(tp: TimePoint, rng: np.random.Generator, size=None):
    """Draws of the one-sided stable marginal with Laplace transform exp(-lam^alpha).

    alpha = 1 is the degenerate point mass at 1.  log Y = log X / -alpha for a
    Mittag-Leffler X grows like e^t, so from t of about 4 on a draw can leave
    the float64 range (0, inf); that raises ValueError.
    """
    y = _log_mittag_leffler(tp.alpha, rng, size)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(np.divide(y, -tp.alpha, out=y), out=y)
    if not (np.all(y > 0.0) and np.all(y < math.inf)):
        raise ValueError(f"a stable draw at t = {tp.t!r} leaves the float64 range (0, inf)")
    return y if size is not None else y[0]


def sample_mittag_leffler(tp: TimePoint, rng: np.random.Generator, size=None):
    """Draws with moments Gamma(1+m)/Gamma(1+m alpha): S^(-alpha) for stable S."""
    x = _log_mittag_leffler(tp.alpha, rng, size)
    np.exp(x, out=x)
    return x if size is not None else x[0]


# 10 Gauss-Legendre nodes on each of [0, 1/2], [1/2, 3/4], ..., [1 - 2^-40, 1]: the CDF
# integrands fall to 0 at a distance from u = 1 proportional to x.
_EDGES = np.append(1.0 - 0.5 ** np.arange(41.0), 1.0)
_HALF = np.diff(_EDGES)[:, None] / 2
# numpy.polynomial.legendre.leggauss(10), its 5 positive (node, weight) pairs; the
# rule is symmetric bit for bit, and test_graded_rule_is_numpys_leggauss_10 pins it
_GL10_POSITIVE = (
    (0.14887433898163122, 0.2955242247147528),
    (0.4333953941292472, 0.2692667193099965),
    (0.6794095682990244, 0.219086362515982),
    (0.8650633666889845, 0.1494513491505804),
    (0.9739065285171717, 0.06667134430868814),
)
_GL, _GW = np.array([(-x, w) for x, w in reversed(_GL10_POSITIVE)] + list(_GL10_POSITIVE)).T
_NODES, _WEIGHTS = (_EDGES[:-1, None] + _HALF * (1.0 + _GL)).ravel(), (_HALF * _GW).ravel()
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def _kanter_integral(tp: TimePoint, log_x: np.ndarray, g) -> np.ndarray:
    """int_0^1 g((x e^{k(u)})^(1/(1-alpha))) du on the graded rule, given log x."""
    neg_k, p, flat = _kanter_kernel(tp.alpha, _NODES), 1.0 / (1.0 - tp.alpha), log_x.ravel()
    out = np.empty_like(flat)
    with np.errstate(over="ignore"):
        for s in range(0, flat.size, 128):  # 128 x 410 blocks stay in cache
            out[s : s + 128] = g(np.exp((flat[s : s + 128, None] - neg_k) * p)) @ _WEIGHTS
    return out.reshape(log_x.shape)


def _cdf_on(x, cdf):
    """cdf over the float64 array of x: a float for scalar x, else an array of x's
    shape; ValueError if x holds a NaN."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("x must be a number, got x = nan")
    with np.errstate(divide="ignore"):
        out = cdf(x)
    return out if out.ndim else float(out)


def mittag_leffler_cdf(tp: TimePoint, x):
    """P(X <= x) = 1 - int_0^1 exp(-(x e^{k(u)})^(1/(1-alpha))) du, vectorized over x.

    Kanter's representation (Kanter 1975; Zolotarev 1986) on a fixed 410-node graded
    Gauss-Legendre rule.  Over the 0.1%-99.9% quantiles the absolute error against the
    alternating power series (150 digits) is at most 1.4e-13 for t >= 0.5 and 1.2e-15 for
    t >= 1.  As alpha -> 1 the integrand sharpens into a step: 1.2e-11 at t = 0.3, 6.1e-10
    at 0.2, 2.2e-7 at 0.1, 7.7e-6 at 0.05, at most 2.6e-4 at t = 1e-2, 1e-3 and 1e-4.  t = 0 is
    the point mass at 1, and x <= 0 gives 0.  A scalar x gives a float, an array x an
    array of its shape; a NaN raises ValueError.
    """
    if tp.alpha == 1.0:
        return _cdf_on(x, lambda v: np.heaviside(v - 1.0, 1.0))
    return _cdf_on(
        x, lambda v: _kanter_integral(tp, np.log(np.maximum(v, 0.0)), lambda w: -np.expm1(-w))
    )


def neveu_cdf(tp: TimePoint, y):
    """P(Y <= y) = 1 - mittag_leffler_cdf(tp, y^(-alpha)), vectorized over y, with the same
    accuracy and return types.  t = 0 is the point mass at 1, and y <= 0 gives 0."""
    if tp.alpha == 1.0:
        return mittag_leffler_cdf(tp, y)
    return _cdf_on(
        y, lambda v: _kanter_integral(tp, -tp.alpha * np.log(np.maximum(v, 0.0)), lambda w: np.exp(-w))
    )


def neveu_laplace_fd(times: Sequence[float], lambdas: Sequence[float]) -> float:
    """Joint Laplace transform E exp(-sum_k lam_k Y_{t_k}) by backward recursion.

    Each step folds the last argument into the previous one through the
    conditional transform exponent alpha_k / alpha_{k-1} = exp(t_{k-1} - t_k),
    formed from the time gap, so that no 0/0 arises where alpha_k underflows.
    """
    times = [float(t) for t in times]
    lams = [float(v) for v in lambdas]
    if len(times) != len(lams) or not times:
        raise ValueError("times and lambdas must be equal-length nonempty sequences")
    if not all(l >= 0 for l in lams):
        raise ValueError("lambdas must be nonnegative numbers")
    if not all(t2 > t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if not times[0] >= 0:
        raise ValueError("times must be nonnegative numbers")
    while len(lams) > 1:
        lk, tk = lams.pop(), times.pop()
        if lk:  # 0^e is 0, also where e underflows to 0
            lams[-1] += lk ** math.exp(times[-1] - tk)
    return math.exp(-(lams[0] ** math.exp(-times[0]))) if lams[0] else 1.0


class LogProcess(namedtuple("LogProcess", "which t")):
    """Which logarithmic limit marginal a cumulant refers to: ``which`` is
    "mittag-leffler" or "neveu", at time t."""

    __slots__ = ()

    def __new__(cls, which: str, t: float):
        if which not in ("mittag-leffler", "neveu"):
            raise ValueError(f"unknown log process {which!r}")
        if not t >= 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return super().__new__(cls, which, t)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


def log_cumulant(spec: LogProcess, j: int) -> float:
    """j-th cumulant of log X_t (Mittag-Leffler) or log Y_t (stable limit).

    Both are scaled Gumbel cumulants: (e^{jt} - 1) kappa_j for the stable
    limit, (-1)^j (1 - e^{-jt}) kappa_j for the Mittag-Leffler one.  A stable
    cumulant past the float range raises NumericInstabilityError.
    """
    if j < 1:
        raise ValueError(f"cumulant order must be positive, got {j}")
    kg = gumbel_cumulant(j)
    if spec.which == "mittag-leffler":
        return ((-1) ** j) * (1.0 - math.exp(-j * spec.t)) * kg
    try:
        value = (math.exp(j * spec.t) - 1.0) * kg
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericInstabilityError(f"log-cumulant {j} at t = {spec.t!r} exceeds the float range")
    return value


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
    if not (x >= 0 and y >= 0 and t > 0):
        raise ValueError("need x, y >= 0 and t > 0")
    tp = TimePoint.from_time(t)
    # Y_t = X'^(-1/alpha) for a second Mittag-Leffler X' (the draws of sample_neveu), so
    # y^(e^t) Y_t >= x reads log y - log X' >= alpha log x, compared so because
    # log Y_t = -log X' / alpha itself leaves the float range from t of about 709 on
    with np.errstate(divide="ignore"):
        log_x, log_y = np.log(x), np.log(y)
    p_x = float(np.mean(tp.alpha * log_x + _log_mittag_leffler(tp.alpha, rng, reps) <= log_y))
    p_y = float(np.mean(log_y - _log_mittag_leffler(tp.alpha, rng, reps) >= tp.alpha * log_x))
    return p_x - p_y


def check_pow_inequality(x: float, alpha: float) -> bool:
    """(1 - e^{-x})^alpha >= 1 - e^{-x^alpha} up to a 1e-12 equality margin."""
    if not (x >= 0 and 0.0 <= alpha <= 1.0):
        raise ValueError("need x >= 0 and alpha in [0, 1]")
    # expm1 keeps tiny x from rounding 1 - e^{-x} to zero; 0**0 == 1
    # covers the corner points.
    lhs = (-math.expm1(-x)) ** alpha
    rhs = -math.expm1(-(x**alpha))
    return lhs >= rhs - 1e-12
