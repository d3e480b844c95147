"""Transition probabilities, hitting probabilities, absorption times.

Everything here is a deterministic function of the inputs.  Quantities with
an exact rational representation (hitting probabilities through the
convolution and Stirling routes) are returned as ``Fraction``; the rest are
double precision floats evaluated through log-gamma.  The exact kernels
(the renewal moment recurrence, the Stirling hitting sums and the Stirling
transition sum) accumulate plain integers over one known denominator and
divide once at the end: the recurrence keeps each hitting mass as the
``Fraction`` it yields, and a float result is the correctly rounded value
of the exact rational.

Conventions: states are 1-based positive integers; ``alpha`` always means
``exp(-t)`` for the time point under consideration.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import threading
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .combinatorics import (
    DEFAULT_NMAX,
    EULER_GAMMA,
    ZETA,
    _stirling_rows,
    general_binomial,
    stirling_second,
)

__all__ = [
    "TimePoint",
    "HittingMethod",
    "NumericInstabilityError",
    "fixation_pgf",
    "fixation_transition",
    "fixation_marginal",
    "block_tail_via_duality",
    "hitting_probability",
    "hitting_gf_coefficients",
    "hitting_asymptotic",
    "absorption_cdf",
    "gumbel_limit_cdf",
    "gumbel_cumulant",
    "edgeworth_c",
    "edgeworth_cdf",
]


class NumericInstabilityError(ArithmeticError):
    """A result left its mathematically required range by more than tolerance."""


class TimePoint(namedtuple("TimePoint", "t alpha")):
    """Coalescent time t together with alpha = exp(-t), kept consistent."""

    __slots__ = ()

    def __new__(cls, t: float, alpha: float):
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        _check_alpha(alpha)
        if abs(alpha - math.exp(-t)) > 1e-12 * max(1.0, alpha):
            raise ValueError("alpha and t are inconsistent; use the constructors")
        return super().__new__(cls, t, alpha)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @classmethod
    def from_time(cls, t: float) -> "TimePoint":
        try:
            t = float(t)
        except OverflowError:
            raise ValueError(f"time t of {int(t).bit_length()} bits exceeds the float range") from None
        return cls(t=t, alpha=math.exp(-t))

    @classmethod
    def from_alpha(cls, alpha: float) -> "TimePoint":
        alpha = float(alpha)
        _check_alpha(alpha)  # before the log, which has no value at alpha <= 0
        return cls(t=-math.log(alpha), alpha=alpha)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


class HittingMethod(enum.Enum):
    CONVOLUTION = "convolution"
    STIRLING_DOUBLE = "stirling-double"
    STIRLING_SHIFT = "stirling-shift"
    INTEGRAL = "integral"


# ---------------------------------------------------------------------------
# fixation line marginals and transition probabilities
# ---------------------------------------------------------------------------

def fixation_pgf(i: int, tp: TimePoint, z: float) -> float:
    """E[z^{state at time t}] started from i: (1 - (1-z)^alpha)^i."""
    if i < 1:
        raise ValueError(f"initial state must be positive, got {i}")
    if not (-1.0 < z < 1.0):
        raise ValueError(f"pgf argument must satisfy |z| < 1, got {z}")
    try:
        return (1.0 - (1.0 - z) ** tp.alpha) ** i
    except OverflowError:
        raise ValueError(f"initial state i of {i.bit_length()} bits exceeds the float range") from None


def _stirling_pairs(i: int, j: int, route: str, top: str) -> list[int]:
    """S(k, i) s(j, k) for k = i..j.

    The transition and hitting probabilities of the fixation line are two
    weightings of one spectral sum, (-1)^(i+j) (i!/j!) sum_k S(k,i) s(j,k) w_k:
    w_k = alpha^k gives p_ij(t), and w_k = j/k the probability of hitting j.
    Past DEFAULT_NMAX it raises ValueError before reading a row, naming
    ``route`` and the state ``top`` = j.  Otherwise it reads the row s(j, .)
    and the column S(., i) from one ``_stirling_rows`` call.
    """
    if j > DEFAULT_NMAX:
        raise ValueError(
            f"{route} needs Stirling numbers up to {top} = {j}, "
            f"past the table bound DEFAULT_NMAX = {DEFAULT_NMAX}"
        )
    s, S = _stirling_rows(j)
    row = s[j]
    return [S[k][i] * row[k] for k in range(i, j + 1)]


def _transition_stirling(i: int, j: int, alpha: float) -> float:
    # the pair sum at w_k = alpha^k, exactly: with alpha = a / 2^e the sum
    # times 2^(e j) / a^i is the integer sum_k S(k,i) s(j,k) a^(k-i) 2^(e (j-k)),
    # built by Horner from k = j down, the powers of two as shifts.
    pairs = _stirling_pairs(i, j, f"stirling transition p({i},{j})", "j")
    a, b = alpha.as_integer_ratio()
    e = b.bit_length() - 1  # b = 2^e
    acc = 0
    shift = 0
    for pair in reversed(pairs):
        acc = acc * a + (pair << shift)
        shift += e
    if (i + j) % 2:
        acc = -acc
    # int / int is correctly rounded, as float(Fraction) is.
    return (factorial(i) * a**i * acc) / (factorial(j) << (e * j))


def fixation_transition(i: int, j: int, tp: TimePoint, formula: str = "stirling") -> float:
    """P(state j at time t | state i at time 0) for the fixation line.

    ``formula="stirling"`` evaluates the double Stirling sum exactly, in
    integers over the binary rational ``alpha`` (the float exp(-t)), and
    rounds once; it raises ValueError for j > DEFAULT_NMAX.  ``"binomial"``
    evaluates the alternating generalized-binomial sum in floats.
    """
    if i < 1 or j < 1:
        raise ValueError(f"states must be positive, got ({i}, {j})")
    if j < i:
        return 0.0  # the fixation line is nondecreasing
    if formula == "stirling":
        val = _transition_stirling(i, j, tp.alpha)
    elif formula == "binomial":
        try:
            terms = [
                ((-1) ** k) * math.comb(i, k) * general_binomial(tp.alpha * k, j)
                for k in range(1, i + 1)
            ]
        except OverflowError:
            raise NumericInstabilityError(f"p({i},{j}): C({i}, k) exceeds the float range") from None
        val = ((-1) ** j) * math.fsum(terms)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    if val < -1e-9 or val > 1.0 + 1e-9:
        raise NumericInstabilityError(
            f"transition probability p({i},{j}) = {val} outside [0, 1]"
        )
    return min(max(val, 0.0), 1.0)


def fixation_marginal(tp: TimePoint, j: int) -> float:
    """P(fixation line from state 1 sits at j at time t).

    Equals alpha Gamma(j - alpha) / (Gamma(1 - alpha) Gamma(j + 1)).
    """
    if j < 1:
        raise ValueError(f"state must be positive, got {j}")
    a = tp.alpha
    if a == 1.0:
        return 1.0 if j == 1 else 0.0
    try:
        return a * math.exp(math.lgamma(j - a) - math.lgamma(1.0 - a) - math.lgamma(j + 1.0))
    except OverflowError:
        raise ValueError(f"state j of {j.bit_length()} bits exceeds the float range") from None


def _signed_binomials(i: int):
    """(j, (-1)^(j-1) C(i, j)) for j = 1..i, as integers, by the product recurrence."""
    c = -1
    for j in range(1, i + 1):
        c = -c * (i - j + 1) // j
        yield j, c


# At most 128 rows, and a row holds at most 1029 pairs: C(1029, j) <= 1.43e308
# for every j, C(1030, 515) overflows, and past i = 1029 a row stops before
# j = i / 2.  The 128 longest rows (i = 902..1029) take 13.9 MB by tracemalloc,
# the sweep's seven i 10 KB.  lru_cache is thread-safe; typed, so that a float
# i raises TypeError whether or not the row of its integer is cached.
@functools.lru_cache(maxsize=128, typed=True)
def _signed_binomial_row(i: int) -> tuple[tuple[float, float], ...]:
    """(float(j), float((-1)^(j-1) C(i, j))) for j = 1.. up to i or the first coefficient past the float range.

    j * alpha converts an integer j to float anyway, so j is stored converted.
    """
    row = []
    for j, c in _signed_binomials(i):
        try:
            row.append((float(j), float(c)))
        except OverflowError:
            break
    return tuple(row)


def _block_tail(n: int, i: int, alpha: float) -> float:
    """P(block count from n is <= i) when exp(-t) = alpha.

    The survival sum sum_{j=1..i} (-1)^{j-1} C(i,j) Gamma(n - j a) /
    (Gamma(n) Gamma(1 - j a)); by duality also P(fixation line from i has
    reached n).  The signed binomials come from one cached float row per i;
    where C(i, j) leaves the float range, the row ends and the integers
    follow, so a term raises there unless it sits on a pole (alpha = 1
    makes every term one).
    """
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if i == n:
        return 1.0
    lgamma, exp, floor = math.lgamma, math.exp, math.floor
    try:
        fn = float(n)  # n - ja and lgamma(n) convert n the same way
        lg_n = lgamma(fn)
    except OverflowError:
        raise ValueError(f"block tail: n of {n.bit_length()} bits exceeds the float range") from None
    pairs = _signed_binomial_row(i)
    if len(pairs) < i:
        pairs = itertools.chain(pairs, itertools.islice(_signed_binomials(i), len(pairs), None))
    terms = []
    append = terms.append
    try:
        for j, c in pairs:
            ja = j * alpha
            x = 1.0 - ja
            if not x > 0.0:  # not x <= 0.0: a NaN x reaches floor, which raises
                # Gamma alternates sign on (-m-1, -m); 1/Gamma vanishes at its poles
                fl = floor(x)
                if x == fl:
                    continue
                if fl % 2:
                    c = -c
            # an integer c past the float range raises OverflowError here
            append(c * exp(lgamma(fn - ja) - lg_n - lgamma(x)))
    except OverflowError:
        raise NumericInstabilityError(f"block tail: C({i}, j) exceeds the float range") from None
    val = math.fsum(terms)
    if 0.0 <= val <= 1.0:
        return val
    if val < -1e-9 or val > 1.0 + 1e-9:
        raise NumericInstabilityError(f"block tail {val} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def block_tail_via_duality(n: int, i: int, tp: TimePoint) -> float:
    """P(block counting process from n is <= i at time t).

    By duality this equals the probability that the fixation line from i
    has reached n, i.e. the upper tail of its transition row.
    """
    return _block_tail(n, i, tp.alpha)


# ---------------------------------------------------------------------------
# hitting probabilities of the fixation line
# ---------------------------------------------------------------------------

class _RenewalMasses:
    """Probabilities f(d) that the jump chain increments ever sum to exactly d.

    f(0) = 1 and f(d) = sum_{m=1..d} f(d-m) / (m (m+1)), which is
    f(d) = (1/d!) int_0^1 P_d(x) dx with P_d(x) = x (x+1) ... (x+d-1), the
    integrand of the integral route.  The table grows by moments: with
    L = lcm(1..d+1), J_k(m) = L int_0^1 x^m P_k(x) dx is an integer for
    m + k <= d, J_0(m) = L / (m+1),
    J_k(m) = J_{k-1}(m+1) + (k-1) J_{k-1}(m) (from P_k = P_{k-1} (x + k - 1)),
    and f(k) = J_k(0) / (k! L).  The table keeps each f(k) as a Fraction and
    the anti-diagonal F[k] = J_k(d - k).  One more entry is a running sum over
    F of small-integer multiples, F' = accumulate((k F[k] for k <= d),
    initial=L / (d+2)), whose last element is J_{d+1}(0).  When L grows (at
    prime powers) F takes the factor L' / L.  The masses and F grow under one
    lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._masses = [Fraction(1)]
        self._frontier = [1]
        self._lcm = 1

    def upto(self, d: int) -> list[Fraction]:
        """[f(0), ..., f(d)], one snapshot, for d <= _RENEWAL_MAX_D."""
        if d > _RENEWAL_MAX_D:
            raise ValueError(f"renewal route needs j - i <= {_RENEWAL_MAX_D}, got {d}")
        with self._lock:
            if len(self._masses) <= d:
                self._grow(d)
            return self._masses[: d + 1]

    def _grow(self, d: int) -> None:
        top = len(self._masses) - 1
        lcm = math.lcm(self._lcm, *range(top + 2, d + 2))
        scale = lcm // self._lcm  # F runs at the final L from the start
        frontier = [v * scale for v in self._frontier] if scale > 1 else self._frontier
        den = factorial(top) * lcm
        masses = []
        for k in range(top + 1, d + 1):
            frontier = list(itertools.accumulate(
                map(operator.mul, range(k), frontier), initial=lcm // (k + 1)
            ))
            den *= k
            masses.append(Fraction(frontier[k], den))
        self._masses += masses
        self._frontier, self._lcm = frontier, lcm


# The table costs O(d^2) products of ~d log2 d-bit integers by integers below
# d + 1, and one gcd per mass: from cold, d = 300 takes about 11 ms and
# d = 1000 about 0.3 s, on a 2-vCPU Xeon host with Python 3.11; larger gaps
# have the integral route.
_RENEWAL_MAX_D = 1000
_RENEWAL = _RenewalMasses()


# numpy.polynomial.legendre.leggauss(64), its 32 positive (node, weight) pairs
_GL64_POSITIVE = (
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
)


# numpy's 64-node rule mapped to [0, 1], as (x, w, lgamma(x)) by ascending x: the
# stored half negated, then as stored (numpy's rule is symmetric bit for bit), so
# the integral route needs no numpy; test_gauss_legendre_is_numpys_rule pins it.
_GAUSS_LEGENDRE = tuple(
    (0.5 * (x + 1.0), 0.5 * w, math.lgamma(0.5 * (x + 1.0)))
    for x, w in [(-x, w) for x, w in reversed(_GL64_POSITIVE)] + list(_GL64_POSITIVE)
)


def _hitting_integral(d: int) -> float:
    # (1/d!) int_0^1 Gamma(d + x) / Gamma(x) dx; the integrand extends
    # continuously to 0 at x = 0 since 1/Gamma(x) ~ x.
    lgamma, exp = math.lgamma, math.exp
    df = float(d)  # d + x converts d the same way
    lg_d1 = lgamma(df + 1.0)
    return math.fsum([w * exp(lgamma(df + x) - lg_x - lg_d1) for x, w, lg_x in _GAUSS_LEGENDRE])


def hitting_probability(i: int, j: int, method: HittingMethod = HittingMethod.CONVOLUTION):
    """Probability the fixation line started at i ever occupies state j.

    Depends on (i, j) only through j - i.  ``method`` is a HittingMethod or
    its value string.  The convolution and both Stirling methods return
    exact ``Fraction``s; the integral returns a float.  ``convolution``
    names the renewal route: its masses come from the moment recurrence of
    ``_RenewalMasses``, which gives the renewal convolution's values.  The
    convolution raises ValueError for j - i > 1000,
    stirling-double for j > DEFAULT_NMAX and stirling-shift for
    j - i + 1 > DEFAULT_NMAX; the integral has none.
    """
    method = HittingMethod(method)
    if i < 1 or j < 1:
        raise ValueError(f"states must be positive, got ({i}, {j})")
    if j < i:
        return 0.0 if method is HittingMethod.INTEGRAL else Fraction(0)
    d = j - i
    if method is HittingMethod.CONVOLUTION:
        return _RENEWAL.upto(d)[d]
    if method is HittingMethod.INTEGRAL:
        try:
            return _hitting_integral(d)
        except OverflowError:
            raise ValueError(
                f"integral route: j - i of {d.bit_length()} bits exceeds the float range"
            ) from None
    top = "j"
    if method is HittingMethod.STIRLING_SHIFT:
        i, j, top = 1, d + 1, "j - i + 1"  # the value depends on d only; every S(k, 1) is 1
    pairs = _stirling_pairs(i, j, f"{method.value} hitting route", top)
    # the pair sum at w_k = j/k: (-1)^(i+j) i!/(j-1)! sum_k S(k,i) s(j,k) / k,
    # over m = lcm(i..j)
    m = math.lcm(*range(i, j + 1))
    acc = sum(pair * (m // k) for k, pair in enumerate(pairs, i))
    sign = -1 if (i + j) % 2 else 1
    return Fraction(sign * factorial(i) * acc, factorial(j - 1) * m)


def hitting_gf_coefficients(i: int, J: int) -> list[float]:
    """Coefficients of z^{j-1}, j = i..J, of z^i / ((1-z)(-log(1-z))).

    Since 1 / (1 - sum_{m>=1} z^m / (m (m+1))) = z / ((1-z)(-log(1-z))),
    the coefficients are the renewal masses f(0), ..., f(J - i) of the
    convolution route (the moment recurrence), each correctly rounded to a
    float; ValueError for i < 1 and for J - i > 1000.
    """
    if i < 1 or J < 1:
        raise ValueError(f"states must be positive, got ({i}, {J})")
    if J < i:
        raise ValueError(f"need J >= i, got i={i}, J={J}")
    return [float(f) for f in _RENEWAL.upto(J - i)]


def hitting_asymptotic(j: int) -> float:
    """Two-term large-j expansion 1/log j - gamma/log^2 j."""
    if j <= 1:
        raise ValueError(f"asymptotic form needs j >= 2, got {j}")
    lj = math.log(j)
    return 1.0 / lj - EULER_GAMMA / (lj * lj)


# ---------------------------------------------------------------------------
# absorption times of the block counting process
# ---------------------------------------------------------------------------

def absorption_cdf(n: int, i: int, t: float) -> float:
    """P(block counting process from n reaches a state <= i by time t)."""
    if not t > 0:
        raise ValueError(f"time t must be positive, got t = {t}")
    try:
        alpha = math.exp(-t)
    except OverflowError:  # only converting an integer t to float can overflow here
        raise ValueError(f"time t of {int(t).bit_length()} bits exceeds the float range") from None
    return _block_tail(n, i, alpha)


def gumbel_limit_cdf(i: int, x: float) -> float:
    """CDF of the minimum of i independent standard Gumbel variables."""
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    fi = _float_count(i)
    if _gumbel_underflows(x):
        return 0.0
    F = math.exp(-math.exp(-x))
    return -math.expm1(_log_survival(fi, F))


def _log_survival(fi: float, F: float) -> float:
    """i log(1 - F), the log of (1 - F)^i; -inf at F = 1.

    log1p takes F itself, so where 1 - F rounds to 1 the value keeps -i F,
    and 1 - (1 - F)^i = -expm1 of it keeps its digits too.
    """
    return fi * math.log1p(-F) if F < 1.0 else -math.inf


def _float_count(i: int) -> float:
    """float(i); NumericInstabilityError past the float range."""
    try:
        return float(i)
    except OverflowError:
        raise NumericInstabilityError(f"i of {i.bit_length()} bits exceeds the float range") from None


# F = exp(-exp(-x)) is exactly 0.0 for x <= -7 (exp(-exp(7)) = exp(-1096.6)),
# and exp(-x) itself overflows below x = -709.8.  With y = exp(-x) >= e^7, each
# Edgeworth term c_k S(k,m) (i)_m F^m e^{-kx} / ln(n)^k, m >= 1, is below
# exp(m (log i - y) + k log y + 14) < exp(-280) for k <= 12 and i < 2^1024.
_GUMBEL_ZERO_X = -7.0


def _gumbel_underflows(x: float) -> bool:
    """Whether the Gumbel CDF exp(-exp(-x)) is 0.0; ValueError for NaN x and past the float range."""
    try:
        is_nan = math.isnan(x)
    except OverflowError:
        raise ValueError(f"x of {int(x).bit_length()} bits exceeds the float range") from None
    if is_nan:
        raise ValueError(f"x must be a number, got x = {x}")
    return x <= _GUMBEL_ZERO_X


# ---------------------------------------------------------------------------
# Edgeworth expansion of the centered absorption time
# ---------------------------------------------------------------------------

_EDGEWORTH_MAX_ORDER = 12


def gumbel_cumulant(j: int) -> float:
    """Cumulants of the standard Gumbel law: gamma, then (j-1)! zeta(j)."""
    if j < 1:
        raise ValueError(f"cumulant order must be positive, got {j}")
    if j == 1:
        return EULER_GAMMA
    if j > _EDGEWORTH_MAX_ORDER:
        raise ValueError(f"cumulant order {j} beyond tabulated zeta values")
    return factorial(j - 1) * ZETA[j]


# Taylor coefficients c_0..c_12 of 1/Gamma(1 - x), correctly rounded (mpmath at
# 50 digits).  The recursion over the Gumbel cumulants, n c_n = -(gamma c_(n-1)
# + sum_(k=2..n) zeta(k) c_(n-k)), cancels: in floats it loses 2e-12 relative at c_12.
_EDGEWORTH_C = (
    1.0,
    -0.5772156649015329,
    -0.6558780715202539,
    0.04200263503409524,
    0.16653861138229148,
    0.04219773455554433,
    -0.009621971527876973,
    -0.0072189432466631,
    -0.0011651675918590652,
    0.00021524167411495098,
    0.0001280502823881162,
    2.013485478078824e-05,
    -1.2504934821426706e-06,
)


@functools.cache  # only orders 0..12 return, so at most 13 entries
def edgeworth_c(K: int) -> tuple[float, ...]:
    """Taylor coefficients c_0..c_K of 1/Gamma(1 - x).

    1/Gamma(1 - x) = exp(-gamma x - sum_{k>=2} zeta(k) x^k / k), the Gumbel
    cumulant series; the values are stored correctly rounded.
    """
    if K < 0:
        raise ValueError(f"order must be nonnegative, got {K}")
    if K > _EDGEWORTH_MAX_ORDER:
        raise ValueError(f"order {K} exceeds supported maximum {_EDGEWORTH_MAX_ORDER}")
    return _EDGEWORTH_C[: K + 1]


# Rows k = 0..12 of the Stirling numbers of the second kind S(k, m), m = 0..k,
# read once here so that edgeworth_cdf calls no helper per term
_STIRLING2 = [tuple(stirling_second(k, m) for m in range(k + 1)) for k in range(_EDGEWORTH_MAX_ORDER + 1)]


def edgeworth_cdf(n: int, i: int, x: float, K: int) -> float:
    """Order-K expansion of P(absorption time from n, centered by log log n, <= x).

    The expansion is sum_{k<=K} c_k d_k(x) e^(-kx) / ln(n)^k with
    d_k = (e^x d/dx)^k (1 - (1-F)^i), F = exp(-e^-x) the Gumbel CDF.  Since
    e^x d/dx maps F to F, d_0 = 1 - (1-F)^i = -expm1(i log1p(-F)), as
    gumbel_limit_cdf evaluates it (so K = 0 is that function), and for k >= 1
    d_k = sum_{m=1..min(k,i)} (-1)^(m-1) S(k,m) (i)_m F^m (1-F)^(i-m):
    at most 12 terms, each at most S(k,m) m! whatever i is.

    Every (1-F)^(i-m) is exp(u_m), u_m = (i-m) log1p(-F), which takes F
    itself where 1 - F would round to 1.  Each term's rounding is bounded,
    in units of 2^-52 relative to the term, by 1 for its own operations,
    plus the rounding of F, 1 + e^-x, times the term's sensitivity to it,
    m + (i-m) F/(1-F), plus 3 |u_m| from log1p, the product, float(i) and
    i - m.  d_0 = -expm1(u_0) is bounded by d_0 for expm1 plus (1-F)^i
    times the error of u_0.  Where the bound summed over the terms exceeds
    1e-9 (near the bulk x = -log log i, at n = 100, from i of about 1.6e3
    on at K = 12, 3e8 at K = 6 and 8e185 at K = 2; never at K <= 1), or
    where i exceeds the float range, it raises NumericInstabilityError.

    A truncated expansion is no distribution function: its value can fall
    just outside [0, 1] (-7.4e-22 at n = 10, i = 1, x = -4.0, K = 2), and
    it is returned as it is, not clamped.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 so that log log n is meaningful, got {n}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    c = edgeworth_c(K)
    fi = _float_count(i)
    if _gumbel_underflows(x):
        return 0.0
    if x == math.inf:
        return 1.0  # d_0 = 1 and every k >= 1 term carries e^(-kx)
    y = math.exp(-x)
    F = math.exp(-y)
    M = min(K, i)
    g = [1.0]  # (i)_m F^m, a factor (i - m) F at a time so that no (i)_m overflows alone
    for m in range(M):
        g.append(g[-1] * ((fi - m) * F))
    L = _log_survival(1.0, F)  # log(1 - F)
    U = [(fi - m) * L if m < i else 0.0 for m in range(M + 1)]  # log (1 - F)^(i - m)
    P = [math.exp(u) for u in U]  # 0.0 at u = -inf
    r = y / math.log(n)
    Fq = F / (1.0 - F) if F < 1.0 else 0.0  # F = 1 leaves only m = i, where (i - m) Fq is 0
    parts = [-math.expm1(U[0])]  # d_0, as gumbel_limit_cdf
    bound = parts[0] + (P[0] * ((1.0 + y) * (fi * Fq) - 3.0 * U[0]) if P[0] else 0.0)
    for k in range(1, K + 1):
        ck = c[k] * r**k
        for m, s in enumerate(_STIRLING2[k][: i + 1]):
            # S(k, 0) = 0.  P[m] = 0 where (1-F)^(i-m) underflows or F rounds
            # to 1: a negligible term, whose g[m] may be inf.
            if not (s and P[m]):
                continue
            t = ck * s * g[m] * P[m]
            parts.append(t if m % 2 else -t)
            bound += abs(t) * (1.0 + (1.0 + y) * (m + (i - m) * Fq) - 3.0 * U[m])
    bound *= 2.0**-52
    if not bound <= 1e-9:
        raise NumericInstabilityError(
            f"Edgeworth terms at i={i}, x={x!r}: rounding bound {bound:.3g} exceeds 1e-9"
        )
    return math.fsum(parts)
