"""Exact integer/rational combinatorics and elementary special functions.

Stirling numbers are kept as arbitrary-precision Python integers in lazily
grown triangular tables, so every identity built on top of them (spectral
decompositions, hitting probabilities, transition formulas) can be checked
in exact arithmetic.  Floating-point helpers (``signed_log_gamma``,
``general_binomial``) live here as well because the analytic layer needs
them next to the exact tables.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "DEFAULT_NMAX",
    "EULER_GAMMA",
    "ZETA",
    "stirling_first",
    "stirling_second",
    "general_binomial",
    "signed_log_gamma",
]

#: Largest row kept in the cached Stirling tables.
DEFAULT_NMAX = 256

#: Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.5772156649015329

#: Riemann zeta values zeta(2)..zeta(12), double precision.  A tiny table
#: beats a general zeta implementation for the cumulant formulas that need
#: them.
ZETA = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
    5: 1.0369277551433699,
    6: 1.0173430619844491,
    7: 1.0083492773819228,
    8: 1.0040773561979443,
    9: 1.0020083928260822,
    10: 1.0009945751278181,
    11: 1.0004941886041195,
    12: 1.0002460865533080,
}

_table_lock = threading.Lock()
# triangle[n][k] for 0 <= k <= n; row 0 is [1].
_first_rows: list[list[int]] = [[1]]
_second_rows: list[list[int]] = [[1]]


def _grow(rows: list[list[int]], n: int, weight) -> None:
    # T(m+1, k) = T(m, k-1) + weight(m, k) * T(m, k), with T(m, m+1) = 0.  Each
    # row is appended whole, so a row the table already holds is read without the lock.
    with _table_lock:
        while len(rows) <= n:
            m = len(rows) - 1
            prev = rows[m] + [0]
            rows.append([0] + [prev[k - 1] + weight(m, k) * prev[k] for k in range(1, m + 2)])


def _first_weight(m: int, k: int) -> int:
    return -m


def _second_weight(m: int, k: int) -> int:
    return k


def _check_range(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"Stirling indices must be nonnegative, got ({n}, {k})")
    if n > DEFAULT_NMAX:
        raise ValueError(f"Stirling index n={n} exceeds table bound DEFAULT_NMAX={DEFAULT_NMAX}")


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Zero when k > n or (k == 0 and n > 0).  Raises ValueError when n is
    negative or exceeds ``DEFAULT_NMAX``.
    """
    _check_range(n, k)
    if k > n:
        return 0
    if n >= len(_first_rows):
        _grow(_first_rows, n, _first_weight)
    return _first_rows[n][k]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (set partitions)."""
    _check_range(n, k)
    if k > n:
        return 0
    if n >= len(_second_rows):
        _grow(_second_rows, n, _second_weight)
    return _second_rows[n][k]


def _stirling_rows(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Both tables grown to row n, after one bound check: (s, S) with s[m][k] = s(m, k).

    Row m holds k = 0..m only; the lists are the cache itself, so callers
    read them and never write.
    """
    _check_range(n, 0)
    if n >= len(_first_rows):
        _grow(_first_rows, n, _first_weight)
    if n >= len(_second_rows):
        _grow(_second_rows, n, _second_weight)
    return _first_rows, _second_rows


def signed_log_gamma(x: float) -> tuple[int, float]:
    """(sign, log|Gamma(x)|) for any real x that is not a pole.

    At nonpositive integers returns (0, inf), encoding 1/Gamma = 0.
    """
    if x > 0:
        return 1, math.lgamma(x)
    if x == math.floor(x):
        return 0, math.inf
    # Gamma alternates sign on the intervals (-m-1, -m).
    sign = 1 if math.floor(x) % 2 == 0 else -1
    return sign, math.lgamma(x)


# Below this cutoff the falling-factorial product is evaluated directly;
# above it we switch to log-gamma magnitudes to avoid overflow.
_PRODUCT_CUTOFF = 64

# The log-gamma route rounds log Gamma(z + 1) and log Gamma(z - j + 1) to
# about _ULP times their magnitudes before subtracting them; that error in
# the exponent is the value's relative error, and past this bound it raises.
_ULP = 2.0**-52
_LOG_GAMMA_ROUNDING = 1e-9


def general_binomial(z: float, j: int) -> float:
    """Generalized binomial coefficient z (z-1) ... (z-j+1) / j!.

    Defined for finite real z and integer j >= 0.  Small j uses the direct
    product (a factor over its index at a time where the product alone
    leaves the float range); large j goes through log-gamma with sign
    tracking.  A non-finite z, a value past the float range, or a log-gamma
    difference whose rounding (about 2^-52 (|log Gamma(z+1)| +
    |log Gamma(z-j+1)|)) passes 1e-9 relative, raises ValueError: the
    last from |z| of about 2e5 on at j = 65, and from j of about 4e5 on
    at z = 0.5, while (1e4, 100) answers to about 4e-11.
    """
    if j < 0:
        raise ValueError(f"lower index must be nonnegative, got {j}")
    if not math.isfinite(z):
        raise ValueError(f"general_binomial needs a finite z, got z={z}")
    if j == 0:
        return 1.0
    if z == math.floor(z) and 0 <= z < j:
        return 0.0
    if j <= _PRODUCT_CUTOFF:
        num = 1.0
        for m in range(j):
            num *= z - m
        if not math.isinf(num):
            return num / math.factorial(j)
        value = math.prod((z - m) / (m + 1) for m in range(j))
    else:
        # prod_{m<j} (z - m) = Gamma(z + 1) / Gamma(z - j + 1)
        try:
            s_num, l_num = signed_log_gamma(z + 1.0)
            s_den, l_den = signed_log_gamma(z - j + 1.0)
            if s_num == 0:
                # z is a negative integer, a pole of Gamma(z + 1); by upper
                # negation the product is (-1)^j Gamma(j - z) / Gamma(-z)
                s_num, l_num, s_den, l_den = (-1) ** j, math.lgamma(j - z), 1, math.lgamma(-z)
            elif s_den == 0:
                return 0.0
            if _ULP * (abs(l_num) + abs(l_den)) > _LOG_GAMMA_ROUNDING:
                raise ValueError(
                    f"general_binomial at z={z}, j={j}: log-gamma difference loses its digits"
                )
            value = s_num * s_den * math.exp(l_num - l_den - math.lgamma(j + 1.0))
        except OverflowError:
            value = math.inf
    if math.isinf(value):
        raise ValueError(f"general_binomial at z={z}, j={j} exceeds the float range")
    return value
