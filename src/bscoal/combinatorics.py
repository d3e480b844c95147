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
    "factorial",
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

factorial = math.factorial

_table_lock = threading.Lock()
# triangle[n][k] for 0 <= k <= n; row 0 is [1].
_first_rows: list[list[int]] = [[1]]
_second_rows: list[list[int]] = [[1]]


def _grow(rows: list[list[int]], n: int, weight) -> None:
    # T(m+1, k) = T(m, k-1) + weight(m, k) * T(m, k), with T(m, m+1) = 0
    while len(rows) <= n:
        m = len(rows) - 1
        prev = rows[m] + [0]
        rows.append([0] + [prev[k - 1] + weight(m, k) * prev[k] for k in range(1, m + 2)])


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
    with _table_lock:
        _grow(_first_rows, n, lambda m, k: -m)
        return _first_rows[n][k]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (set partitions)."""
    _check_range(n, k)
    if k > n:
        return 0
    with _table_lock:
        _grow(_second_rows, n, lambda m, k: k)
        return _second_rows[n][k]


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


def general_binomial(z: float, j: int) -> float:
    """Generalized binomial coefficient z (z-1) ... (z-j+1) / j!.

    Total over real z and integer j >= 0.  Small j uses the direct product;
    large j goes through log-gamma with sign tracking.
    """
    if j < 0:
        raise ValueError(f"lower index must be nonnegative, got {j}")
    if j == 0:
        return 1.0
    if z == math.floor(z) and 0 <= z < j:
        return 0.0
    if j <= _PRODUCT_CUTOFF:
        num = 1.0
        for m in range(j):
            num *= z - m
        return num / math.factorial(j)
    # prod_{m<j} (z - m) = Gamma(z + 1) / Gamma(z - j + 1)
    s_num, l_num = signed_log_gamma(z + 1.0)
    s_den, l_den = signed_log_gamma(z - j + 1.0)
    if s_num == 0:
        # Pole in the numerator with no cancelling pole below: the product
        # contains an exact zero factor only when z is an integer in
        # [0, j), handled above; a nonpositive integer z makes the ratio
        # infinite, which cannot arise from finite falling factorials.
        raise ValueError(f"general_binomial undefined at z={z}, j={j}")
    if s_den == 0:
        return 0.0
    sign = s_num * s_den
    return sign * math.exp(l_num - l_den - math.lgamma(j + 1.0))
