"""Exact combinatorics: Stirling tables, generalized binomials, signed log-gamma."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscoal import combinatorics
from bscoal.combinatorics import (
    DEFAULT_NMAX,
    general_binomial,
    signed_log_gamma,
    stirling_first,
    stirling_second,
)

# Bell numbers B_0..B_20 (row sums of the second-kind triangle), frozen oracle.
BELL = [
    1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
    678570, 4213597, 27644437, 190899322, 1382958545, 10480142147,
    82864869804, 682076806159, 5832742205057, 51724158235372,
]

# Small frozen values (standard tables).
FIRST_KIND = {(4, 2): 11, (5, 2): -50, (5, 3): 35, (6, 3): -225, (7, 4): -735}
SECOND_KIND = {(4, 2): 7, (5, 2): 15, (5, 3): 25, (6, 3): 90, (7, 4): 350}


def test_small_values_match_tables():
    for (n, k), v in FIRST_KIND.items():
        assert stirling_first(n, k) == v
    for (n, k), v in SECOND_KIND.items():
        assert stirling_second(n, k) == v


def test_boundaries():
    assert stirling_first(0, 0) == 1
    assert stirling_second(0, 0) == 1
    for n in range(1, 10):
        assert stirling_first(n, 0) == 0
        assert stirling_second(n, 0) == 0
        assert stirling_first(n, n) == 1
        assert stirling_second(n, n) == 1
        assert stirling_first(n, n + 3) == 0
        assert stirling_second(n, n + 3) == 0


def test_range_errors():
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError):
        stirling_second(3, -2)
    with pytest.raises(ValueError):
        stirling_first(DEFAULT_NMAX + 1, 2)


def test_inversion_identity():
    # sum_k s(n,k) S(k,m) = delta_{nm}
    for n in range(0, 31):
        for m in range(0, n + 1):
            total = sum(
                stirling_second(n, k) * stirling_first(k, m) for k in range(m, n + 1)
            )
            assert total == (1 if n == m else 0)


def test_row_sums():
    for n in range(0, 21):
        assert sum(abs(stirling_first(n, k)) for k in range(n + 1)) == math.factorial(n)
        assert sum(stirling_second(n, k) for k in range(n + 1)) == BELL[n]


def test_concurrent_growth_matches_single_thread(monkeypatch):
    # four threads grow both tables from row 0 to different n at once
    def rows(top):
        return [(stirling_first(n, k), stirling_second(n, k)) for n in range(top + 1) for k in range(n + 1)]

    tops = (60, 130, 200, DEFAULT_NMAX)
    monkeypatch.setattr(combinatorics, "_first_rows", [[1]])
    monkeypatch.setattr(combinatorics, "_second_rows", [[1]])
    want = rows(DEFAULT_NMAX)
    monkeypatch.setattr(combinatorics, "_first_rows", [[1]])
    monkeypatch.setattr(combinatorics, "_second_rows", [[1]])
    start = threading.Barrier(len(tops))

    def grow(top):
        start.wait(timeout=60)
        return rows(top)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the growth of a row too
    try:
        with ThreadPoolExecutor(len(tops)) as pool:
            got = list(pool.map(grow, tops, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for top, values in zip(tops, got):
        assert values == want[: len(values)], top
    assert len(combinatorics._first_rows) == len(combinatorics._second_rows) == DEFAULT_NMAX + 1


def test_general_binomial_matches_comb():
    for n in range(0, 90):
        for k in (0, 1, 2, n // 2, n - 1, n):
            if k < 0:
                continue
            exact = math.comb(n, k)
            approx = general_binomial(float(n), k)
            assert approx == pytest.approx(exact, rel=1e-12)


def test_general_binomial_where_gamma_or_the_product_leave_range():
    # a negative integer z is a pole of Gamma(z + 1) (this raised ValueError),
    # and a product past the float range can hold a quotient inside it (this
    # returned inf)
    for z, j in ((-3, 70), (-3, 71), (-100, 65), (-1, 101)):
        want = (-1) ** j * math.comb(j - z - 1, j)
        assert general_binomial(float(z), j) == pytest.approx(want, rel=1e-12)
    assert general_binomial(1e6, 60) == pytest.approx(math.comb(10**6, 60), rel=1e-14)


def test_general_binomial_integer_zero_window():
    assert general_binomial(3.0, 5) == 0.0
    assert general_binomial(0.0, 1) == 0.0
    assert general_binomial(2.0, 70) == 0.0  # above the product cutoff


@given(
    z=st.floats(-20, 20).filter(lambda v: abs(v - round(v)) > 1e-6),
    j=st.integers(0, 120),
)
@settings(max_examples=200)
def test_general_binomial_recurrence(z, j):
    # C(z, j+1) = C(z, j) (z - j) / (j + 1), the defining recurrence.
    lhs = general_binomial(z, j + 1)
    rhs = general_binomial(z, j) * (z - j) / (j + 1)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-280)


def test_signed_log_gamma_positive():
    s, l = signed_log_gamma(3.5)
    assert s == 1 and l == pytest.approx(math.lgamma(3.5))


def test_signed_log_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        s, l = signed_log_gamma(x)
        assert s == 0 and math.isinf(l)


def test_signed_log_gamma_negative_signs():
    # Gamma(-0.5) = -2 sqrt(pi); Gamma(-1.5) = 4 sqrt(pi) / 3.
    s, l = signed_log_gamma(-0.5)
    assert s == -1
    assert s * math.exp(l) == pytest.approx(-2.0 * math.sqrt(math.pi))
    s, l = signed_log_gamma(-1.5)
    assert s == 1
    assert s * math.exp(l) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0)
