"""Reference implementations of the integer-scaled exact kernels and of the
lean float kernels.

The library evaluates the Stirling transition sum, the Stirling hitting
sums, the eigenvector recursion, the spectral identities R L = I and
R diag(D) L = generator, and the hitting generating function with plain
integers over one known denominator.  The direct ``Fraction`` computations
below are the references: exact results must be equal and floats
bit-identical.  A guard test makes ``Fraction`` arithmetic raise and runs
the exact kernels under it, so a kernel that falls back to it fails.
The renewal table of the convolution route grows by a moment recurrence;
its reference is the renewal convolution on the same integer numerators,
and its snapshots must be equal.

The block survival sum does its float arithmetic in one pass, with no
helper call per term, and reads its signed binomials from a cached float
row.  Its reference below is the same sum written with ``signed_log_gamma``
and ``math.comb`` per term: every float must be bit-identical and every
raise of the same type, from one or four threads.  The Edgeworth point sums
d_k in its Stirling form, a term per S(k, m); its reference is the binomial
form sum_j (-1)^(j-1) C(i, j) j^k F^j with ``math.comb`` per term, and the two
must agree within their rounding bounds, and bit for bit on the guarded
edges.  A second guard test makes those helpers raise under the kernels.
The hitting quadrature must be bit-identical to the same sum with d left an
integer in every d + x (its per-node reference is in ``test_analytics.py``).
"""

import concurrent.futures
import math
import operator
import sys
import threading
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from bscoal import analytics, combinatorics, spectral
from bscoal.analytics import (
    HittingMethod,
    NumericInstabilityError,
    TimePoint,
    absorption_cdf,
    block_tail_via_duality,
    edgeworth_cdf,
    fixation_transition,
    hitting_gf_coefficients,
    hitting_probability,
)
from bscoal.combinatorics import DEFAULT_NMAX, signed_log_gamma, stirling_first, stirling_second
from bscoal.spectral import (
    GeneratorKind,
    SpectralDecomposition,
    TriangularMatrix,
    build_generator,
    closed_form_decomposition,
    eigenvalues,
    recursive_decomposition,
    verify_decomposition,
)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def transition_stirling_reference(i: int, j: int, alpha: Fraction) -> Fraction:
    # (-1)^{i+j} (i!/j!) sum_k S(k,i) alpha^k s(j,k), all in exact rationals;
    # the polynomial in alpha by Horner, so that no sum adds two rationals over
    # different huge powers of two (at a subnormal alpha, 2^-1074).
    acc = Fraction(0)
    for k in range(j, i - 1, -1):
        acc = acc * alpha + stirling_second(k, i) * stirling_first(j, k)
    sign = -1 if (i + j) % 2 else 1
    return sign * Fraction(factorial(i), factorial(j)) * acc * alpha**i


def hitting_shift_reference(d: int) -> Fraction:
    # (-1)^d / d! sum_{k=1..d+1} s(d+1,k) / k
    acc = sum((Fraction(stirling_first(d + 1, k), k) for k in range(1, d + 2)), Fraction(0))
    sign = -1 if d % 2 else 1
    return sign * acc / factorial(d)


def hitting_double_reference(i: int, j: int) -> Fraction:
    # (-1)^{i+j} i!/(j-1)! sum_{k=i..j} s(j,k) S(k,i) / k
    acc = sum(
        (Fraction(stirling_first(j, k) * stirling_second(k, i), k) for k in range(i, j + 1)),
        Fraction(0),
    )
    sign = -1 if (i + j) % 2 else 1
    return sign * Fraction(factorial(i), factorial(j - 1)) * acc


def right_eigenvectors_reference(q: TriangularMatrix, d) -> TriangularMatrix:
    # r_jj = 1, r_ij = sum_k q_ik r_kj / (d_j - d_i), k from j towards i
    n, g = q.n, q.rows
    step = -1 if q.orientation == "upper" else 1
    stop = -1 if step < 0 else n
    R = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        R[j][j] = Fraction(1)
        for i in range(j + step, stop, step):
            acc = sum((g[i][k] * R[k][j] for k in range(j, i, step)), Fraction(0))
            R[i][j] = acc / (d[j] - d[i])
    return TriangularMatrix(n, q.orientation, tuple(map(tuple, R)))


def matmul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(r) for r in out)


def scale_columns(rows: tuple, d) -> tuple:
    """Right multiplication by diag(d)."""
    return tuple(tuple(v * d[j] for j, v in enumerate(row)) for row in rows)


def is_identity(rows: tuple) -> bool:
    return all(v == (1 if i == j else 0) for i, row in enumerate(rows) for j, v in enumerate(row))


def verify_reference(dec: SpectralDecomposition) -> tuple[bool, bool]:
    rl = matmul(dec.R.rows, dec.L.rows)
    rdl = matmul(scale_columns(dec.R.rows, dec.D), dec.L.rows)
    return is_identity(rl), rdl == build_generator(dec.kind, dec.n).rows


def gf_reference(i: int, J: int) -> list[float]:
    # Reciprocal of B(z) = (-log(1-z))/z by power-series division; the
    # 1/(1-z) factor turns into partial sums.
    m = J - i
    b = [Fraction(1, n + 1) for n in range(m + 1)]
    a = [Fraction(1)] + [Fraction(0)] * m
    for n in range(1, m + 1):
        a[n] = -sum(b[k] * a[n - k] for k in range(1, n + 1))
    out = []
    acc = Fraction(0)
    for n in range(m + 1):
        acc += a[n]
        out.append(float(acc))
    return out


def renewal_reference(d: int) -> tuple[list[int], int]:
    # The renewal convolution f(k) = sum_{m=1..k} f(k-m) / (m (m+1)), f(0) = 1,
    # on the numerators f(k) W over W = d! lcm{m (m+1) : m <= d}: each
    # weight lcm / (m (m+1)) is an integer, and each sum divides exactly.
    lcm = math.lcm(*(m * (m + 1) for m in range(1, d + 1)))
    den = factorial(d) * lcm
    weights = [lcm // (m * (m + 1)) for m in range(1, d + 1)]
    nums = [den]
    for k in range(1, d + 1):
        num, rem = divmod(sum(map(operator.mul, nums[k - 1 :: -1], weights)), lcm)
        assert rem == 0, k
        nums.append(num)
    return nums, den


def block_tail_reference(n: int, i: int, alpha: float) -> float:
    # sum_{j=1..i} (-1)^{j-1} C(i,j) Gamma(n - j a) / (Gamma(n) Gamma(1 - j a))
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if i == n:
        return 1.0
    lg_n = math.lgamma(n)
    terms = []
    try:
        for j in range(1, i + 1):
            s_den, l_den = signed_log_gamma(1.0 - j * alpha)
            if s_den == 0:
                continue  # 1/Gamma vanishes at nonpositive integers
            mag = math.exp(math.lgamma(n - j * alpha) - lg_n - l_den)
            terms.append((-1) ** (j - 1) * s_den * math.comb(i, j) * mag)
    except OverflowError:  # C(i, j) past the float range, on a term that is no pole
        raise NumericInstabilityError(f"block tail: C({i}, j) exceeds the float range") from None
    val = math.fsum(terms)
    if val < -1e-9 or val > 1.0 + 1e-9:
        raise NumericInstabilityError(f"block tail {val} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def hitting_integral_reference(d: int) -> float:
    # the quadrature with d an integer in every d + x, as the library read it before
    # converting d once
    lg_d1 = math.lgamma(d + 1.0)
    return math.fsum([w * math.exp(math.lgamma(d + x) - lg_x - lg_d1) for x, w, lg_x in analytics._GAUSS_LEGENDRE])


def edgeworth_cdf_reference(n: int, i: int, x: float, K: int) -> tuple[float, float]:
    # sum_{k=0..K} c_k d_k(x) e^{-kx} / log^k n, with d_k = sum_{j=1..i} F^j (-1)^{j-1} C(i,j) j^k
    # and F the Gumbel CDF at x, and the sum's rounding bound: 2^-52 per term of d_k, and
    # the rounding of F, (1 + e^-x) 2^-52 relative, times the term's sensitivity j.
    if n < 3 or i < 1:
        raise ValueError(f"need n >= 3 and i >= 1, got n={n}, i={i}")
    c = analytics.edgeworth_c(K)
    if math.isnan(x):
        raise ValueError(f"x must be a number, got x = {x}")
    if x <= -7.0:
        return 0.0, 0.0
    if x == math.inf:
        return 1.0, 0.0
    ln = math.log(n)
    y = math.exp(-x)
    F = math.exp(-y)
    parts, bound = [], 0.0
    for k in range(K + 1):
        terms = [(F**j) * ((-1) ** (j - 1)) * math.comb(i, j) * (j**k) for j in range(1, i + 1)]
        w = c[k] * math.exp(-k * x) / ln**k
        parts.append(w * math.fsum(terms))
        bound += abs(w) * math.fsum(abs(t) * (1.0 + (1.0 + y) * j) for j, t in enumerate(terms, 1))
    return math.fsum(parts), bound * 2.0**-52


def outcome(fn, *args) -> str:
    """The float's hex form, or the type of the exception raised."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # the type is what gets compared
        return type(exc).__name__


# ---------------------------------------------------------------------------
# the library against the references
# ---------------------------------------------------------------------------

TAIL_NS = (1, 2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**6, 10**9)
TAIL_ALPHAS = (1.0, 0.5, 0.25, 0.2, 0.1, math.exp(-1), math.exp(-3), math.exp(-0.01), 1e-300, 0.0)


@pytest.mark.parametrize("n", TAIL_NS)
def test_block_tail_bit_identical_to_reference(n):
    # i = n - 1, n, n + 1 reach the i == n shortcut and both ValueErrors;
    # alpha = 1 and 0.5 put poles of Gamma(1 - j a) among the terms.
    i_values = sorted({min(i, 200) for i in (1, 2, 3, 5, 10, 29, 50, 100, n - 1, n, n + 1)})
    for i in i_values:
        for alpha in TAIL_ALPHAS:
            want = outcome(block_tail_reference, n, i, alpha)
            assert outcome(analytics._block_tail, n, i, alpha) == want, (n, i, alpha)
    # C(1029, j) fits a float for every j and C(1030, 515) does not; at alpha = 1
    # every term is a pole, so a row that overflows is no raise by itself.
    for i in (1029, 1030, 1100):
        for alpha in (1.0, 0.5, math.exp(-1), 0.0):
            want = outcome(block_tail_reference, n, i, alpha)
            assert outcome(analytics._block_tail, n, i, alpha) == want, (n, i, alpha)


def test_block_tail_skips_the_overflowing_poles():
    # at alpha = 1 every term is a pole, so the sum is 0.0 although C(1100, 550)
    # overflows; at alpha = 1/2 only even j are poles, and j = 515 raises
    assert block_tail_via_duality(5000, 1100, TimePoint.from_time(0.0)) == 0.0
    with pytest.raises(NumericInstabilityError, match=r"C\(1030, j\)"):
        analytics._block_tail(5000, 1030, 0.5)


def test_block_tail_dense_sweep_slice_matches_reference():
    # the sweep's dense grid at every 97th t = 0.0005 k, and t = log 2, where
    # alpha = 1/2 puts a pole at every even j
    ts = [round(0.0005 * k, 10) for k in range(1, 8001, 97)] + [math.log(2.0)]
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        for i in (1, 2, 5, 10):
            for t in ts:
                want = outcome(block_tail_reference, n, i, math.exp(-t))
                assert outcome(absorption_cdf, n, i, t) == want, (n, i, t)
                assert outcome(block_tail_via_duality, n, i, TimePoint.from_time(t)) == want, (n, i, t)


def test_block_tail_rows_agree_across_threads():
    # rows built and evicted concurrently (201 rows against the cache's 128)
    # give the floats and raises of serial calls
    alphas = (1.0, 0.5, 0.3, math.exp(-1), 1e-3)
    cases = [(n, i, a) for i in [*range(1, 201), 1030] for n in (i + 1, 10**4) for a in alphas]
    serial = [outcome(analytics._block_tail, *case) for case in cases]
    analytics._signed_binomial_row.cache_clear()
    barrier = threading.Barrier(4, timeout=30)

    def work(k):
        barrier.wait()
        return [(case, outcome(analytics._block_tail, *case)) for case in cases if case[1] % 4 == k]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-row
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            parts = list(pool.map(work, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    threaded = dict(pair for part in parts for pair in part)
    assert [threaded[case] for case in cases] == serial


def test_block_tail_grid_reaches_every_branch():
    outcomes = {
        outcome(block_tail_reference, n, min(i, 200), a)
        for n in TAIL_NS
        for i in (1, 29, 100, n - 1, n + 1)
        for a in TAIL_ALPHAS
    }
    assert {"ValueError", "NumericInstabilityError", (1.0).hex(), (0.0).hex()} <= outcomes


def test_hitting_integral_bit_identical_to_reference():
    # d = j - 1 on the sweep's grid of h(1, j), with j = 10^6 of the cli's digest, and d = 10^6
    js = {int(j) for j in np.unique(np.logspace(0.3, 6.0, 12000).astype(np.int64)) if j >= 2} | {10**6}
    for d in sorted({j - 1 for j in js} | {10**6}):
        assert analytics._hitting_integral(d).hex() == hitting_integral_reference(d).hex(), d


EDGEWORTH_X = (-800.0, -8.0, -7.0, -6.99, -3.0, -1.0, -0.05, 0.0, 0.5, 2.0, 10.0, 40.0, 800.0, math.inf, math.nan)


@pytest.mark.parametrize("i", [1, 2, 3, 5, 10, 29, 50])
def test_edgeworth_bit_identical_to_reference(i):
    # Bit for bit, or the same raise, on the guarded edges: x <= -7, x = inf, NaN,
    # bad n and K = 13.  Elsewhere, where the reference's rounding bound is at most
    # 1e-9, the two agree within it plus i 2^-52, what rounding 1 - F costs
    # d_0 = 1 - (1 - F)^i; the library must answer there.
    answered = 0
    for x in EDGEWORTH_X:
        for n in (2, 3, 10, 1000, 10**6, 10**9):
            for K in range(14):  # K = 13 raises
                try:
                    want, bound = edgeworth_cdf_reference(n, i, x, K)
                except ValueError:
                    with pytest.raises(ValueError):
                        edgeworth_cdf(n, i, x, K)
                    continue
                if bound == 0.0:
                    assert outcome(edgeworth_cdf, n, i, x, K) == want.hex(), (n, i, x, K)
                elif bound <= 1e-9:
                    assert abs(edgeworth_cdf(n, i, x, K) - want) <= bound + i * 2.0**-52, (n, i, x, K)
                    answered += 1
    assert answered >= 100


# t = 0 is alpha = 1 (b = 1, no shift); t = 745 the least subnormal, 2^-1074
TRANSITION_TIMES = [0.0, 0.1, 0.5, 1.0, 3.0, 40.0, 745.0]


@pytest.mark.parametrize("t", TRANSITION_TIMES)
def test_transition_grid_matches_reference(t):
    tp = TimePoint.from_time(t)
    alpha = Fraction(tp.alpha)
    for i in range(1, 31):
        for j in range(i, 31):
            assert fixation_transition(i, j, tp) == float(
                transition_stirling_reference(i, j, alpha)
            ), (i, j)


def test_transition_row_one_matches_reference():
    tp = TimePoint.from_time(1.0)
    alpha = Fraction(tp.alpha)
    for j in range(1, 101):
        assert fixation_transition(1, j, tp) == float(transition_stirling_reference(1, j, alpha)), j


@pytest.mark.parametrize("t", TRANSITION_TIMES)
def test_transition_rows_at_the_bound_match_reference(t):
    tp = TimePoint.from_time(t)
    alpha = Fraction(tp.alpha)
    if t == 745.0:
        assert alpha == Fraction(1, 2**1074)
    for i in (1, 128, DEFAULT_NMAX):
        assert fixation_transition(i, DEFAULT_NMAX, tp) == float(
            transition_stirling_reference(i, DEFAULT_NMAX, alpha)
        ), i


def generator_from_rows(n: int, upper: bool, rows, scales) -> tuple:
    # the n x n matrix whose row i holds rows[i][m] / scales[i] at distance m
    # from the diagonal, into the triangle, and zero elsewhere
    full = [[Fraction(0)] * n for _ in range(n)]
    for i, (row, c) in enumerate(zip(rows, scales)):
        assert c > 0 and len(row) <= (n - i if upper else i + 1), (i, len(row))
        for m, g in enumerate(row):
            full[i][i + m if upper else i - m] = Fraction(g, c)
    return tuple(map(tuple, full))


@pytest.mark.parametrize("kind", list(GeneratorKind))
@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_certificate_rows_are_the_generator(kind, n):
    # the integer rows over their scales that the eigen-equations read are Q and Q^T
    gen = build_generator(kind, n)
    upper = kind.orientation == "upper"
    for transposed, want in ((False, gen), (True, gen.transpose())):
        rows, scales = spectral._generator_rows(kind, n, transposed)
        assert len(rows) == len(scales) == n
        assert all(type(g) is int for row in rows for g in row) and all(type(c) is int for c in scales)
        assert generator_from_rows(n, upper != transposed, rows, scales) == want.rows, transposed


@pytest.mark.parametrize("kind", list(GeneratorKind))
@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("source", ["closed", "recursive"])
def test_verify_matches_reference(kind, n, source):
    if source == "recursive":
        dec = recursive_decomposition(build_generator(kind, n), eigenvalues(kind, n), kind)
    else:
        dec = closed_form_decomposition(kind, n)
    report = verify_decomposition(dec)
    assert (report.rl_is_identity, report.rdl_is_generator) == verify_reference(dec)
    assert report.ok


def mixed_generator(n: int, orientation: str, diagonal) -> TriangularMatrix:
    # Rates with denominators 1..6 and a zero wherever 5 divides 7i + 3j:
    # no closed form covers these triangles.
    upper = orientation == "upper"

    def entry(i: int, j: int) -> Fraction:
        if i == j:
            return diagonal(i)
        if j > i if upper else j < i:
            return Fraction((7 * i + 3 * j) % 5, (2 * i + j) % 6 + 1)
        return Fraction(0)

    rows = tuple(tuple(entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
    return TriangularMatrix(n, orientation, rows)


DIAGONALS = {
    "thirds": lambda i: Fraction(-i, 3),
    "alternating": lambda i: Fraction((-1) ** i * i, i % 3 + 2),  # distinct for i <= 9
}


@pytest.mark.parametrize("orientation", ["upper", "lower"])
@pytest.mark.parametrize("diagonal", DIAGONALS)
def test_recursion_matches_reference_off_closed_forms(orientation, diagonal):
    for n in (1, 2, 9):
        gen = mixed_generator(n, orientation, DIAGONALS[diagonal])
        d = tuple(gen.entry(i, i) for i in range(1, n + 1))
        dec = recursive_decomposition(gen, d, GeneratorKind.BS_FIXATION)
        assert dec.R.rows == right_eigenvectors_reference(gen, d).rows, n
        L = right_eigenvectors_reference(gen.transpose(), d).transpose()
        assert dec.L.rows == L.rows, n
        assert is_identity(matmul(dec.R.rows, dec.L.rows)), n
        assert matmul(scale_columns(dec.R.rows, d), dec.L.rows) == gen.rows, n


def test_stirling_hitting_sums_match_reference():
    for d in range(121):
        assert hitting_probability(2, 2 + d, HittingMethod.STIRLING_SHIFT) == (
            hitting_shift_reference(d)
        ), d
    for i in (1, 3):
        for d in range(61):
            assert hitting_probability(i, i + d, HittingMethod.STIRLING_DOUBLE) == (
                hitting_double_reference(i, i + d)
            ), (i, d)


@pytest.mark.parametrize("i", [1, 3, 7])
def test_gf_coefficients_match_reciprocal_series(i):
    assert hitting_gf_coefficients(i, 120) == gf_reference(i, 120)


def test_renewal_table_matches_convolution():
    nums, den = renewal_reference(200)
    ref = [Fraction(v, den) for v in nums]
    assert analytics._RenewalMasses().upto(200) == ref  # cold
    for steps in (1, 7):  # a climb one gap at a time, as the exact benchmark job does, and strides
        table = analytics._RenewalMasses()
        for d in range(0, 201, steps):
            assert table.upto(d) == ref[: d + 1], (steps, d)
        assert table.upto(200) == ref


def test_reference_matmul_by_identity():
    gen = build_generator(GeneratorKind.BS_FIXATION, 6).rows
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(6)) for i in range(6))
    assert matmul(gen, ident) == gen
    assert is_identity(ident)


# ---------------------------------------------------------------------------
# structural guard: the exact kernels do no Fraction arithmetic
# ---------------------------------------------------------------------------

class FractionArithmetic(Exception):
    pass


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def test_exact_kernels_do_no_fraction_arithmetic(monkeypatch):
    def forbidden(*args):
        raise FractionArithmetic

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(FractionArithmetic):
        Fraction(1, 2) * 2
    n = 12
    for kind in GeneratorKind:
        gen = build_generator(kind, n)
        for dec in (
            closed_form_decomposition(kind, n),
            recursive_decomposition(gen, eigenvalues(kind, n), kind),
        ):
            assert verify_decomposition(dec).ok, kind
    for method in (
        HittingMethod.CONVOLUTION,
        HittingMethod.STIRLING_DOUBLE,
        HittingMethod.STIRLING_SHIFT,
    ):
        for i, j in ((3, 3), (3, 40), (5, 2)):
            hitting_probability(i, j, method)
    masses = analytics._RenewalMasses().upto(60)  # a cold table, so growth runs here
    assert all(type(v) is Fraction for v in masses) and len(masses) == 61
    hitting_gf_coefficients(1, 60)
    fixation_transition(2, 30, TimePoint.from_time(0.7))


# ---------------------------------------------------------------------------
# structural guard: the float kernels call no helper per term
# ---------------------------------------------------------------------------

class HelperCall(Exception):
    pass


def test_float_kernels_call_no_helpers(monkeypatch):
    def forbidden(*args):
        raise HelperCall

    monkeypatch.setattr(analytics, "signed_log_gamma", forbidden, raising=False)
    monkeypatch.setattr(combinatorics, "signed_log_gamma", forbidden)
    monkeypatch.setattr(analytics, "gumbel_cumulant", forbidden)
    monkeypatch.setattr(analytics, "stirling_second", forbidden)
    monkeypatch.setattr(combinatorics, "stirling_second", forbidden)
    monkeypatch.setattr(math, "comb", forbidden)
    with pytest.raises(HelperCall):
        analytics.stirling_second(3, 2)
    analytics.edgeworth_c.cache_clear()  # so every order is built under the guard
    for K in range(13):
        analytics.edgeworth_c(K)
    assert analytics.edgeworth_c.cache_info().currsize == 13
    for n, i, t in ((30, 5, 0.7), (1000, 29, 0.01), (10, 4, math.log(2.0)), (10**6, 10, 3.0)):
        assert 0.0 <= absorption_cdf(n, i, t) <= 1.0  # t = log 2: a pole at j = 2
        assert block_tail_via_duality(n, i, TimePoint.from_time(t)) == absorption_cdf(n, i, t)
    for x in (-1.0, 0.5, 4.0):
        for K in (0, 3, 12):
            assert 0.0 <= edgeworth_cdf(1000, 5, x, K) <= 1.5
