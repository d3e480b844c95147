"""Fraction reference implementations of the integer-scaled exact kernels.

The library evaluates the Stirling transition sum, the Stirling hitting
sums, the eigenvector recursion, the spectral identities R L = I and
R diag(D) L = generator, and the hitting generating function with plain
integers over one known denominator.  The direct ``Fraction`` computations
below are the references: exact results must be equal and floats
bit-identical.  A guard test makes ``Fraction`` arithmetic raise and runs
the exact kernels under it, so a kernel that falls back to it fails.
"""

from fractions import Fraction

import pytest

from bscoal import analytics
from bscoal.analytics import (
    HittingMethod,
    TimePoint,
    fixation_transition,
    hitting_gf_coefficients,
    hitting_probability,
)
from bscoal.combinatorics import factorial, stirling_first, stirling_second
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
    # (-1)^{i+j} (i!/j!) sum_k S(k,i) alpha^k s(j,k), all in exact rationals.
    acc = Fraction(0)
    for k in range(i, j + 1):
        acc += stirling_second(k, i) * alpha**k * stirling_first(j, k)
    sign = -1 if (i + j) % 2 else 1
    return sign * Fraction(factorial(i), factorial(j)) * acc


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


# ---------------------------------------------------------------------------
# the library against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
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
    analytics._RenewalMasses().upto(60)  # a cold table, so growth runs here
    hitting_gf_coefficients(1, 60)
    fixation_transition(2, 30, TimePoint.from_time(0.7))
