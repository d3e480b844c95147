"""Fraction reference implementations of the integer-scaled exact kernels.

The library evaluates the Stirling transition sum, the spectral identities
R L = I and R diag(D) L = generator, and the hitting generating function
with plain integers over one known denominator.  The direct ``Fraction``
computations below are the references: exact results must be equal and
floats bit-identical.
"""

import json
from fractions import Fraction

import pytest

from bscoal.analytics import TimePoint, fixation_transition, hitting_gf_coefficients
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


def _decomposition(kind: GeneratorKind, n: int, source: str) -> SpectralDecomposition:
    if source == "recursive":
        return recursive_decomposition(build_generator(kind, n), eigenvalues(kind, n), kind)
    dec = closed_form_decomposition(kind, n)
    if source == "json":
        R, L = (TriangularMatrix.from_jsonable(json.loads(m.to_json())) for m in (dec.R, dec.L))
        dec = SpectralDecomposition(kind, n, R, dec.D, L)
    return dec


@pytest.mark.parametrize("kind", list(GeneratorKind))
@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("source", ["closed", "recursive", "json"])
def test_verify_matches_reference(kind, n, source):
    dec = _decomposition(kind, n, source)
    report = verify_decomposition(dec)
    assert (report.rl_is_identity, report.rdl_is_generator) == verify_reference(dec)
    assert report.ok


@pytest.mark.parametrize("i", [1, 3, 7])
def test_gf_coefficients_match_reciprocal_series(i):
    assert hitting_gf_coefficients(i, 120) == gf_reference(i, 120)


def test_reference_matmul_by_identity():
    gen = build_generator(GeneratorKind.BS_FIXATION, 6).rows
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(6)) for i in range(6))
    assert matmul(gen, ident) == gen
    assert is_identity(ident)
