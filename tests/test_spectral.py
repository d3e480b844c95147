"""Triangular spectral decompositions: closed forms, recursions, exact products."""

import math
from fractions import Fraction

import pytest

from bscoal import combinatorics, spectral
from bscoal.spectral import (
    DegenerateSpectrumError,
    GeneratorKind,
    TriangularMatrix,
    build_generator,
    closed_form_decomposition,
    eigenvalues,
    generator_entry,
    recursive_decomposition,
    verify_decomposition,
)

KINDS = list(GeneratorKind)


def test_generator_entries():
    # block counting: q_53 = 5/(2*3), diagonal 1-i
    assert generator_entry(GeneratorKind.BS_BLOCK, 5, 3) == Fraction(5, 6)
    assert generator_entry(GeneratorKind.BS_BLOCK, 5, 5) == -4
    assert generator_entry(GeneratorKind.BS_BLOCK, 3, 5) == 0
    # fixation line: rate i/((j-i)(j-i+1)), diagonal -i
    assert generator_entry(GeneratorKind.BS_FIXATION, 3, 5) == Fraction(3, 6)
    assert generator_entry(GeneratorKind.BS_FIXATION, 3, 3) == -3
    # pure birth: i(i+1)/2 to i+1 only
    assert generator_entry(GeneratorKind.KINGMAN_FIXATION, 4, 5) == 10
    assert generator_entry(GeneratorKind.KINGMAN_FIXATION, 4, 6) == 0
    assert generator_entry(GeneratorKind.KINGMAN_FIXATION, 4, 4) == -10


def test_generator_row_sums():
    # the block generator is conservative; the growing kinds lose mass upward
    gen = build_generator(GeneratorKind.BS_BLOCK, 12)
    for row in gen.rows:
        assert sum(row) == 0


# n = 1 and n = 2 are the edges of the triangle and recursion loop ranges.
EDGE_SIZES = (1, 2, 15)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_verifies_exactly(kind):
    for n in EDGE_SIZES:
        report = verify_decomposition(closed_form_decomposition(kind, n))
        assert report.rl_is_identity, n
        assert report.rdl_is_generator, n
        assert report.ok


@pytest.mark.parametrize("kind", KINDS)
def test_recursion_equals_closed_form(kind):
    for n in EDGE_SIZES:
        gen = build_generator(kind, n)
        dec_r = recursive_decomposition(gen, eigenvalues(kind, n), kind)
        dec_c = closed_form_decomposition(kind, n)
        assert dec_r.R.rows == dec_c.R.rows, n
        assert dec_r.L.rows == dec_c.L.rows, n
        assert dec_r.D == dec_c.D, n
        assert dec_r.R.orientation == dec_r.L.orientation == kind.orientation


def test_unit_diagonals():
    for kind in KINDS:
        dec = closed_form_decomposition(kind, 10)
        for i in range(1, 11):
            assert dec.R.entry(i, i) == 1
            assert dec.L.entry(i, i) == 1


def test_negative_control_perturbed_generator_fails():
    n = 8
    kind = GeneratorKind.BS_FIXATION
    dec = closed_form_decomposition(kind, n)
    rows = [list(r) for r in dec.R.rows]
    rows[0][3] += Fraction(1, 1000)
    bad = TriangularMatrix(n, dec.R.orientation, tuple(tuple(r) for r in rows))
    report = verify_decomposition(
        type(dec)(kind=kind, n=n, R=bad, D=dec.D, L=dec.L)
    )
    assert not report.ok


def test_degenerate_spectrum_rejected():
    n = 4
    rows = tuple(
        tuple(Fraction(1) if j >= i else Fraction(0) for j in range(n))
        for i in range(n)
    )
    gen = TriangularMatrix(n, "upper", rows)  # constant diagonal
    with pytest.raises(DegenerateSpectrumError):
        recursive_decomposition(
            gen, tuple(Fraction(1) for _ in range(n)), GeneratorKind.BS_FIXATION
        )


def test_eigenvalue_mismatch_rejected():
    gen = build_generator(GeneratorKind.BS_FIXATION, 5)
    wrong = tuple(Fraction(-i - 7) for i in range(5))
    with pytest.raises(ValueError):
        recursive_decomposition(gen, wrong, GeneratorKind.BS_FIXATION)


def test_transpose():
    gen = build_generator(GeneratorKind.BS_FIXATION, 6)
    assert gen.transpose().transpose().rows == gen.rows
    assert gen.transpose().orientation == "lower"


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_past_stirling_bound_rejected_up_front(kind, monkeypatch):
    # the check comes before any table work: no Stirling row is read
    def unreachable(n):
        raise AssertionError("Stirling table read before the bound check")

    monkeypatch.setattr(spectral, "_stirling_rows", unreachable)
    n = spectral.DEFAULT_NMAX + 44
    with pytest.raises(ValueError, match=rf"n = {n}\b.*DEFAULT_NMAX = {spectral.DEFAULT_NMAX}"):
        closed_form_decomposition(kind, n)
    with pytest.raises(ValueError, match=rf"n = {n}\b.*DEFAULT_NMAX = {spectral.DEFAULT_NMAX}"):
        build_generator(kind, n)
    # the bound itself is allowed: with a bound of 5, n = 5 builds and 6 does not
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "DEFAULT_NMAX", 5)
    assert verify_decomposition(closed_form_decomposition(kind, 5)).ok
    with pytest.raises(ValueError, match=r"n = 6\b"):
        closed_form_decomposition(kind, 6)


def test_entries_outside_triangle_rejected():
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[2][1] = Fraction(1, 3)
    with pytest.raises(ValueError):
        TriangularMatrix(4, "upper", tuple(map(tuple, rows)))
    assert TriangularMatrix(4, "lower", tuple(map(tuple, rows))).entry(3, 2) == Fraction(1, 3)


def _perturbed(m: TriangularMatrix, i: int, j: int, eps: Fraction) -> TriangularMatrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] += eps
    return TriangularMatrix(m.n, m.orientation, tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", [GeneratorKind.BS_FIXATION, GeneratorKind.BS_BLOCK])
@pytest.mark.parametrize("factor", ["R", "L", "D"])
def test_negative_control_tiny_perturbation_fails(kind, factor):
    # 10^-30 is far below double precision relative to these entries, so
    # only exact arithmetic can see it.
    n = 12
    dec = closed_form_decomposition(kind, n)
    eps = Fraction(1, 10**30)
    i, j = (3, 7) if kind.orientation == "upper" else (7, 3)  # inside the triangle
    if factor == "R":
        dec = dec._replace(R=_perturbed(dec.R, i, j, eps))
    elif factor == "L":
        dec = dec._replace(L=_perturbed(dec.L, i, j, eps))
    else:
        dec = dec._replace(D=dec.D[:5] + (dec.D[5] + eps,) + dec.D[6:])
    report = verify_decomposition(dec)
    if factor == "D":
        assert report.rl_is_identity
        assert not report.rdl_is_generator
    else:
        assert not report.rl_is_identity
    assert not report.ok


# ---------------------------------------------------------------------------
# the eigen-equation certificate behind verify_decomposition
# ---------------------------------------------------------------------------

def _both_checks(dec):
    gen = build_generator(dec.kind, dec.n)
    return spectral._certified(dec), spectral._products_hold(dec, gen)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 10, 30])
def test_certificate_agrees_with_products(kind, n):
    gen = build_generator(kind, n)
    for dec in (
        closed_form_decomposition(kind, n),
        recursive_decomposition(gen, eigenvalues(kind, n), kind),
    ):
        assert _both_checks(dec) == (True, (True, True))
    if n < 2:
        return
    # one entry of R or of L off by 10^-30, inside the triangle: both checks see it
    i, j = (0, n - 1) if kind.orientation == "upper" else (n - 1, 0)
    eps = Fraction(1, 10**30)
    for bad in (
        dec._replace(R=_perturbed(dec.R, i, j, eps)),
        dec._replace(L=_perturbed(dec.L, i, j, eps)),
    ):
        certified, (rl_ok, rdl_ok) = _both_checks(bad)
        assert not certified
        assert not rl_ok


@pytest.mark.parametrize("kind", KINDS)
def test_certificate_sees_every_entry(kind):
    # a perturbation anywhere strictly inside the triangle of R or of L breaks an eigen-equation
    n = 6
    dec = closed_form_decomposition(kind, n)
    upper = kind.orientation == "upper"
    cells = [(i, j) for i in range(n) for j in range(n) if (i < j if upper else i > j)]
    for i, j in cells:
        for factor in ("R", "L"):
            bad = dec._replace(**{factor: _perturbed(getattr(dec, factor), i, j, Fraction(1, 7))})
            assert not spectral._certified(bad), (factor, i, j)
            assert not verify_decomposition(bad).ok, (factor, i, j)


def _columns_scaled(m: TriangularMatrix, c) -> TriangularMatrix:
    """m diag(c)."""
    return m._replace(rows=tuple(tuple(v * ck for v, ck in zip(row, c)) for row in m.rows))


@pytest.mark.parametrize("kind", KINDS)
def test_rescaled_eigenvectors_verify_by_products(kind):
    # (R diag(c), diag(c)^-1 L) is as good a decomposition; its diagonals are not
    # unit, so the certificate declines and the products decide
    n = 9
    dec = closed_form_decomposition(kind, n)
    c = [Fraction(k + 2, 3) * (-1) ** k for k in range(n)]
    inverse_rows = _columns_scaled(dec.L.transpose(), [1 / ck for ck in c]).transpose()
    scaled = dec._replace(R=_columns_scaled(dec.R, c), L=inverse_rows)
    assert _both_checks(scaled) == (False, (True, True))
    assert verify_decomposition(scaled).ok


@pytest.mark.parametrize("kind", KINDS)
def test_eigen_equations_alone_do_not_pass(kind):
    # cases where every eigen-equation off the diagonal holds and the identities still fail
    n = 7
    dec = closed_form_decomposition(kind, n)
    # D shifted by a constant: d_j - d_i is unchanged, R diag(D) L = Q + I
    shifted = dec._replace(D=tuple(d + 1 for d in dec.D))
    # R's columns scaled, L left as it is: R L = R diag(c) R^-1, not I
    scaled = dec._replace(R=_columns_scaled(dec.R, range(2, n + 2)))
    for bad, expected in ((shifted, (True, False)), (scaled, (False, False))):
        report = verify_decomposition(bad)
        assert (report.rl_is_identity, report.rdl_is_generator) == expected
        assert _both_checks(bad) == (False, expected)


def test_negative_control_kingman_eigenvalue_fails():
    n = 12
    dec = closed_form_decomposition(GeneratorKind.KINGMAN_FIXATION, n)
    bad = dec._replace(D=dec.D[:5] + (dec.D[5] + Fraction(1, 10**30),) + dec.D[6:])
    report = verify_decomposition(bad)
    assert (report.rl_is_identity, report.rdl_is_generator) == (True, False)


def test_mismatched_kind_or_orientation_reports_like_products():
    n = 8
    block = closed_form_decomposition(GeneratorKind.BS_BLOCK, n)
    fix = closed_form_decomposition(GeneratorKind.BS_FIXATION, n)
    kingman = GeneratorKind.KINGMAN_FIXATION
    cases = [
        # lower factors labelled with an upper kind: R L = I holds, R D L is not that generator
        (block._replace(kind=GeneratorKind.BS_FIXATION), (True, False)),
        # the right orientation, unit diagonals and D, but another chain's eigenvectors
        (fix._replace(kind=kingman, D=eigenvalues(kingman, n)), (True, False)),
        # factors of opposite orientations: neither identity holds
        (fix._replace(L=block.L), (False, False)),
    ]
    for dec, expected in cases:
        report = verify_decomposition(dec)
        assert (report.rl_is_identity, report.rdl_is_generator) == expected
        assert _both_checks(dec) == (False, expected)


def test_closed_forms_call_no_factorial_or_stirling_per_entry(monkeypatch):
    # with the Stirling tables warm, a decomposition makes at most one
    # factorial or Stirling call per row
    n = 30
    for kind in KINDS:
        closed_form_decomposition(kind, n)  # warm the tables
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(math, "factorial")
    counted(combinatorics, "stirling_first")
    counted(combinatorics, "stirling_second")
    # and under the names spectral holds, should it import any of them
    for name in ("factorial", "stirling_first", "stirling_second", "_stirling_rows"):
        if hasattr(spectral, name):
            counted(spectral, name)
    for kind in KINDS:
        calls.clear()
        dec = closed_form_decomposition(kind, n)
        assert len(calls) <= n, (kind, len(calls))
        assert dec.R.rows[0][0] == 1
