"""Generator matrices and their exact triangular spectral decompositions.

All matrices in this module are 1-indexed n x n truncations of infinite
triangular matrices, stored as exact rationals.  Triangularity makes every
product of truncations equal the truncation of the product, so the
identities R L = I and R diag(D) L = generator hold exactly at any
truncation size.  They are checked in integer-scaled exact arithmetic:
each row of R, each column of L and the vector D are multiplied by the
lcm of their denominators, and the products run over the triangle only.
R and L come from closed forms or from one eigenvector recursion that
serves both orientations (L from the recursion on the transpose).  The
recursion also runs on integers: it holds each column as integers over one
denominator and builds one ``Fraction`` per entry.

Covered generators:

* block counting process of the Bolthausen-Sznitman coalescent
  (lower triangular, rates i / ((i-j)(i-j+1)), diagonal 1 - i),
* its fixation line (upper triangular, rates i / ((j-i)(j-i+1)),
  diagonal -i),
* the fixation line of the Kingman coalescent (pure birth with rate
  i (i+1) / 2).
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Sequence

from .combinatorics import DEFAULT_NMAX, stirling_first, stirling_second

__all__ = [
    "GeneratorKind",
    "TriangularMatrix",
    "SpectralDecomposition",
    "VerificationReport",
    "DegenerateSpectrumError",
    "generator_entry",
    "build_generator",
    "eigenvalues",
    "closed_form_decomposition",
    "recursive_decomposition",
    "verify_decomposition",
]


class GeneratorKind(enum.Enum):
    BS_BLOCK = "bs-block"
    BS_FIXATION = "bs-fixation"
    KINGMAN_FIXATION = "kingman-fixation"

    @property
    def orientation(self) -> str:
        return "lower" if self is GeneratorKind.BS_BLOCK else "upper"


class DegenerateSpectrumError(ValueError):
    """Raised when a recursion requires distinct eigenvalues but got repeats."""


class TriangularMatrix(namedtuple("TriangularMatrix", "n orientation rows")):
    """Dense 1-indexed triangular matrix of exact rationals; entries off the triangle are zero.

    ``orientation`` is "upper" or "lower"; ``rows`` is an n-tuple of n-tuples.
    """

    __slots__ = ()

    def __new__(cls, n: int, orientation: str, rows: tuple[tuple[Fraction, ...], ...]):
        if orientation not in ("upper", "lower"):
            raise ValueError(f"orientation must be 'upper' or 'lower', got {orientation!r}")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("rows must form an n x n array")
        upper = orientation == "upper"
        if any(v for i, row in enumerate(rows) for v in (row[:i] if upper else row[i + 1 :])):
            raise ValueError(f"entries outside the {orientation} triangle must be zero")
        return super().__new__(cls, n, orientation, rows)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"index ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def transpose(self) -> "TriangularMatrix":
        flipped = "upper" if self.orientation == "lower" else "lower"
        return TriangularMatrix(
            self.n, flipped, tuple(zip(*self.rows))
        )


class SpectralDecomposition(namedtuple("SpectralDecomposition", "kind n R D L")):
    """Generator ``kind`` truncated at n as R diag(D) L; D is a tuple of Fractions."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "kind n rl_is_identity rdl_is_generator")):
    """Exact outcome of checking R L = I and R diag(D) L = generator."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.rl_is_identity and self.rdl_is_generator


def generator_entry(kind: GeneratorKind, i: int, j: int) -> Fraction:
    """Exact rate q(i, j) of the untruncated generator."""
    if i < 1 or j < 1:
        raise ValueError(f"states must be positive, got ({i}, {j})")
    if kind is GeneratorKind.BS_BLOCK:
        if j < i:
            return Fraction(i, (i - j) * (i - j + 1))
        if j == i:
            return Fraction(1 - i)
        return Fraction(0)
    if kind is GeneratorKind.BS_FIXATION:
        if j > i:
            return Fraction(i, (j - i) * (j - i + 1))
        if j == i:
            return Fraction(-i)
        return Fraction(0)
    # Kingman fixation line: pure birth at rate i (i+1) / 2.
    if j == i + 1:
        return Fraction(i * (i + 1), 2)
    if j == i:
        return Fraction(-i * (i + 1), 2)
    return Fraction(0)


def _triangular(n: int, orientation: str, entry) -> TriangularMatrix:
    """n x n matrix holding entry(i, j) on the triangle (1-based) and 0 off it."""
    upper = orientation == "upper"
    zero = Fraction(0)
    rows = tuple(
        tuple(
            entry(i, j) if (j >= i if upper else j <= i) else zero
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return TriangularMatrix(n, orientation, rows)


def build_generator(kind: GeneratorKind, n: int) -> TriangularMatrix:
    """n x n truncation; diagonals keep their untruncated values.

    For the fixation kinds the truncation loses the upward mass beyond n,
    so row sums of the truncation are negative: that is intentional.
    """
    if n < 1:
        raise ValueError(f"truncation size must be positive, got {n}")
    return _triangular(n, kind.orientation, lambda i, j: generator_entry(kind, i, j))


def eigenvalues(kind: GeneratorKind, n: int) -> tuple[Fraction, ...]:
    """Generator diagonal, which is the spectrum of any truncation."""
    return tuple(generator_entry(kind, i, i) for i in range(1, n + 1))


def _sign(i: int, j: int) -> int:
    return -1 if (i + j) % 2 else 1


# (R entry, L entry) on the triangle of each kind; both are unit diagonal.
_CLOSED_FORMS = {
    GeneratorKind.BS_FIXATION: (
        lambda i, j: Fraction(_sign(i, j) * factorial(i) * stirling_second(j, i), factorial(j)),
        lambda i, j: Fraction(_sign(i, j) * factorial(i) * stirling_first(j, i), factorial(j)),
    ),
    GeneratorKind.BS_BLOCK: (
        lambda i, j: Fraction(factorial(j - 1) * abs(stirling_first(i, j)), factorial(i - 1)),
        lambda i, j: Fraction(
            _sign(i, j) * factorial(j - 1) * stirling_second(i, j), factorial(i - 1)
        ),
    ),
    GeneratorKind.KINGMAN_FIXATION: (
        lambda i, j: Fraction(
            _sign(i, j) * factorial(j) * factorial(j - 1) * factorial(i + j),
            factorial(j - i) * factorial(i) * factorial(i - 1) * factorial(2 * j),
        ),
        lambda i, j: Fraction(
            factorial(j) * factorial(j - 1) * factorial(2 * i + 1),
            factorial(i) * factorial(i - 1) * factorial(j - i) * factorial(i + j + 1),
        ),
    ),
}


def closed_form_decomposition(kind: GeneratorKind, n: int) -> SpectralDecomposition:
    """Exact R, D, L from the closed-form Stirling / factorial expressions.

    Eigenvalues are read off the generator diagonal: -i for the
    Bolthausen-Sznitman fixation line, 1 - i for its block counting
    process, -i (i+1) / 2 for the Kingman fixation line.  The two
    Bolthausen-Sznitman kinds read Stirling numbers up to row n, so they
    raise ValueError for n > DEFAULT_NMAX before building anything.
    """
    if n < 1:
        raise ValueError(f"truncation size must be positive, got {n}")
    if kind is not GeneratorKind.KINGMAN_FIXATION and n > DEFAULT_NMAX:
        raise ValueError(
            f"closed-form {kind.value} decomposition needs Stirling numbers up to n = {n}, "
            f"past the table bound DEFAULT_NMAX = {DEFAULT_NMAX}"
        )
    r_entry, l_entry = _CLOSED_FORMS[kind]
    R = _triangular(n, kind.orientation, r_entry)
    L = _triangular(n, kind.orientation, l_entry)
    return SpectralDecomposition(kind, n, R, eigenvalues(kind, n), L)


def _right_eigenvectors(q: TriangularMatrix, d: Sequence[Fraction]) -> TriangularMatrix:
    """Unit-diagonal right eigenvectors of q, column j for eigenvalue d[j].

    r_jj = 1 and r_ij = sum_k q_ik r_kj / (d_j - d_i), with k running from
    j towards i (i excluded) and i stepping away from j: up the column
    for an upper triangular q, down it for a lower triangular one.  In
    integers: row i of q is G_i / c_i and d is D / delta, and column j is
    held as integers N over one denominator W.  Then r_ij is
    delta sum_k G_ik N_k over W c_i (D_j - D_i); dividing that numerator
    and f = c_i (D_j - D_i) by their gcd, W and every stored N_k take the
    reduced factor f.  Zero rates are skipped, so a bidiagonal q costs
    O(n^2) terms.
    """
    n = q.n
    G, c = _integer_scaled(q.rows)
    (D,), (delta,) = _integer_scaled([d])
    step = -1 if q.orientation == "upper" else 1
    stop = -1 if step < 0 else n
    R = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        N, W = [1], 1  # N[m] is the numerator of r_(j + m step, j)
        for i in range(j + step, stop, step):
            acc = sum(g * v for g, v in zip(G[i][j:i:step], N) if g)
            num, f = delta * acc, c[i] * (D[j] - D[i])
            h = math.gcd(num, f)
            f //= h
            N = [v * f for v in N]
            N.append(num // h)
            W *= f
        for m, v in enumerate(N):
            R[j + m * step][j] = Fraction(v, W)
    return TriangularMatrix(n, q.orientation, tuple(map(tuple, R)))


def recursive_decomposition(
    generator: TriangularMatrix,
    eigvals: Sequence[Fraction],
    kind: GeneratorKind,
) -> SpectralDecomposition:
    """R and L from the triangular eigenvector recursion, in exact rationals.

    Requires the eigenvalues (= generator diagonal) to be pairwise
    distinct; raises DegenerateSpectrumError otherwise.  One recursion
    serves both orientations: R holds the right eigenvectors of the
    generator Q, and L is the transpose of the right eigenvectors of Q^T
    (the left eigenvectors of Q).  Left and right eigenvectors of distinct
    eigenvalues are orthogonal and both factors have unit diagonals, so
    L R = I.
    """
    n = generator.n
    d = tuple(Fraction(v) for v in eigvals)
    if len(d) != n:
        raise ValueError("eigenvalue count must match matrix size")
    if len(set(d)) != n:
        raise DegenerateSpectrumError("repeated eigenvalues; recursion is singular")
    for i in range(1, n + 1):
        if generator.entry(i, i) != d[i - 1]:
            raise ValueError("eigenvalues must equal the generator diagonal")
    R = _right_eigenvectors(generator, d)
    L = _right_eigenvectors(generator.transpose(), d).transpose()
    return SpectralDecomposition(kind, n, R, d, L)


def _integer_scaled(vectors) -> tuple[list[list[int]], list[int]]:
    """Each vector times the lcm of its denominators: (integer vectors, lcms)."""
    scales = [math.lcm(*(v.denominator for v in vec)) for vec in vectors]
    ints = [[v.numerator * (s // v.denominator) for v in vec] for vec, s in zip(vectors, scales)]
    return ints, scales


def verify_decomposition(dec: SpectralDecomposition) -> VerificationReport:
    """Exact booleans: R L = I and R diag(D) L = generator truncation.

    With row i of R scaled by r_i, column j of L by l_j and D by delta
    (each the lcm of its denominators), entry (i, j) of R L times r_i l_j
    and of R diag(D) L times r_i delta l_j are integer sums, compared with
    the identity and the generator scaled alike.  Only k where both
    R[i][k] and L[k][j] can be nonzero (k between i and j for one
    orientation) enter the sums.
    """
    n = dec.n
    if not (dec.R.n == dec.L.n == len(dec.D) == n):
        raise ValueError("size mismatch")
    R, r = _integer_scaled(dec.R.rows)
    L, l = _integer_scaled(list(zip(*dec.L.rows)))  # columns of L
    (D,), (delta,) = _integer_scaled([dec.D])
    RD = [list(map(operator.mul, row, D)) for row in R]
    r_upper = dec.R.orientation == "upper"
    l_upper = dec.L.orientation == "upper"

    def terms(i: int, j: int) -> slice:
        lo = max(i if r_upper else 0, 0 if l_upper else j)
        hi = min(n - 1 if r_upper else i, j if l_upper else n - 1)
        return slice(lo, hi + 1)

    cells = [(i, j, terms(i, j)) for i in range(n) for j in range(n)]
    gen = build_generator(dec.kind, n).rows
    rl_ok = all(
        sum(map(operator.mul, R[i][k], L[j][k])) == (r[i] * l[j] if i == j else 0)
        for i, j, k in cells
    )
    rdl_ok = all(
        sum(map(operator.mul, RD[i][k], L[j][k])) * gen[i][j].denominator
        == r[i] * delta * l[j] * gen[i][j].numerator
        for i, j, k in cells
    )
    return VerificationReport(
        kind=dec.kind,
        n=dec.n,
        rl_is_identity=rl_ok,
        rdl_is_generator=rdl_ok,
    )
