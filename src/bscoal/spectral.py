"""Generator matrices and their exact triangular spectral decompositions.

All matrices in this module are 1-indexed n x n truncations of infinite
triangular matrices, stored as exact rationals.  Triangularity makes every
product of truncations equal the truncation of the product, so the
identities R L = I and R diag(D) L = generator hold exactly at any
truncation size.  They are checked in integer-scaled exact arithmetic,
first by the eigen-equations R D = Q R and L Q = D L (each column of R
and each row of L times the lcm of its denominators, against the
generator's small rates as integer rows over per-row scales), which prove
both identities when R and L are unit triangular in the generator's
orientation and D is its diagonal; any other decomposition goes to the
two triangle products, the one check that builds the ``Fraction``
generator.  One rate formula per kind serves both.  R and L
come from closed forms, built row by row from one factorial list and
one read of the Stirling rows, or from one eigenvector recursion that
serves both orientations (L from the recursion on the transpose).  The
recursion also runs on integers: it holds each column as integers over one
denominator and builds one ``Fraction`` per entry.  Generators, spectra,
closed forms, the recursion and the check take 1 <= n <= DEFAULT_NMAX.

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
from itertools import accumulate
from typing import Sequence

from .combinatorics import DEFAULT_NMAX, _stirling_rows

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


def _rate(kind: GeneratorKind, i: int, j: int) -> tuple[int, int]:
    """Rate q(i, j) of the untruncated generator as (numerator, denominator).

    The one statement of each kind's rates, which the ``Fraction``
    generator and the certificate's integer rows both read.  A
    Bolthausen-Sznitman jump of size m >= 1 (down for the block counting
    process, up for its fixation line) has rate i / (m (m+1)); the
    diagonal is minus the total rate, and a jump the chain cannot make is
    (0, 1).
    """
    if kind is GeneratorKind.KINGMAN_FIXATION:
        # pure birth at rate i (i+1) / 2
        if j == i + 1:
            return i * (i + 1), 2
        return (-i * (i + 1), 2) if j == i else (0, 1)
    block = kind is GeneratorKind.BS_BLOCK
    m = i - j if block else j - i
    if m > 0:
        return i, m * (m + 1)
    if m == 0:
        return (1 - i if block else -i), 1
    return 0, 1


def generator_entry(kind: GeneratorKind, i: int, j: int) -> Fraction:
    """Exact rate q(i, j) of the untruncated generator."""
    if i < 1 or j < 1:
        raise ValueError(f"states must be positive, got ({i}, {j})")
    return Fraction(*_rate(kind, i, j))


def _generator_rows(kind: GeneratorKind, n: int, transposed: bool = False) -> tuple[list, list]:
    """Rows of the truncated generator Q (or of Q^T) on its triangle, in integers.

    Row i (0-based) lists the entries at distance 0, 1, 2, ... from the
    diagonal into the triangle, up to its last nonzero one, times c_i, the
    lcm of their denominators: (rows, [c_i]).  Both come from ``_rate``
    with no ``Fraction``; Kingman's rows hold at most two entries.
    """
    upper = (kind.orientation == "upper") != transposed
    rows, scales = [], []
    for i in range(1, n + 1):
        others = range(i, n + 1) if upper else range(i, 0, -1)
        rates = [_rate(kind, k, i) if transposed else _rate(kind, i, k) for k in others]
        while len(rates) > 1 and not rates[-1][0]:
            rates.pop()
        c = math.lcm(*(den for _, den in rates))
        rows.append([num * (c // den) for num, den in rates])
        scales.append(c)
    return rows, scales


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


def _check_size(kind: GeneratorKind, n: int, what: str) -> None:
    """ValueError unless 1 <= n <= DEFAULT_NMAX, naming ``what`` is built."""
    if n < 1:
        raise ValueError(f"truncation size must be positive, got {n}")
    if n > DEFAULT_NMAX:
        raise ValueError(
            f"{kind.value} {what} at n = {n} is past the size bound DEFAULT_NMAX = {DEFAULT_NMAX}"
        )


def build_generator(kind: GeneratorKind, n: int) -> TriangularMatrix:
    """n x n truncation; diagonals keep their untruncated values.

    For the fixation kinds the truncation loses the upward mass beyond n,
    so row sums of the truncation are negative: that is intentional.
    Raises ValueError for n > DEFAULT_NMAX, as the closed forms do.
    """
    _check_size(kind, n, "generator")
    return _triangular(n, kind.orientation, lambda i, j: generator_entry(kind, i, j))


def eigenvalues(kind: GeneratorKind, n: int) -> tuple[Fraction, ...]:
    """Generator diagonal, which is the spectrum of any truncation.

    Raises ValueError unless 1 <= n <= DEFAULT_NMAX, as the generator does.
    """
    _check_size(kind, n, "spectrum")
    return tuple(generator_entry(kind, i, i) for i in range(1, n + 1))


def _closed_form_rows(kind: GeneratorKind, n: int) -> tuple[list, list]:
    """Rows of R and of L on the triangle, from one factorial list and one Stirling read.

    Row i (1-based) runs over j = i..n for the fixation kinds and over
    j = 1..i for the block kind; both factors are unit diagonal.
    """
    f = list(accumulate(range(1, 2 * n + 2), operator.mul, initial=1))  # f[m] = m!
    rows = range(1, n + 1)
    if kind is GeneratorKind.KINGMAN_FIXATION:
        R = [
            [
                Fraction(
                    (-1) ** (j - i) * f[j] * f[j - 1] * f[i + j],
                    f[j - i] * f[i] * f[i - 1] * f[2 * j],
                )
                for j in range(i, n + 1)
            ]
            for i in rows
        ]
        L = [
            [
                Fraction(
                    f[j] * f[j - 1] * f[2 * i + 1],
                    f[i] * f[i - 1] * f[j - i] * f[i + j + 1],
                )
                for j in range(i, n + 1)
            ]
            for i in rows
        ]
        return R, L
    s, S = _stirling_rows(n)  # s[m][k] = s(m, k), S[m][k] = S(m, k)
    if kind is GeneratorKind.BS_FIXATION:
        R = [[Fraction((-1) ** (j - i) * f[i] * S[j][i], f[j]) for j in range(i, n + 1)] for i in rows]
        L = [[Fraction((-1) ** (j - i) * f[i] * s[j][i], f[j]) for j in range(i, n + 1)] for i in rows]
        return R, L
    R = [[Fraction(f[j - 1] * abs(s[i][j]), f[i - 1]) for j in range(1, i + 1)] for i in rows]
    L = [[Fraction((-1) ** (i - j) * f[j - 1] * S[i][j], f[i - 1]) for j in range(1, i + 1)] for i in rows]
    return R, L


def _padded(n: int, orientation: str, rows: list) -> TriangularMatrix:
    """The triangle's rows (row i holding its on-triangle entries) as an n x n matrix."""
    zero = Fraction(0)
    if orientation == "upper":
        full = tuple((zero,) * i + tuple(row) for i, row in enumerate(rows))
    else:
        full = tuple(tuple(row) + (zero,) * (n - 1 - i) for i, row in enumerate(rows))
    return TriangularMatrix(n, orientation, full)


def closed_form_decomposition(kind: GeneratorKind, n: int) -> SpectralDecomposition:
    """Exact R, D, L from the closed-form Stirling / factorial expressions.

    Eigenvalues are read off the generator diagonal: -i for the
    Bolthausen-Sznitman fixation line, 1 - i for its block counting
    process, -i (i+1) / 2 for the Kingman fixation line.  With
    (-1)^(i+j) written e_ij, the entries on the triangle are

    * Bolthausen-Sznitman fixation line: R_ij = e_ij i! S(j, i) / j! and
      L_ij = e_ij i! s(j, i) / j!;
    * its block counting process: R_ij = (j-1)! |s(i, j)| / (i-1)! and
      L_ij = e_ij (j-1)! S(i, j) / (i-1)!;
    * Kingman fixation line:
      R_ij = e_ij j! (j-1)! (i+j)! / ((j-i)! i! (i-1)! (2j)!) and
      L_ij = j! (j-1)! (2i+1)! / (i! (i-1)! (j-i)! (i+j+1)!).

    Each row is built from one list of factorials up to (2n+1)! and one
    read of the Stirling rows.  Every kind raises ValueError for
    n > DEFAULT_NMAX before building anything.
    """
    _check_size(kind, n, "closed-form decomposition")
    R, L = _closed_form_rows(kind, n)
    return SpectralDecomposition(
        kind,
        n,
        _padded(n, kind.orientation, R),
        eigenvalues(kind, n),
        _padded(n, kind.orientation, L),
    )


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
    _check_size(kind, n, "recursive decomposition")
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


def _eigen_equations_hold(rows, scales, upper: bool, D, delta: int, vectors) -> bool:
    """Whether q v_j = d_j v_j for each v_j = vectors[j], d_j = D[j] / delta.

    Row i of q is rows[i] / scales[i], from ``_generator_rows`` (upper
    triangular when ``upper``).  Each v_j lies on column j's side of q's
    triangle, as a column of R does, so row i of the equation reads
    sum_k q_ik v_jk = d_j v_ji with k running from i to j.  Its part on the
    triangle, ordered so that every row's terms are a run starting at
    v_ji (reversed for a lower q), is scaled to integers N by the lcm of
    its denominators (the equation is homogeneous); then it is
    delta sum_m G_im N_(x+m) = c_i D_j N_x, with x the place of v_ji:
    small rates times one big integer each, and no more terms than row i
    holds rates.
    """
    if not upper:  # row i's terms start at place n - 1 - i of the reversed vector
        rows, scales = rows[::-1], scales[::-1]
    for j, v in enumerate(vectors):
        ratios = [x.as_integer_ratio() for x in (v[: j + 1] if upper else v[j:][::-1])]
        lcm = math.lcm(*(den for _, den in ratios))
        N = [num * (lcm // den) for num, den in ratios]
        Dj = D[j]
        for x, g, c in zip(range(len(N) - 1), rows, scales):
            if delta * sum(map(operator.mul, g, N[x : x + len(g)])) != c * Dj * N[x]:
                return False
    return True


def _certified(dec: SpectralDecomposition) -> bool:
    """True only if R L = I and R diag(D) L = Q, by the eigen-equations.

    It applies when R and L are unit triangular in the generator's
    orientation and D is the generator's diagonal (distinct for every
    kind), and then checks R D = Q R and L Q = D L, against the integer
    rows of Q and of Q^T.  These make L R commute with diag(D), so L R is
    diagonal; being unit triangular, it is I.  Hence R L = I and
    R D L = Q R L = Q.  False means "not shown", not "fails".
    """
    n, kind = dec.n, dec.kind
    R, L = dec.R.rows, dec.L.rows
    if not dec.R.orientation == dec.L.orientation == kind.orientation:
        return False
    if any(R[i][i] != 1 or L[i][i] != 1 for i in range(n)):
        return False
    (D,), (delta,) = _integer_scaled([dec.D])
    G, c = _generator_rows(kind, n)
    if any(d * ci != g[0] * delta for d, g, ci in zip(D, G, c)):
        return False
    upper = kind.orientation == "upper"
    GT, cT = _generator_rows(kind, n, transposed=True)
    return _eigen_equations_hold(G, c, upper, D, delta, list(zip(*R))) and _eigen_equations_hold(
        GT, cT, not upper, D, delta, L
    )


def _products_hold(dec: SpectralDecomposition, gen: TriangularMatrix) -> tuple[bool, bool]:
    """(R L = I, R diag(D) L = gen), each by its triangle product.

    With row i of R scaled by r_i, column j of L by l_j and D by delta
    (each the lcm of its denominators), entry (i, j) of R L times r_i l_j
    and of R diag(D) L times r_i delta l_j are integer sums, compared with
    the identity and the generator scaled alike.  Only k where both
    R[i][k] and L[k][j] can be nonzero (k between i and j for one
    orientation) enter the sums.
    """
    n = dec.n
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
    q = gen.rows
    rl_ok = all(
        sum(map(operator.mul, R[i][k], L[j][k])) == (r[i] * l[j] if i == j else 0)
        for i, j, k in cells
    )
    rdl_ok = all(
        sum(map(operator.mul, RD[i][k], L[j][k])) * q[i][j].denominator
        == r[i] * delta * l[j] * q[i][j].numerator
        for i, j, k in cells
    )
    return rl_ok, rdl_ok


def verify_decomposition(dec: SpectralDecomposition) -> VerificationReport:
    """Exact booleans: R L = I and R diag(D) L = generator truncation.

    First the eigen-equations R D = Q R and L Q = D L are checked over
    integer-scaled columns of R and rows of L against the integer rows of
    the generator and of its transpose (``_certified``); when R and L are
    unit triangular in the kind's orientation and D is the generator
    diagonal, they prove both identities.  Anything else (another scaling
    of the eigenvectors, a wrong D, a factor that fails its equation) goes
    to the two triangle products in integer-scaled arithmetic, against
    the ``Fraction`` generator, which say which identity fails.  Raises
    ValueError for n > DEFAULT_NMAX before any work.
    """
    n = dec.n
    if not (dec.R.n == dec.L.n == len(dec.D) == n):
        raise ValueError("size mismatch")
    _check_size(dec.kind, n, "generator")
    if _certified(dec):
        rl_ok, rdl_ok = True, True
    else:
        rl_ok, rdl_ok = _products_hold(dec, build_generator(dec.kind, n))
    return VerificationReport(
        kind=dec.kind,
        n=dec.n,
        rl_is_identity=rl_ok,
        rdl_is_generator=rdl_ok,
    )
