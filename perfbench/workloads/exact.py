"""`exact`: exact-rational closed forms, every cache cold.

Nearly all time is bigint and Fraction work in combinatorics, spectral
and the exact half of analytics; simulate is idle.  Inputs are fixed
grids, so every job's "num/den" strings are compared with a stored
digest, and the paper's rationals are checked by value.

Jobs named after a ROADMAP Baseline row reproduce that row, scaled where
the row takes more than a few seconds:
  verify_decomposition n=30                       -> verify_decomposition.n30
  verify_decomposition n=100 (2.5-3.3 s)          -> verify_decomposition.n60
  fixation_transition (stirling), 30x30 grid      -> fixation_transition.stirling.grid30
  criterion 5 (8.5 s)                             -> the same grid at its four t
  test_pgf_partial_sum (4.6 s, i in {1,3}, j<200) -> pgf_partial_sum: i = 1, j <= 100
  hitting convolution d=500, cold (3.8 s)         -> hitting_probability.convolution: d <= 400
  hitting gf-series j=500 (3.7 s)                 -> hitting_gf_coefficients: J = 301
"""

import math

import bscoal.combinatorics as combinatorics
from bscoal.analytics import HittingMethod
from bscoal.spectral import GeneratorKind

from . import frac, registry

JOBS, job = registry()

KINDS = tuple(GeneratorKind)
TRANSITION_TIMES = (0.1, 0.5, 1.0, 3.0)
CONVOLUTION_D = 400
SHIFT_D = 120
DOUBLE_D = 60
PGF_J = 100
GF_J = 301
# Largest Stirling row any job reads: the shift method at d uses row d + 1.
STIRLING_N = SHIFT_D + 1

# h(1, j) as printed in the paper.
PAPER_HITTING = {2: "1/2", 3: "5/12", 4: "3/8", 7: "19087/60480"}


def _bits(values) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _exact_result(ctx, values) -> None:
    if ctx.traced:
        ctx.peak("combinatorics.result_bits", _bits(values))


@job("combinatorics.stirling_table", smoke=True)
def stirling_table(ctx):
    """Grow both Stirling tables, cold, to the largest row the jobs read."""
    n = STIRLING_N
    ctx.attempt(2)
    with ctx.layer_span("combinatorics.stirling_table"):
        s1 = combinatorics.stirling_first(n, 1)
        s2 = combinatorics.stirling_second(n, n - 1)
    ctx.check(s1 == (-1) ** (n - 1) * math.factorial(n - 1), f"s({n},1) = {s1}")
    ctx.check(s2 == math.comb(n, 2), f"S({n},{n - 1}) = {s2}")


def _decompose_and_verify(ctx, n):
    sp = ctx.L.spectral
    parts = []
    for kind in KINDS:
        ctx.attempt(2)
        dec = sp.closed_form_decomposition(kind, n)
        report = sp.verify_decomposition(dec)
        ctx.check(
            report.ok,
            f"{kind.value} n={n}: RL=I {report.rl_is_identity}, RDL=Q {report.rdl_is_generator}",
        )
        entries = [v for row in dec.R.rows for v in row]
        entries += list(dec.D)
        entries += [v for row in dec.L.rows for v in row]
        parts.extend(frac(v) for v in entries)
        ctx.count("spectral.entries", len(entries))
        _exact_result(ctx, entries)
        ctx.state[(kind, n)] = dec
    ctx.expect_digest(f"decomposition.n{n}", parts)


@job("verify_decomposition.n20", smoke=True)
def verify_n20(ctx):
    _decompose_and_verify(ctx, 20)


@job("verify_decomposition.n30")
def verify_n30(ctx):
    _decompose_and_verify(ctx, 30)


@job("verify_decomposition.n40")
def verify_n40(ctx):
    _decompose_and_verify(ctx, 40)


@job("verify_decomposition.n60")
def verify_n60(ctx):
    _decompose_and_verify(ctx, 60)


@job("recursive_decomposition.n40")
def recursive_n40(ctx):
    """Triangular eigenvector recursion, entry by entry against the closed form."""
    sp = ctx.L.spectral
    n = 40
    for kind in KINDS:
        ctx.attempt(3)
        gen = sp.build_generator(kind, n)
        dec = sp.recursive_decomposition(gen, sp.eigenvalues(kind, n), kind)
        closed = ctx.state[(kind, n)]
        ctx.check(dec.R.rows == closed.R.rows, f"{kind.value}: recursive R differs from closed form")
        ctx.check(dec.L.rows == closed.L.rows, f"{kind.value}: recursive L differs from closed form")
        ctx.check(dec.D == closed.D, f"{kind.value}: eigenvalues differ")
        ctx.count("spectral.entries", 2 * n * n + n)


@job("fixation_transition.stirling.grid30", smoke=True)
def transition_grid(ctx):
    """p_ij(t) for 1 <= i <= j <= 30 by the exact double Stirling sum."""
    an = ctx.L.analytics
    parts = []
    for t in TRANSITION_TIMES:
        tp = an.TimePoint.from_time(t)
        for i in range(1, 31):
            row = []
            for j in range(i, 31):
                row.append(an.fixation_transition(i, j, tp))
            ctx.attempt(len(row))
            ctx.check(all(0.0 <= p <= 1.0 for p in row), f"t={t} i={i}: p outside [0,1]")
            ctx.check(math.fsum(row) <= 1.0 + 1e-12, f"t={t} i={i}: row mass {math.fsum(row)}")
            parts.extend(repr(p) for p in row)
        p11 = an.fixation_transition(1, 1, tp)
        ctx.attempt()
        ctx.check(abs(p11 - tp.alpha) <= 1e-15, f"p_11({t}) = {p11}, want e^-t")
    ctx.expect_digest("fixation_transition.stirling.grid30", parts)


@job("pgf_partial_sum")
def pgf_partial_sum(ctx):
    """sum_j p_1j(1) z^j over j <= 100 against the closed-form pgf at z = 1/2."""
    an = ctx.L.analytics
    tp = an.TimePoint.from_time(1.0)
    z = 0.5
    probs = [an.fixation_transition(1, j, tp) for j in range(1, PGF_J + 1)]
    pgf = an.fixation_pgf(1, tp, z)
    ctx.attempt(len(probs) + 1)
    part = math.fsum(p * z**j for j, p in enumerate(probs, start=1))
    ctx.check(abs(part - pgf) <= 1e-12, f"partial sum {part} vs pgf {pgf}")
    ctx.expect_digest("pgf_partial_sum", [repr(p) for p in probs])


@job("hitting_probability.convolution")
def hitting_convolution(ctx):
    """h(1, 1+d) for d = 1..400 in ascending order: the renewal cache fills cold."""
    an = ctx.L.analytics
    values = [an.hitting_probability(1, 1 + d) for d in range(1, CONVOLUTION_D + 1)]
    ctx.attempt(len(values))
    for j, want in PAPER_HITTING.items():
        ctx.check(frac(values[j - 2]) == want, f"h(1,{j}) = {frac(values[j - 2])}, paper {want}")
    ctx.check(all(a > b for a, b in zip(values, values[1:])), "h(1, j) not decreasing in j")
    _exact_result(ctx, values)
    ctx.state["convolution"] = values
    ctx.expect_digest("hitting_probability.convolution", [frac(v) for v in values])


@job("hitting_probability.stirling")
def hitting_stirling(ctx):
    """Both Stirling sums must equal the convolution exactly."""
    an = ctx.L.analytics
    conv = ctx.state["convolution"]
    for d in range(1, SHIFT_D + 1):
        v = an.hitting_probability(1, 1 + d, HittingMethod.STIRLING_SHIFT)
        ctx.check(v == conv[d - 1], f"stirling-shift d={d} differs from convolution")
    for i in (1, 3):
        for d in range(1, DOUBLE_D + 1):
            v = an.hitting_probability(i, i + d, HittingMethod.STIRLING_DOUBLE)
            ctx.check(v == conv[d - 1], f"stirling-double i={i} d={d} differs from convolution")
    ctx.attempt(SHIFT_D + 2 * DOUBLE_D)


@job("hitting_gf_coefficients")
def hitting_gf(ctx):
    """Power-series coefficients up to J = 301 against the exact convolution."""
    an = ctx.L.analytics
    coeffs = an.hitting_gf_coefficients(1, GF_J)
    ctx.attempt()
    conv = ctx.state["convolution"]
    ctx.check(len(coeffs) == GF_J, f"{len(coeffs)} coefficients")
    worst = max(abs(c - float(h)) for c, h in zip(coeffs[1:], conv))
    ctx.check(worst <= 1e-13, f"gf coefficients differ from convolution by {worst}")
    ctx.expect_digest("hitting_gf_coefficients", [repr(c) for c in coeffs])
