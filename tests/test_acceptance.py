"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria are stated where the exact laws can meet them:

- criterion 7 asserts the Gumbel-limit bound 0.02 at n = 10^8. The gap
  to the limit is the expansion's first-order term
  c_1 d_1i(x) e^{-x} / log n, which is 0.271 / log n at (i=3, x=-1), so
  no exact computation meets 0.02 at n = 10^6 (worst gap 0.0233 there,
  0.0168 at 10^8). The test also checks that the gap shrinks from 10^6
  to 10^8 at every grid point;
- criterion 10's fixation half orders KS distances over n in {10, 30, 100}
  at 10^5 draws (levels about 0.070, 0.021, 0.0071). The KS noise floor
  is about 0.87/sqrt(m), 0.0027 at m = 10^5, and beyond n = 100 the
  scaled fixation marginal is inside it, so larger n cannot be ordered
  at an affordable m. n = 10^4 is kept as a bound: its KS distance at
  10^4 draws must lie below the one-sample Kolmogorov 0.999 critical
  value 1.95/sqrt(m) against the exact limit CDF.
"""

import io
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import bscoal as b
from bscoal.cli import run as cli_run


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:2d}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


HITTING_EXACT = [
    Fraction(1), Fraction(1, 2), Fraction(5, 12), Fraction(3, 8),
    Fraction(251, 720), Fraction(95, 288), Fraction(19087, 60480),
]


def test_criterion_01_spectral_exactness():
    ok = True
    details = []
    for kind in b.GeneratorKind:
        t0 = time.time()
        rep = b.verify_decomposition(b.closed_form_decomposition(kind, 30))
        dt = time.time() - t0
        ok &= rep.ok and dt < 5.0
        details.append(f"{kind.value}: ok={rep.ok} {dt:.1f}s")
    _report(1, "closed-form R L = I and R D L = generator, n=30", ok, "; ".join(details))
    assert ok


def test_criterion_02_recursion_matches_closed_form():
    ok = True
    for kind in b.GeneratorKind:
        gen = b.build_generator(kind, 30)
        eig = tuple(b.generator_entry(kind, i, i) for i in range(1, 31))
        rec = b.recursive_decomposition(gen, eig, kind)
        closed = b.closed_form_decomposition(kind, 30)
        ok &= rec.R.rows == closed.R.rows and rec.L.rows == closed.L.rows
    _report(2, "eigenvector recursions equal closed forms entrywise, n=30", ok)
    assert ok


def test_criterion_03_hitting_exact_values():
    conv = [b.hitting_probability(1, j) for j in range(1, 8)]
    stir = [b.hitting_probability(1, j, b.HittingMethod.STIRLING_DOUBLE) for j in range(1, 8)]
    quad_err = max(
        abs(b.hitting_probability(1, j, b.HittingMethod.INTEGRAL) - float(HITTING_EXACT[j - 1]))
        for j in range(1, 8)
    )
    ok = conv == HITTING_EXACT and stir == HITTING_EXACT and quad_err < 1e-9
    _report(3, "h(1,1..7) exact by two methods, quadrature to 1e-9", ok,
            f"quad err {quad_err:.1e}")
    assert ok


def test_criterion_04_hitting_asymptotics():
    j = 10**6
    h = b.hitting_probability(1, j, b.HittingMethod.INTEGRAL)
    const = abs(h - b.hitting_asymptotic(j)) * math.log(j) ** 3
    ok = const <= 10.0
    _report(4, "two-term asymptotic at j=1e6, scaled residual <= 10", ok,
            f"residual*log^3 = {const:.3f}")
    assert ok


def test_criterion_05_transition_formulas():
    worst_pair = 0.0
    for t in (0.1, 0.5, 1.0, 3.0):
        tp = b.TimePoint.from_time(t)
        for i in range(1, 31):
            for j in range(i, 31):
                d = abs(
                    b.fixation_transition(i, j, tp)
                    - b.fixation_transition(i, j, tp, formula="binomial")
                )
                worst_pair = max(worst_pair, d)
    tp = b.TimePoint.from_time(1.0)
    z = 0.5
    worst_pgf = max(
        abs(
            math.fsum(b.fixation_transition(i, j, tp) * z**j for j in range(i, 200))
            - b.fixation_pgf(i, tp, z)
        )
        for i in (1, 2, 3)
    )
    s, u = 0.4, 0.6
    tps, tpu, tpsu = map(b.TimePoint.from_time, (s, u, s + u))
    worst_ck = max(
        abs(
            b.fixation_transition(i, j, tpsu)
            - math.fsum(
                b.fixation_transition(i, k, tps) * b.fixation_transition(k, j, tpu)
                for k in range(i, j + 1)
            )
        )
        for i in (1, 2, 5)
        for j in range(i, 31)
    )
    ok = worst_pair < 1e-10 and worst_pgf < 1e-8 and worst_ck < 1e-8
    _report(5, "two transition forms 1e-10; pgf 1e-8; Chapman-Kolmogorov 1e-8", ok,
            f"pair {worst_pair:.1e}, pgf {worst_pgf:.1e}, ck {worst_ck:.1e}")
    assert ok


def test_criterion_06_absorption_cdf():
    t0 = time.time()
    exact_ok = all(
        abs(b.absorption_cdf(2, 1, t) - (1 - math.exp(-t))) < 1e-12
        for t in (0.3, 1.0, 2.7)
    )
    taus = b.sample_absorption_times(50, 1, 10**5, b.replicate_rng(0))
    mc_ok = True
    zs = []
    for t in (0.5, 1.0, 2.0):
        p = b.absorption_cdf(50, 1, t)
        se = math.sqrt(p * (1 - p) / taus.size)
        z = ((taus <= t).mean() - p) / se
        zs.append(f"{z:+.2f}")
        mc_ok &= abs(z) < 3
    dt = time.time() - t0
    ok = exact_ok and mc_ok and dt < 60
    _report(6, "absorption CDF exact at (2,1); MC n=50 within 3 sigma", ok,
            f"z = {', '.join(zs)}, {dt:.1f}s")
    assert ok


def test_criterion_07_gumbel_limit():
    grid = [(i, x) for i in (1, 2, 3) for x in (-1, 0, 1, 2)]
    errs = {}
    for n in (10**6, 10**8):
        lln = math.log(math.log(n))
        errs[n] = {
            (i, x): abs(b.absorption_cdf(n, i, x + lln) - b.gumbel_limit_cdf(i, x))
            for i, x in grid
        }
    # 10^8, not 10^6: the first-order term alone is 0.271 / log n at (3, -1)
    over = [f"(i={i},x={x}): {errs[10**8][i, x]:.4f}" for i, x in grid
            if errs[10**8][i, x] > 0.02]
    stalled = [f"(i={i},x={x})" for i, x in grid
               if not errs[10**8][i, x] < errs[10**6][i, x]]
    worst = {n: max(e.values()) for n, e in errs.items()}
    ok = not over and not stalled
    _report(7, "Gumbel limit within 0.02 at n=1e8, i<=3, x in {-1..2}; "
            "error falls from n=1e6", ok,
            f"worst {worst[10**6]:.4f} -> {worst[10**8]:.4f}"
            + ("; over: " + "; ".join(over) if over else "")
            + ("; not falling: " + ", ".join(stalled) if stalled else ""))
    assert ok


def test_criterion_08_edgeworth():
    c = b.edgeworth_c(3)
    c_ok = (
        abs(c[1] + 0.577216) < 1e-5
        and abs(c[2] + 0.655878) < 1e-5
        and abs(c[3] - 0.042003) < 1e-5
    )
    n = 10**4
    lln = math.log(math.log(n))
    order_ok = True
    for x in (-1.0, 0.0, 1.0):
        exact = b.absorption_cdf(n, 1, x + lln)
        e = [abs(b.edgeworth_cdf(n, 1, x, K) - exact) for K in (0, 1, 2)]
        order_ok &= e[1] < e[0] and e[2] < e[1]
    ok = c_ok and order_ok
    _report(8, "c_1..c_3 to 1e-5; expansion error strictly improves with order", ok)
    assert ok


def test_criterion_09_limit_samplers():
    reps = 10**5
    ok = True
    worst_z = 0.0
    for alpha in (0.3, 0.5, 0.8):
        tp = b.TimePoint.from_alpha(alpha)
        x = b.sample_mittag_leffler(tp, b.replicate_rng(900), size=reps)
        for m in (1, 2, 3):
            xm = x**m
            z = abs(xm.mean() - b.ml_moment(tp, m)) / (xm.std() / math.sqrt(reps))
            worst_z = max(worst_z, z)
            ok &= z < 4
        y = b.sample_neveu(tp, b.replicate_rng(901), size=reps)
        for lam in (0.5, 1.0, 2.0):
            e = np.exp(-lam * y)
            z = abs(e.mean() - math.exp(-(lam**alpha))) / (e.std() / math.sqrt(reps))
            worst_z = max(worst_z, z)
            ok &= z < 4
    _report(9, "sampler moments and Laplace transforms within 4 sigma", ok,
            f"worst |z| = {worst_z:.2f}")
    assert ok


def _ks_over_grid(
    process: str, t: float, seed: int, stream_base: int, grid: list[tuple[int, int]]
) -> list[float]:
    """One-sample KS distance to the exact limit CDF for each (n, draws) in grid.

    The k-th grid point draws from stream stream_base + k.
    """
    tp = b.TimePoint.from_time(t)
    law = b.mittag_leffler_cdf if process == "block" else b.neveu_cdf
    out = []
    for idx, (n, draws) in enumerate(grid, start=stream_base + 1):
        s = b.scaled_marginal_sample(process, n, t, draws, b.replicate_rng(seed, idx))
        out.append(b.ks_distance(s, lambda x: law(tp, x)))
    return out


def test_criterion_10_block_ks_monotone():
    t0 = time.time()
    ks = _ks_over_grid("block", 1.0, 0, 0, [(n, 10**4) for n in (100, 1000, 10000)])
    dt = time.time() - t0
    ok = ks[0] > ks[1] > ks[2] and dt < 600
    _report(10, "block scaled-marginal KS decreases over n=1e2,1e3,1e4", ok,
            f"ks = {ks[0]:.4f}, {ks[1]:.4f}, {ks[2]:.4f}; {dt:.0f}s")
    assert ok


def test_criterion_10_fixation_ks_monotone():
    t0 = time.time()
    # levels about 0.070, 0.021, 0.0071; past n = 100 they sink under the
    # KS noise floor 0.87/sqrt(draws), so the ordering stops at n = 100
    grid = [(10, 10**5), (30, 10**5), (100, 10**5), (10**4, 10**4)]
    ks = _ks_over_grid("fixation", 0.5, 0, 100, grid)
    m = grid[-1][1]
    crit = 1.95 / math.sqrt(m)  # one-sample Kolmogorov 0.999 quantile
    dt = time.time() - t0
    ok = ks[0] > ks[1] > ks[2] and ks[3] < crit and dt < 600
    _report(10, "fixation scaled-marginal KS decreases over n=10,30,100; "
            "n=1e4 below the 0.999 critical value", ok,
            f"ks = {ks[0]:.4f}, {ks[1]:.4f}, {ks[2]:.4f}; n=1e4 {ks[3]:.4f} vs bound {crit:.4f}; "
            f"{dt:.0f}s")
    assert ok


def test_criterion_11_siegmund_duality():
    tp = b.TimePoint.from_time(1.0)
    # tail functional vs the complement of the transition row, truncated
    tail = 1.0 - math.fsum(b.fixation_transition(3, j, tp) for j in range(3, 10))
    analytic_ok = abs(b.block_tail_via_duality(10, 3, tp) - tail) < 1e-8
    reps = 10**5
    gap = b.siegmund_duality_gap(1.0, 1.0, 1.0, reps, b.replicate_rng(1100))
    gap_ok = abs(gap) < 3 * math.sqrt(0.5 / reps)
    ok = analytic_ok and gap_ok
    _report(11, "duality tail matches transition row; continuum gap within 3 sigma",
            ok, f"gap = {gap:+.5f}")
    assert ok


def test_criterion_12_pow_inequality_grid():
    violations = sum(
        not b.check_pow_inequality(x / 100.0, a / 100.0)
        for x in range(0, 1001)
        for a in range(0, 101)
    )
    ok = violations == 0
    _report(12, "power inequality on the full 0.01-step grid", ok,
            f"{violations} violations")
    assert ok


def test_criterion_13_cli_reproducibility(capsys):
    argv_sim = ["simulate", "--method", "block-marginal", "--n", "40", "--t", "1.0",
                "--reps", "500", "--seed", "11"]
    argv_con = ["converge", "--method", "block", "--n", "50,100", "--t", "1.0",
                "--reps", "300", "--seed", "11"]
    outputs = []
    for argv in (argv_sim, argv_sim, argv_con, argv_con):
        code = cli_run(argv)
        outputs.append(capsys.readouterr().out)
        assert code == 0
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    _report(13, "seeded CLI runs are byte-identical", ok)
    assert ok
