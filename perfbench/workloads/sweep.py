"""`sweep`: float closed forms at the scale of a plotting sweep.

The same analytics module as `exact`, used with floats instead of
bigints: ~10^5 survival sums plus Edgeworth, quadrature, binomial and
limit-law closed forms.  No numpy sampling and no bigints run here, so
robustness guards and positive-term routes show their cost here and
nowhere else.

Checks: a fixed subset of every family against reference values computed
once with mpmath at high precision (stored in reference.json), plus
[0, 1] range, monotonicity in t and absorption_cdf == block_tail_via_duality
on the dense grid.  Every stored reference row must be met by the grid.
An input that raised NumericInstabilityError or was off its reference
when the benchmark was defined (ROADMAP item 3) is listed in
reference.json; on those inputs a raise or a wrong value is counted, not
failed.  A raise or a wrong value anywhere else fails.
"""

import math
import sys

import numpy as np
from bscoal.analytics import HittingMethod, NumericInstabilityError

from . import registry

JOBS, job = registry()

NS = tuple(10**k for k in range(2, 7))
COARSE_I = (1, 2, 5, 10, 20, 50, 100)
COARSE_T = tuple(round(0.1 * k, 10) for k in range(1, 41))
DENSE_I = (1, 2, 5, 10)
DENSE_T = tuple(round(0.0005 * k, 10) for k in range(1, 8001))
EDGEWORTH_N = (10**2, 10**3, 10**4, 10**6)
EDGEWORTH_I = (1, 2, 5)
EDGEWORTH_X = tuple(round(-2.0 + 0.05 * k, 10) for k in range(121))
EDGEWORTH_K = tuple(range(7))
TRANSITION_T = (0.1, 0.5, 1.0, 3.0)
MARGINAL_T = (0.5, 1.0, 2.0)
MARGINAL_J = 20_000

# Accuracy the float routes are held to, against the mpmath references.
# The survival sum differences log-gammas of size ~n log n, so even i = 1
# carries relative errors near 1e-9 at n = 1e6; 1e-6 is six correct
# decimals, enough for any plot, and far below the errors ROADMAP item 3
# describes (absorption_cdf(1e6, 100, 2.0) is off by 9e-5).
TOL_ABSORPTION = 1e-6
TOL_ABS = 1e-9  # transition probabilities, Edgeworth values
TOL_REL = 1e-10  # marginal pmf, moments, cumulants, Laplace transforms


def transition_points():
    """(t, i, j) of the binomial transition job: i <= j <= 30, and the row i = 60."""
    points = [(t, i, j) for t in TRANSITION_T for i in range(1, 31) for j in range(i, 31)]
    return points + [(1.0, 60, j) for j in range(60, 71)]


def _hitting_js():
    return tuple(int(j) for j in np.unique(np.logspace(0.3, 6.0, 12000).astype(np.int64)) if j >= 2)


def _rel_ok(got, want):
    return abs(got - want) <= TOL_REL * max(abs(want), 1e-300)


def _all_matched(ctx, name, seen, ref, exempt=frozenset()):
    """Every stored reference row, bar the exempt ones, was compared with a result."""
    missing = set(ref) - seen - exempt
    ctx.check(not missing, f"{name}: {len(missing)} reference rows never met the grid, e.g. {sorted(missing)[:3]}")


def _pinned(ctx, key):
    """Inputs listed in reference.json as failing when the benchmark was defined."""
    return {tuple(p) for p in ctx.ref(key)}


def _call(fn, *args):
    try:
        return fn(*args)
    except NumericInstabilityError:
        return None


@job("absorption_cdf.grid", smoke=True)
def absorption_grid(ctx):
    """1400 points n x i x t, every one against its mpmath value."""
    an = ctx.L.analytics
    ref = {(n, i, t): v for n, i, t, v in ctx.ref("absorption")}
    known_wrong = _pinned(ctx, "absorption_known_wrong")
    known_raised = _pinned(ctx, "absorption_raised")
    tps = {t: an.TimePoint.from_time(t) for t in COARSE_T}
    for n in NS:
        for i in COARSE_I:
            for t in COARSE_T:
                ctx.attempt(2)
                v = _call(an.absorption_cdf, n, i, t)
                w = _call(an.block_tail_via_duality, n, i, tps[t])
                ctx.check(v == w, f"absorption_cdf {v} != block_tail_via_duality {w} at {(n, i, t)}")
                if v is None:
                    if (n, i, t) in known_raised:
                        ctx.known_failure("analytics.absorption_cdf.raised")
                    else:
                        ctx.check(False, f"absorption_cdf{(n, i, t)} raised NumericInstabilityError")
                    continue
                want = ref[(n, i, t)]
                if abs(v - want) <= TOL_ABSORPTION:
                    continue
                if (n, i, t) in known_wrong:
                    ctx.known_failure("analytics.absorption_cdf.wrong")
                else:
                    ctx.check(False, f"absorption_cdf{(n, i, t)} = {v!r}, mpmath {want!r}")


@job("absorption_cdf.dense")
def absorption_dense(ctx):
    """320k survival sums on a dense t-grid: range, monotone in t, both
    signatures agree.  None of these inputs raised when the benchmark was
    defined, so a raise here fails."""
    an = ctx.L.analytics
    tps = [an.TimePoint.from_time(t) for t in DENSE_T]
    for n in NS:
        for i in DENSE_I:
            row = np.empty(len(DENSE_T))
            raised = 0
            for k, t in enumerate(DENSE_T):
                a = _call(an.absorption_cdf, n, i, t)
                b = _call(an.block_tail_via_duality, n, i, tps[k])
                if a is None or b is None:
                    raised += 1
                    row[k] = np.nan
                else:
                    row[k] = a if a == b else -1.0
            ctx.attempt(2 * len(DENSE_T))
            ctx.check(raised == 0, f"n={n} i={i}: {raised} points raised NumericInstabilityError")
            ok = row[~np.isnan(row)]
            ctx.check(bool((ok >= 0.0).all() and (ok <= 1.0).all()), f"n={n} i={i}: value outside [0,1] or signatures differ")
            # A drop of more than twice the tolerance puts a value off its reference.
            ctx.check(bool((np.diff(ok) >= -2 * TOL_ABSORPTION).all()), f"n={n} i={i}: CDF decreases in t")


@job("edgeworth_cdf")
def edgeworth(ctx):
    """Orders K = 0..6; K = 0 is the Gumbel-min limit exactly."""
    an = ctx.L.analytics
    ref = {(n, i, x, K): v for n, i, x, K, v in ctx.ref("edgeworth")}
    seen = set()
    for n in EDGEWORTH_N:
        for i in EDGEWORTH_I:
            for x in EDGEWORTH_X:
                vals = [an.edgeworth_cdf(n, i, x, K) for K in EDGEWORTH_K]
                ctx.attempt(len(vals) + 1)
                g = an.gumbel_limit_cdf(i, x)
                ctx.check(abs(vals[0] - g) <= 1e-13, f"K=0 at {(n, i, x)}: {vals[0]} vs Gumbel {g}")
                for K, v in enumerate(vals):
                    want = ref.get((n, i, x, K))
                    if want is not None:
                        seen.add((n, i, x, K))
                        ctx.check(abs(v - want) <= TOL_ABS, f"edgeworth{(n, i, x, K)} = {v!r}, mpmath {want!r}")
    _all_matched(ctx, "edgeworth", seen, ref)


@job("hitting_probability.integral")
def hitting_integral(ctx):
    """Gauss-Legendre hitting probabilities up to j = 1e6 against the asymptote."""
    an = ctx.L.analytics
    ref = {j: v for j, v in ctx.ref("hitting_integral")}
    seen = set()
    for j in sorted(set(_hitting_js()) | set(ref)):
        h = an.hitting_probability(1, j, HittingMethod.INTEGRAL)
        ctx.attempt()
        want = ref.get(j)
        if want is not None:
            seen.add(j)
            # The integrand differences log-gammas of size ~j log j.
            tol = 4 * sys.float_info.epsilon * math.lgamma(j) + 1e-12
            ctx.check(abs(h - want) <= tol * want, f"h(1,{j}) = {h!r}, mpmath {want!r}")
        if j >= 100:
            a = an.hitting_asymptotic(j)
            ctx.attempt()
            lj = math.log(j)
            # The next term of the expansion is (gamma^2 - pi^2/6) / log^3 j.
            ctx.check(abs(h - a) <= 1.5 / lj**3, f"h(1,{j}) = {h} vs asymptote {a}")
    _all_matched(ctx, "hitting_integral", seen, ref)


@job("fixation_transition.binomial", smoke=True)
def transition_binomial(ctx):
    """Alternating generalized-binomial sums, i <= j <= 30 and the row i = 60."""
    an = ctx.L.analytics
    ref = {(t, i, j): v for t, i, j, v in ctx.ref("transition_binomial")}
    known_raised = _pinned(ctx, "transition_binomial_raised")
    tps = {t: an.TimePoint.from_time(t) for t in TRANSITION_T}
    seen = set()
    for t, i, j in transition_points():
        ctx.attempt()
        p = _call(an.fixation_transition, i, j, tps[t], "binomial")
        if p is None:
            if (t, i, j) in known_raised:
                ctx.known_failure("analytics.fixation_transition.binomial.raised")
            else:
                ctx.check(False, f"p_{i},{j}({t}) raised NumericInstabilityError")
            continue
        want = ref.get((t, i, j))
        if want is not None:
            seen.add((t, i, j))
            ctx.check(abs(p - want) <= TOL_ABS, f"p_{i},{j}({t}) = {p!r}, mpmath {want!r}")
    # Rows on pinned raising inputs are met only once those inputs are answered.
    _all_matched(ctx, "transition_binomial", seen, ref, known_raised)


@job("fixation_marginal")
def marginal(ctx):
    """State-1 marginal pmf: mass plus closed-form tail is 1."""
    an = ctx.L.analytics
    ref = {(t, j): v for t, j, v in ctx.ref("fixation_marginal")}
    seen = set()
    for t in MARGINAL_T:
        tp = an.TimePoint.from_time(t)
        pmf = [an.fixation_marginal(tp, j) for j in range(1, MARGINAL_J + 1)]
        ctx.attempt(len(pmf))
        a = tp.alpha
        tail = math.exp(math.lgamma(MARGINAL_J + 1 - a) - math.lgamma(1 - a) - math.lgamma(MARGINAL_J + 1))
        total = math.fsum(pmf) + tail
        ctx.check(abs(total - 1.0) <= 1e-9, f"t={t}: mass {total}")
        for (tt, j), want in ref.items():
            if tt == t:
                seen.add((tt, j))
                ctx.check(_rel_ok(pmf[j - 1], want), f"marginal t={t} j={j}: {pmf[j - 1]!r}, mpmath {want!r}")
    _all_matched(ctx, "fixation_marginal", seen, ref)


@job("limits.closed_forms", smoke=True)
def limit_closed_forms(ctx):
    """Moments, log cumulants, Laplace transforms and the power inequality."""
    lim, an = ctx.L.limits, ctx.L.analytics
    for t, m, want in ctx.ref("ml_moment"):
        ctx.attempt()
        v = lim.ml_moment(an.TimePoint.from_time(t), m)
        ctx.check(_rel_ok(v, want), f"ml_moment({t}, {m}) = {v!r}, mpmath {want!r}")
    for which, t, j, want in ctx.ref("log_cumulant"):
        ctx.attempt()
        v = lim.log_cumulant(lim.LogProcess(which, t), j)
        ctx.check(_rel_ok(v, want), f"log_cumulant({which}, {t}, {j}) = {v!r}, mpmath {want!r}")
    for times, lams, want in ctx.ref("neveu_laplace_fd"):
        ctx.attempt()
        v = lim.neveu_laplace_fd(times, lams)
        ctx.check(_rel_ok(v, want), f"neveu_laplace_fd({times}, {lams}) = {v!r}, mpmath {want!r}")
    holds = [lim.check_pow_inequality(x / 100.0, a / 100.0) for x in range(0, 501) for a in range(0, 101)]
    ctx.attempt(len(holds))
    ctx.check(all(holds), f"power inequality fails at {holds.count(False)} grid points")
