"""`sampling`: exact-law Monte Carlo at large n.

Time goes to the numpy rounds and tail bisection of simulate and to the
Kanter draws of limits; the exact kernels are idle.  Every stream comes
from ``replicate_rng(seed, stream)``, so a repeat of a run must give
byte-identical output (checked by the parent across repetitions).  Each
estimate is checked against its exact value from analytics: a frequency
within Z standard errors, or a KS distance within the DKW bound.

The fixation sampler's OverflowError (ROADMAP item 3) is counted, not
failed, only on the inputs it raised on when the benchmark was defined:
see ``_overflow_pinned``.  Anywhere else it fails.

Jobs named after a ROADMAP Baseline row, with their scale:
  sample_block_marginal n=1e4, t=1, 1e4 reps (0.64 s) -> sample_block_marginal.n1e4, unscaled
  sample_block_marginal n=1e6, t=1, 1e4 reps (36 s)   -> sample_block_marginal.n1e5: n=1e5, 200 reps
  sample_fixation_marginal n=1e4, t=0.5, 1e4 reps     -> sample_fixation_marginal.n1e4: 1000 reps
  criterion 10-fixation (6.7 s, 1e4 reps)             -> ks.fixation: 2000 reps
"""

import math
import resource

import numpy as np

from . import registry

JOBS, job = registry()

Z = 5.0  # standard errors allowed between a frequency and its exact value
DKW = 2.76  # sup|ECDF - F| <= DKW / sqrt(m) except with probability 1e-6
REF_DRAWS = 200_000

# True KS distance of the scaled marginal to its limit law at n = 1e2,
# 1e3, 1e4 (fixation line, t = 0.5), from the acceptance suite's analysis.
FIXATION_KS = {100: 0.0068, 1000: 0.0018, 10000: 0.0010}


def _rng(ctx, k=0):
    return ctx.L.simulate.replicate_rng(ctx.seed, 16 * ctx.job_index + k)


def _freq_check(ctx, what, hits, reps, p):
    se = math.sqrt(p * (1.0 - p) / reps)
    if se == 0.0:
        ctx.check(hits / reps == p, f"{what}: frequency {hits / reps} vs exact {p}")
        return
    z = (hits / reps - p) / se
    ctx.check(abs(z) <= Z, f"{what}: frequency {hits / reps:.5f} vs exact {p:.5f}, z = {z:+.1f}")


def _output(ctx, key, values):
    ctx.output(key, [np.asarray(values).tobytes().hex()])


def _block_marginal(ctx, n, reps, levels):
    sim, an = ctx.L.simulate, ctx.L.analytics
    tp = an.TimePoint.from_time(1.0)
    states = sim.sample_block_marginal(n, 1.0, reps, _rng(ctx))
    ctx.attempt(1 + len(levels))
    ctx.count("simulate.sample_block_marginal.draws", reps)
    ctx.check(states.min() >= 1 and states.max() <= n, "state outside 1..n")
    for i in levels:
        p = an.block_tail_via_duality(n, i, tp)
        _freq_check(ctx, f"P(N_1 <= {i} | n={n})", int((states <= i).sum()), reps, p)
    _output(ctx, f"block.n{n}", states)


@job("sample_block_marginal.n100", smoke=True)
def block_n100(ctx):
    _block_marginal(ctx, 100, 20_000, (2, 5, 10))


@job("sample_block_marginal.n1e4")
def block_n1e4(ctx):
    _block_marginal(ctx, 10_000, 10_000, (5, 10, 20))


@job("sample_block_marginal.n1e5")
def block_n1e5(ctx):
    _block_marginal(ctx, 100_000, 200, (10, 20))


@job("sample_absorption_times")
def absorption_times(ctx):
    sim, an = ctx.L.simulate, ctx.L.analytics
    n, reps = 1000, 5000
    for k, i in enumerate((1, 5)):
        times = sim.sample_absorption_times(n, i, reps, _rng(ctx, k))
        ctx.attempt(4)
        ctx.count("simulate.sample_absorption_times.draws", reps)
        ctx.check(bool((times > 0).all()), "absorption time not positive")
        for t in (1.0, 2.0, 3.0):
            p = an.absorption_cdf(n, i, t)
            _freq_check(ctx, f"P(T_{i} <= {t} | n={n})", int((times <= t).sum()), reps, p)
        _output(ctx, f"absorption.i{i}", times)


def _overflow_pinned(ctx, k, n, t, reps):
    """Whether the fixation sampler overflowed on this input and stream when
    the benchmark was defined.

    Its tail inversion raised OverflowError once a uniform u drawn for a
    state-1 copy had 1 - u at or below a level that depends on t only
    (about 3e-4 at t=1.5, 1e-7 at t=1, 4e-11 at t=0.5; stored in
    reference.json).  The sampler drew its n * reps uniforms from the
    job's stream with rng.random, in chunks of 4M // n replicates of n;
    replaying that stream tells whether this input was one it raised on.
    """
    level = ctx.ref("fixation_overflow_at_or_below").get(repr(float(t)))
    if level is None:
        return False
    rng = _rng(ctx, k)
    chunk = max(1, (4 << 20) // n)
    for start in range(0, reps, chunk):
        u = rng.random((min(start + chunk, reps) - start) * n)
        if 1.0 - u.max() <= level:
            return True
    return False


def _overflowed(ctx, k, n, t, reps):
    """Count a pinned overflow of the fixation sampler, fail any other."""
    if _overflow_pinned(ctx, k, n, t, reps):
        ctx.known_failure("simulate.sample_fixation_marginal")
    else:
        ctx.check(False, f"fixation sampler overflowed at n={n} t={t} reps={reps}, not on a pinned input")


def _fixation(ctx, n, t, reps, k=0):
    """Fixation-line draws from stream k; None on an overflow."""
    diag = {}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ctx.attempt()
    try:
        out = ctx.L.simulate.sample_fixation_marginal(n, t, reps, _rng(ctx, k), diag)
    except OverflowError:
        _overflowed(ctx, k, n, t, reps)
        out = None
    name = "simulate.sample_fixation_marginal"
    ctx.count(f"{name}.draws", reps)
    ctx.count(f"{name}.state1_draws", n * reps)
    ctx.count(f"{name}.tail_draws", diag.get("tail_draws", 0))
    growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    ctx.count(f"{name}.rss_growth_mb", growth / 1024.0)
    return out


@job("sample_fixation_marginal.small_n", smoke=True)
def fixation_small_n(ctx):
    """P(L_t >= m | L_0 = n) is the block tail at (m, n) by duality."""
    an = ctx.L.analytics
    for k, (n, t, reps, levels) in enumerate(
        ((1, 0.5, 100_000, (2, 5, 20, 100)), (5, 1.0, 10_000, (10, 30, 100, 300)))
    ):
        tp = an.TimePoint.from_time(t)
        states = _fixation(ctx, n, t, reps, k)
        if states is None:
            continue
        ctx.check(states.min() >= n, "fixation line below its start")
        for m in levels:
            ctx.attempt()
            p = an.block_tail_via_duality(m, n, tp)
            _freq_check(ctx, f"P(L_{t} >= {m} | n={n})", int((states >= m).sum()), reps, p)
        _output(ctx, f"fixation.n{n}.t{t}", states)


@job("sample_fixation_marginal.n1e4")
def fixation_n1e4(ctx):
    """Large n at t = 0.5: a sum of 1e4 state-1 draws per replicate."""
    lim = ctx.L.limits
    n, t, reps = 10_000, 0.5, 1000
    states = _fixation(ctx, n, t, reps)
    if states is None:
        return
    tp = ctx.L.analytics.TimePoint.from_time(t)
    ref = np.sort(lim.sample_neveu(tp, _rng(ctx, 1), REF_DRAWS))
    ctx.attempt(2)
    ks = ctx.L.simulate.ks_distance(states / n ** math.exp(t), _ecdf(ref))
    tol = DKW / math.sqrt(reps) + DKW / math.sqrt(REF_DRAWS)
    ctx.check(ks <= FIXATION_KS[n] + tol, f"KS {ks:.4f} > {FIXATION_KS[n]} + {tol:.4f}")
    _output(ctx, "fixation.n1e4", states)


@job("sample_fixation_marginal.t1.5", smoke=True)
def fixation_t15(ctx):
    """Known defect, kept small: ~1e5 state-1 draws at t = 1.5 overflow on
    essentially every seed."""
    states = _fixation(ctx, 100, 1.5, 1000)
    if states is not None:
        ctx.check(states.min() >= 100, "fixation line below its start")
        _output(ctx, "fixation.t1.5", states)


@job("estimate_hitting", smoke=True)
def estimate_hitting(ctx):
    sim, an = ctx.L.simulate, ctx.L.analytics
    reps = 100_000
    for k, j in enumerate((7, 50)):
        est = sim.estimate_hitting(1, j, reps, _rng(ctx, k))
        ctx.attempt(2)
        ctx.count("simulate.estimate_hitting.draws", reps)
        p = float(an.hitting_probability(1, j))
        _freq_check(ctx, f"h(1,{j})", round(est.value * reps), reps, p)
        ctx.output(f"hitting.j{j}", [repr(est.value)])


def _ecdf(ref):
    def cdf(x):
        return np.searchsorted(ref, x, side="right") / ref.size

    return cdf


def _ks_grid(ctx, process, t, ns, reps, true_ks):
    sim, lim, an = ctx.L.simulate, ctx.L.limits, ctx.L.analytics
    tp = an.TimePoint.from_time(t)
    name = "sample_mittag_leffler" if process == "block" else "sample_neveu"
    ref = np.sort(getattr(lim, name)(tp, _rng(ctx), REF_DRAWS))
    ctx.count(f"limits.{name}.draws", REF_DRAWS)
    cdf = _ecdf(ref)
    tol = DKW / math.sqrt(reps) + DKW / math.sqrt(REF_DRAWS)
    for k, n in enumerate(ns, start=1):
        ctx.attempt(2)
        try:
            samples = sim.scaled_marginal_sample(process, n, t, reps, _rng(ctx, k))
        except OverflowError:
            if process != "fixation":
                raise
            _overflowed(ctx, k, n, t, reps)
            continue
        ks = sim.ks_distance(samples, cdf)
        want = true_ks[n]
        ctx.check(abs(ks - want) <= tol, f"{process} n={n}: KS {ks:.4f}, expected {want} +- {tol:.4f}")
        _output(ctx, f"ks.{process}.n{n}", samples)


@job("ks.block")
def ks_block(ctx):
    true_ks = {int(n): v for n, v in ctx.ref("block_ks").items()}
    _ks_grid(ctx, "block", 1.0, (100, 1000), 5000, true_ks)


@job("ks.fixation")
def ks_fixation(ctx):
    _ks_grid(ctx, "fixation", 0.5, (100, 1000, 10_000), 2000, FIXATION_KS)


@job("limits.samplers", smoke=True)
def limit_samplers(ctx):
    """Mittag-Leffler mean against ml_moment; stable Laplace transform at 1."""
    lim, an = ctx.L.limits, ctx.L.analytics
    reps = 200_000
    for k, t in enumerate((0.5, 1.0, 2.0)):
        tp = an.TimePoint.from_time(t)
        x = lim.sample_mittag_leffler(tp, _rng(ctx, 2 * k), reps)
        y = lim.sample_neveu(tp, _rng(ctx, 2 * k + 1), reps)
        m1, m2 = lim.ml_moment(tp, 1.0), lim.ml_moment(tp, 2.0)
        ctx.attempt(4)
        ctx.count("limits.sample_mittag_leffler.draws", reps)
        ctx.count("limits.sample_neveu.draws", reps)
        z = (x.mean() - m1) / math.sqrt((m2 - m1 * m1) / reps)
        ctx.check(abs(z) <= Z, f"t={t}: Mittag-Leffler mean {x.mean():.5f} vs {m1:.5f}, z = {z:+.1f}")
        lap = np.exp(-y)
        z = (lap.mean() - math.exp(-1.0)) / (lap.std() / math.sqrt(reps))
        ctx.check(abs(z) <= Z, f"t={t}: E exp(-Y) {lap.mean():.5f} vs e^-1, z = {z:+.1f}")
        _output(ctx, f"limits.t{t}", np.concatenate([x, y]))


@job("siegmund_duality_gap")
def siegmund(ctx):
    lim = ctx.L.limits
    reps = 200_000
    for k, (x, y, t) in enumerate(((1.0, 1.0, 1.0), (0.5, 2.0, 0.5))):
        gap = lim.siegmund_duality_gap(x, y, t, reps, _rng(ctx, k))
        ctx.attempt()
        ctx.count("limits.siegmund_duality_gap.draws", 2 * reps)
        bound = Z * math.sqrt(0.5 / reps)
        ctx.check(abs(gap) <= bound, f"gap {gap:+.5f} at (x,y,t)=({x},{y},{t}) beyond {bound:.5f}")
        ctx.output(f"siegmund.{k}", [repr(gap)])


@job("simulate_block", smoke=True)
def paths_block(ctx):
    """Jump-by-jump paths from n = 100 to the horizon t = 1."""
    sim, an = ctx.L.simulate, ctx.L.analytics
    n, horizon, paths = 100, 1.0, 400
    rng = _rng(ctx)
    finals, parts = [], []
    for _ in range(paths):
        p = sim.simulate_block(n, horizon, rng)
        ctx.count("simulate.simulate_block.jumps", len(p.jump_times))
        ok = (
            p.states[0] == n
            and bool((np.diff(p.states) < 0).all())
            and p.states[-1] >= 1
            and bool((np.diff(p.jump_times) > 0).all())
            and (len(p.jump_times) == 0 or p.jump_times[-1] <= horizon)
        )
        ctx.check(ok, "block path not a decreasing chain inside the horizon")
        finals.append(int(p.states[-1]))
        parts.append(p.jump_times.tobytes().hex())
    ctx.attempt(paths + 2)
    ctx.count("simulate.simulate_block.draws", paths)
    tp = an.TimePoint.from_time(horizon)
    finals = np.asarray(finals)
    for i in (5, 10):
        _freq_check(ctx, f"path P(N_1 <= {i})", int((finals <= i).sum()), paths, an.block_tail_via_duality(n, i, tp))
    ctx.output("paths.block", parts)


@job("simulate_fixation")
def paths_fixation(ctx):
    """Fixation-line paths from 1 to beyond 50: visit frequency of 7 is h(1, 7)."""
    sim, an = ctx.L.simulate, ctx.L.analytics
    cap, paths = 50, 2000
    rng = _rng(ctx)
    visits, parts = 0, []
    for _ in range(paths):
        p = sim.simulate_fixation(1, cap, rng)
        ctx.count("simulate.simulate_fixation.jumps", len(p.jump_times))
        ctx.check(bool((np.diff(p.states) > 0).all()) and p.states[-1] > cap, "fixation path malformed")
        visits += int((p.states == 7).any())
        parts.append(p.states.tobytes().hex())
    ctx.attempt(paths + 1)
    ctx.count("simulate.simulate_fixation.draws", paths)
    _freq_check(ctx, "path visits 7", visits, paths, float(an.hitting_probability(1, 7)))
    ctx.output("paths.fixation", parts)
