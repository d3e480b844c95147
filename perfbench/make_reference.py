"""Regenerate perfbench/reference.json (needs mpmath; the benchmark does not).

    PYTHONPATH=src python3 perfbench/make_reference.py

What it stores:
  * sweep: float closed forms evaluated with mpmath at high precision,
    independently of bscoal's code, on a fixed subset of each grid; and
    the inputs on which bscoal failed when the benchmark was defined
    (ROADMAP item 3): grid points where absorption_cdf raised or was
    wrong, and binomial transitions that raised.
  * sampling: for each t of the fixation jobs, the largest 1 - u on which
    the fixation sampler's tail inversion overflowed (ROADMAP item 3).
  The pinned failing inputs may only shrink: regenerating refuses to
  write a file that adds any.
  * exact: digests of every job's "num/den" strings, from bscoal itself.
    Exact results must stay identical, so these are regression digests;
    the jobs also check the identities and paper values independently.
  * cli: digests of the stdout of the deterministic commands.
  * sampling: the block-marginal KS distance to the limit law at large
    sample size, which the sampling job's KS check is centred on.
"""

import json
import math
import os
import struct
import sys

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import sampling, sweep  # noqa: E402


def absorption_mp(n, i, t):
    a = mp.exp(-mp.mpf(t))
    lg_n = mp.loggamma(n)
    return mp.fsum(
        (-1) ** (j - 1) * mp.binomial(i, j) * mp.exp(mp.loggamma(n - j * a) - lg_n) * mp.rgamma(1 - j * a)
        for j in range(1, i + 1)
    )


def edgeworth_mp(n, i, x, K, c):
    F = mp.exp(-mp.exp(-mp.mpf(x)))
    ln = mp.log(n)
    total = 0
    for k in range(K + 1):
        d = mp.fsum(F**j * (-1) ** (j - 1) * mp.binomial(i, j) * mp.mpf(j) ** k for j in range(1, i + 1))
        total += c[k] * d * mp.exp(-k * mp.mpf(x)) / ln**k
    return total


def hitting_mp(j):
    d = j - 1
    lg = mp.loggamma(d + 1)
    return mp.quad(lambda x: mp.exp(mp.loggamma(d + x) - lg) * mp.rgamma(x), [0, mp.mpf(1) / 2, 1])


def transition_mp(i, j, t):
    a = mp.exp(-mp.mpf(t))
    return (-1) ** j * mp.fsum((-1) ** k * mp.binomial(i, k) * mp.binomial(a * k, j) for k in range(1, i + 1))


def gumbel_cumulant_mp(j):
    return mp.euler if j == 1 else mp.factorial(j - 1) * mp.zeta(j)


def sweep_reference():
    out = {}
    mp.mp.dps = 260
    rows = []
    for n in sweep.NS:
        for i in sweep.COARSE_I:
            for t in sweep.COARSE_T:
                v = 1.0 if i == n else float(absorption_mp(n, i, t))
                rows.append([n, i, t, v])
    out["absorption"] = rows
    mp.mp.dps = 320
    worst = max(abs(float(absorption_mp(n, i, t)) - v) for n, i, t, v in rows[:: 37] if i < n)
    assert worst <= 1e-15, f"absorption reference not converged: {worst}"

    mp.mp.dps = 50
    c = [mp.mpf(v) for v in mp.taylor(lambda x: mp.rgamma(1 - x), 0, max(sweep.EDGEWORTH_K))]
    out["edgeworth"] = [
        [n, i, x, K, float(edgeworth_mp(n, i, x, K, c))]
        for n in sweep.EDGEWORTH_N
        for i in sweep.EDGEWORTH_I
        for x in (-1.0, 0.0, 0.5, 2.0)
        for K in sweep.EDGEWORTH_K
    ]
    js = (2, 3, 7, 10, 31, 50, 100, 316, 1000, 3162, 10**4, 31623, 10**5, 316228, 10**6)
    out["hitting_integral"] = [[j, float(hitting_mp(j))] for j in js]
    out["transition_binomial"] = [
        [t, i, j, float(transition_mp(i, j, t))]
        for t in sweep.TRANSITION_T
        for i in (1, 2, 5, 10, 20, 30)
        for j in range(i, 31)
    ] + [[1.0, 60, j, float(transition_mp(60, j, 1.0))] for j in range(60, 71)]
    out["fixation_marginal"] = [
        [t, j, float(a * mp.gamma(j - a) / (mp.gamma(1 - a) * mp.gamma(j + 1)))]
        for t in sweep.MARGINAL_T
        for a in [mp.exp(-mp.mpf(t))]
        for j in (1, 2, 10, 100, 1000, 10000, 20000)
    ]
    out["ml_moment"] = [
        [t, m, float(mp.gamma(1 + m) / mp.gamma(1 + m * mp.exp(-mp.mpf(t))))]
        for t in (0.1, 0.5, 1.0, 2.0, 5.0)
        for m in (0.5, 1.0, 2.0, 3.5, 10.0)
    ]
    out["log_cumulant"] = [
        [which, t, j, float(
            (mp.exp(j * mp.mpf(t)) - 1) * gumbel_cumulant_mp(j)
            if which == "neveu"
            else (-1) ** j * (1 - mp.exp(-j * mp.mpf(t))) * gumbel_cumulant_mp(j)
        )]
        for which in ("mittag-leffler", "neveu")
        for t in (0.1, 0.5, 1.0, 2.0)
        for j in range(1, 13)
    ]
    laplace = []
    for times, lams in (
        ([0.5], [1.0]),
        ([0.5, 1.0], [1.0, 2.0]),
        ([0.1, 0.7, 1.5], [0.5, 0.25, 3.0]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ):
        alphas = [mp.exp(-mp.mpf(t)) for t in times]
        ls = [mp.mpf(v) for v in lams]
        while len(ls) > 1:
            lk, ak = ls.pop(), alphas.pop()
            ls[-1] += lk ** (ak / alphas[-1])
        laplace.append([times, lams, float(mp.exp(-(ls[0] ** alphas[0])))])
    out["neveu_laplace_fd"] = laplace
    return out


def absorption_failures(rows):
    """Grid points where absorption_cdf raises, and where it is off its reference."""
    from bscoal.analytics import NumericInstabilityError, absorption_cdf

    raised, wrong = [], []
    for n, i, t, want in rows:
        try:
            v = absorption_cdf(n, i, t)
        except NumericInstabilityError:
            raised.append([n, i, t])
            continue
        if abs(v - want) > sweep.TOL_ABSORPTION:
            wrong.append([n, i, t])
    return raised, wrong


def binomial_raised():
    from bscoal.analytics import NumericInstabilityError, TimePoint, fixation_transition

    raised = []
    for t, i, j in sweep.transition_points():
        try:
            fixation_transition(i, j, TimePoint.from_time(t), formula="binomial")
        except NumericInstabilityError:
            raised.append([t, i, j])
    return raised


def fixation_overflow_levels():
    """For each t of the fixation jobs, the largest v = 1 - u on which the
    sampler's tail inversion overflows, by bisection over the doubles."""
    from bscoal.simulate import _FIX_TABLE_SIZE, _tail_quantile

    def overflows(v, alpha):
        try:
            return _tail_quantile(v, alpha, _FIX_TABLE_SIZE + 1) > np.iinfo(np.int64).max
        except OverflowError:
            return True

    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def double(b):
        return struct.unpack("<d", struct.pack("<q", b))[0]

    levels = {}
    for t in (0.5, 1.0, 1.5):
        alpha = math.exp(-t)
        lo, hi = bits(5e-324), bits(0.5)
        if not overflows(double(lo), alpha):
            continue
        check(not overflows(double(hi), alpha), f"fixation sampler overflows at 1 - u = 0.5, t = {t}")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if overflows(double(mid), alpha):
                lo = mid
            else:
                hi = mid
        levels[repr(t)] = double(lo)
    return levels


def block_ks():
    from bscoal import TimePoint, ks_distance, replicate_rng, sample_mittag_leffler, scaled_marginal_sample

    tp = TimePoint.from_time(1.0)
    cdf = sampling._ecdf(np.sort(sample_mittag_leffler(tp, replicate_rng(2024, 0), 4_000_000)))
    return {
        str(n): round(float(ks_distance(scaled_marginal_sample("block", n, 1.0, 1_000_000, replicate_rng(2024, n)), cdf)), 4)
        for n in (100, 1000, 10_000)
    }


def check(ok, what):
    if not ok:
        sys.exit(f"make_reference.py: {what}")


def check_only_shrinks(new, old):
    """No pinned failing input may be added by a regenerated file."""
    for key in ("absorption_known_wrong", "absorption_raised", "transition_binomial_raised"):
        if key in old["sweep"]:
            added = {tuple(p) for p in new["sweep"][key]} - {tuple(p) for p in old["sweep"][key]}
            check(not added, f"{key} would grow by {sorted(added)}")
    key = "fixation_overflow_at_or_below"
    if key in old["sampling"]:
        for t, level in new["sampling"][key].items():
            was = old["sampling"][key].get(t)
            check(was is not None and level <= was, f"{key} at t={t} would grow from {was} to {level}")


def main():
    ref = {"exact": {"digests": {}}, "sampling": {}, "sweep": {}, "cli": {"digests": {}}}
    result, _ = worker.run_jobs("exact", 0, reference=ref, record=True)
    assert not result["failures"], result["failures"]
    ref["exact"]["digests"] = result["recorded"]
    from workloads import cli

    ref["cli"]["digests"] = cli.record_digests()
    ref["sampling"]["block_ks"] = block_ks()
    ref["sampling"]["fixation_overflow_at_or_below"] = fixation_overflow_levels()
    ref["sweep"] = sweep_reference()
    raised, wrong = absorption_failures(ref["sweep"]["absorption"])
    ref["sweep"]["absorption_raised"] = raised
    ref["sweep"]["absorption_known_wrong"] = wrong
    ref["sweep"]["transition_binomial_raised"] = binomial_raised()
    if os.path.exists(worker.REFERENCE):
        check_only_shrinks(ref, worker.load_reference())
    with open(worker.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print("absorption points raising:", len(raised), "wrong:", wrong)
    print("binomial transitions raising:", ref["sweep"]["transition_binomial_raised"])
    print("fixation overflow levels:", ref["sampling"]["fixation_overflow_at_or_below"])


if __name__ == "__main__":
    main()
