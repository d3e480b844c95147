"""Smoke self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs every workload's smoke subset through run.py, untraced and traced,
and asserts that the result line has the contract's shape, that every
end-to-end and per-layer metric of BENCHMARK.json is emitted, that the
traced layer time plus the check time account for the traced wall time,
and that the known-defect inputs are counted.  Then it corrupts stored
reference values and pinned failing inputs and asserts that each
corruption is counted as a failure, and that run.py refuses to run where
there is no src/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402

# Metric names the benchmark's specification asks for by name.
REQUIRED = {
    "wall_s", "setup_s", "peak_rss_mb", "cmd_p50_s",
    "bench.error_rate", "bench.known_failed", "bench.check_s", "trace_overhead_s",
    "combinatorics.stirling_table.busy_s", "combinatorics.result_bits", "spectral.entries",
    "spectral.verify_decomposition.busy_s", "analytics.hitting_probability.convolution.busy_s",
    "analytics.absorption_cdf.raised", "analytics.absorption_cdf.wrong",
    "analytics.fixation_transition.binomial.raised",
    "simulate.sample_fixation_marginal.tail_draws", "simulate.sample_fixation_marginal.tail_share",
    "simulate.sample_fixation_marginal.rss_growth_mb", "simulate.sample_block_marginal.draws",
    "simulate.simulate_block.jumps", "limits.sample_mittag_leffler.draws",
    "cli.interp_s", "cli.numpy_import_s", "cli.import_s", "cli.stdout_bytes", "cli.exit_nonzero",
    *(f"cli.{sub}.{kind}" for sub in ("spectral", "transition", "hitting", "absorption",
                                       "edgeworth", "limits", "simulate", "converge")
      for kind in ("process_s", "run_s")),
}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_contract(benchmark):
    seen = set()
    for workload in NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(run_bench(workload, trace))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0, (workload, trace, res)
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in benchmark[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            seen |= set(got)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                assert all(v > 0 for v in m.values()), (workload, m)
            else:
                accounted = m["bench.layer_busy_s"] + m["bench.check_s"]
                assert abs(accounted - m["bench.traced_wall_s"]) <= 0.05 * m["bench.traced_wall_s"] + 0.01, (
                    workload, accounted, m["bench.traced_wall_s"])
                if workload in ("sampling", "sweep", "cli"):
                    assert m["bench.known_failed"] > 0 and m["bench.error_rate"] > 0, (workload, m)
                if workload == "exact":
                    assert m["bench.error_rate"] == 0, m
        print(f"selftest: {workload} ok")
    missing = REQUIRED - seen
    assert not missing, missing


def check_corruption():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["exact"]["digests"]["decomposition.n20"] = "0" * 64
    row = ref["sweep"]["absorption"][0]
    row[3] += 1e-3
    n, i, t = ref["sweep"]["absorption_raised"].pop(0)
    ref["sampling"]["fixation_overflow_at_or_below"]["1.5"] = 0.0
    ref["cli"]["digests"]["hitting_shift"] = "0" * 64
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "corrupt-reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    needles = {
        "exact": ("decomposition.n20",),
        "sweep": ("absorption_cdf(100, 1, 0.1)", f"absorption_cdf{(n, i, t)} raised"),
        "sampling": ("overflowed at n=100 t=1.5",),
        "cli": ("hitting_shift",),
    }
    for workload, wanted in needles.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "3",
             "--smoke", "--reference", path],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        failures = json.loads(proc.stdout.splitlines()[-1])["failures"]
        for needle in wanted:
            assert any(needle in f for f in failures), (workload, needle, failures)
        print(f"selftest: corrupted {workload} reference is a failure")


def check_refuses_without_source():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("selftest: refuses to run without src/")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    check_contract(benchmark)
    check_corruption()
    check_refuses_without_source()
    print("selftest: all passed")


if __name__ == "__main__":
    main()
