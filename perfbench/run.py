"""bscoal benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload {exact,sampling,sweep,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src``
(nothing needs installing).  Each repetition of the workload's fixed job
list runs in a fresh worker process (``worker.py``), started one at a
time from this process, so the Stirling tables and the renewal and
fixation caches start cold every time, as in a user's process.
Repetitions continue until ``--seconds`` is used up (at least three with
``--trace 0``); the figures are medians over them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
  wall_s       wall time of the job list, set-up excluded
  setup_s      spawn of the worker until `import bscoal` returns
               (cli: a fresh interpreter's `import bscoal.cli`)
  peak_rss_mb  peak resident set of the worker (cli: its largest child)
  cmd_p50_s    median latency of one command: for cli one bscoal
               process, for the others one worker from spawn to exit
               (a script that imports bscoal and runs the job list)
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: spans around every call the jobs make into bscoal,
counters read from arguments and return values, the job self time
(`bench.check_s`) and traced minus untraced wall time
(`trace_overhead_s`).  Spans go to `.bench_out/`.

Every line but the last is a human-readable summary; the last is one JSON
object {"correct", "attempted", "failed", "metrics"}.  `attempted` counts
library calls and CLI commands; `failed` counts unexpected exceptions,
checks that did not hold and non-zero exits.  Failures that ROADMAP
item 3 documents (NumericInstabilityError, the fixation sampler's
OverflowError, wrong absorption values) are counted apart, in
`bench.known_failed` and `bench.error_rate`, but only on the inputs that
reference.json pins as failing when the benchmark was defined; on any
other input they count in `failed`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402

ROOT = os.getcwd()
WORKER_TIMEOUT = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread (nproc or below): leggauss runs LAPACK at import.
    for var in THREAD_VARS:
        env[var] = "1"
    # Imports use and refresh the bytecode cache, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment(env: dict) -> dict:
    import numpy

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_rev():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
            return out.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bscoal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": git_rev(),
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def spawn(args, traced: bool, run: int, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run", str(run)]
    if traced:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"worker ran longer than {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')[-3000:]}")
    res = json.loads(proc.stdout.decode().splitlines()[-1])
    if not str(res["bscoal_file"]).startswith(os.path.join(ROOT, "src") + os.sep):
        fail(f"bscoal was imported from {res['bscoal_file']}, not from this checkout's src")
    res["process_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    if res["setup_s"] is None:
        res["setup_s"] = res["imported"] - t0
    return res


def median(values):
    return statistics.median(values) if values else 0.0


def layer_values(traced: list, untraced: list, benchmark: dict) -> dict:
    """Per-layer metrics from the traced repetitions (medians)."""
    per_rep = []
    for res in traced:
        v = {}
        for name, (calls, busy, failed) in res["layers"].items():
            v[f"{name}.calls"] = calls
            v[f"{name}.busy_s"] = busy
            v[f"{name}.failed"] = failed
        v.update(res["counters"])
        fix = "simulate.sample_fixation_marginal"
        state1 = res["counters"].get(f"{fix}.state1_draws", 0)
        v[f"{fix}.tail_share"] = res["counters"].get(f"{fix}.tail_draws", 0) / state1 if state1 else 0.0
        v["bench.check_s"] = res["check_s"]
        v["bench.traced_wall_s"] = res["wall_s"]
        v["bench.layer_busy_s"] = sum(busy for _, busy, _ in res["layers"].values())
        known = sum(res["known"].values())
        v["bench.known_failed"] = known
        v["bench.error_rate"] = (len(res["failures"]) + known) / max(res["attempted"], 1)
        per_rep.append(v)
    out = {}
    for m in benchmark["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_s":
            value = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
        else:
            value = median([v.get(name, 0) for v in per_rep])
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="bscoal benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="cheap subset of each job list (self-test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bscoal", "__init__.py")):
        fail("no src/bscoal here: run from the root of a bscoal checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            benchmark = json.load(fh)
    except OSError:
        fail("no BENCHMARK.json here: run from the root of a bscoal checkout")

    env = worker_env()
    info = environment(env)
    print(f"# env {json.dumps(info)}")

    plan = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else 3
    results = []
    t_start = time.monotonic()
    rounds = 0
    while True:
        for traced in plan:
            results.append(spawn(args, traced, len(results), env))
        rounds += 1
        elapsed = time.monotonic() - t_start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    failures = [f for r in results for f in r["failures"]]
    for key in sorted({k for r in results for k in r["outputs"]}):
        digests = {r["outputs"].get(key) for r in results}
        if len(digests) != 1:
            failures.append(f"seeded output {key} differs between repetitions of seed {args.seed}")
    attempted = sum(r["attempted"] for r in results)
    known = {}
    for r in results:
        for k, n in r["known"].items():
            known[k] = known.get(k, 0) + n

    if args.trace:
        metrics = layer_values(traced, untraced, benchmark)
    else:
        if args.workload == "cli":
            latencies = [s for r in untraced for s in r["cmd_s"]]
        else:
            latencies = [r["process_s"] for r in untraced]
        values = {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mb": median([r["rss_mb"] for r in untraced]),
            "cmd_p50_s": median(latencies),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in benchmark["end_to_end"]}
        print(f"# {args.workload}: {len(untraced)} repetitions, {len(latencies)} latency samples")
        print("# repetition wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
        print("# repetition job_s: " + json.dumps([r["job_s"] for r in untraced]))

    for name, m in metrics.items():
        print(f"# {name:<56} {m['value']:>14.6g} {m['unit']}")
    known_total = sum(known.values())
    print(f"# attempted {attempted}, failed {len(failures)}, known failures {known_total} "
          f"(error rate {(len(failures) + known_total) / max(attempted, 1):.4g}): {json.dumps(known)}")
    for f in failures[:20]:
        print(f"# FAILED {f.strip()}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
