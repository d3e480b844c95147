"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--smoke]

Started by ``run.py`` with ``src`` on PYTHONPATH.  The first thing it does
is import bscoal, so the parent can time set-up from spawn to that point;
then it runs the workload's job list once, checks every output, and
prints one JSON line with timings, failures, output digests and peak RSS.
With ``--trace`` it also records spans and counters and writes the spans
to ``.bench_out/``.
"""

import sys
import time

import bscoal  # noqa: E402,F401  (timed by the parent as set-up)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from spans import Layers, Tracer, clock  # noqa: E402
from workloads import sha  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".bench_out"


class Context:
    """What a job sees: the library layers, the seed and the check ledger."""

    def __init__(self, workload, seed, tracer, reference, record=False, smoke=False):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.tr = tracer
        self.traced = tracer is not None
        self.L = Layers(tracer)
        self.reference = reference
        self.record = record
        self.recorded: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.known: dict[str, int] = {}
        self.outputs: dict[str, str] = {}
        self.job = None
        self.job_index = 0
        self.state: dict = {}  # values one job hands to a later one

    # -- ledger -----------------------------------------------------------
    def attempt(self, k: int = 1) -> None:
        self.attempted += k

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(f"{self.job}: {what}")
        return ok

    def known_failure(self, counter: str, k: int = 1) -> None:
        """A failure of a documented kind (see ROADMAP item 3), counted."""
        self.known[counter] = self.known.get(counter, 0) + k
        self.count(counter, k)

    def count(self, name: str, value=1) -> None:
        if self.tr is not None:
            self.tr.add(name, value)

    def peak(self, name: str, value) -> None:
        if self.tr is not None:
            self.tr.peak(name, value)

    def layer_span(self, name: str):
        return self.tr.layer_span(name) if self.tr is not None else contextlib.nullcontext()

    # -- references -------------------------------------------------------
    def ref(self, key: str):
        return self.reference[self.workload][key]

    def expect_digest(self, key: str, parts) -> None:
        """Compare a digest of output strings with the stored one."""
        got = sha(parts)
        if self.record:
            self.recorded[key] = got
            return
        want = self.reference[self.workload]["digests"].get(key)
        self.check(got == want, f"digest {key} is {got[:12]}, stored {str(want)[:12]}")

    def output(self, key: str, parts) -> None:
        """Digest of seeded output; repeats of a run must reproduce it."""
        self.outputs[key] = sha(parts)


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_jobs(workload, seed, traced=False, smoke=False, reference=None, record=False, run=0):
    """Run the job list once; returns the result record."""
    if reference is None:
        reference = load_reference()
    module = importlib.import_module(f"workloads.{workload}")
    tracer = Tracer(workload, run) if traced else None
    ctx = Context(workload, seed, tracer, reference, record, smoke)
    probe = getattr(module, "setup_probe", None)
    setup_s = probe() if probe is not None else None
    job_s = {}
    t_start = clock()
    for index, (name, fn, is_smoke) in enumerate(module.JOBS):
        if smoke and not is_smoke:
            continue
        ctx.job, ctx.job_index = name, index
        span = tracer.job_span(name) if tracer is not None else contextlib.nullcontext()
        t0 = clock()
        with span:
            try:
                fn(ctx)
            except Exception:
                ctx.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
        job_s[name] = clock() - t0
    wall = clock() - t_start
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": wall,
        "setup_s": setup_s,
        "job_s": job_s,
        "attempted": ctx.attempted,
        "failures": ctx.failures,
        "known": ctx.known,
        "outputs": ctx.outputs,
        "recorded": ctx.recorded,
    }
    extra = getattr(module, "after_jobs", None)
    if extra is not None:
        # Measurements outside the job list (for example in-process CLI
        # runs in a traced repetition); not part of wall_s.
        extra(ctx, result)
    if tracer is not None:
        result["layers"] = tracer.calls
        result["counters"] = tracer.counters
        result["check_s"] = tracer.job_self_time()
    return result, tracer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--run", type=int, default=0)
    ap.add_argument("--reference", default=REFERENCE)
    args = ap.parse_args()
    result, tracer = run_jobs(
        args.workload,
        args.seed,
        traced=args.trace,
        smoke=args.smoke,
        reference=load_reference(args.reference),
        run=args.run,
    )
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["imported"] = IMPORTED
    mod = sys.modules.get("bscoal")
    result["bscoal_file"] = getattr(mod, "__file__", None)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
