"""`cli`: subprocess commands in a closed loop, one client, one at a time.

Each command is a cold process, so the in-process caching that pays off
in `exact` does nothing here: start-up, import and emit dominate.  The
list is the five README commands, one command for each remaining
subcommand, an exact-bound hitting query, two large emitters and the
known-defect fixation command (ROADMAP item 3: it exits 1 with an
OverflowError traceback when the benchmark was defined; that failure is
counted, and once fixed its output is checked instead).  Any other
non-zero exit, of that command or of another, fails.

Checks: stored stdout digests for the exact and float commands, value
checks where a closed form is at hand, validity checks for the seeded
commands, and byte-identical stdout for every seeded command across the
repetitions of a run (compared by the parent).
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import time

from spans import clock

from . import registry, sha
from .sampling import DKW

JOBS, job = registry()

BLOCK_KS_TOL = DKW / math.sqrt(10_000) + DKW / math.sqrt(1_000_000) + 0.005


def _commands(seed):
    s = str(seed)
    return (
        # (label, argv, kind) with kind: exact/float (stored digest), seeded, known
        ("hitting_shift", ["hitting", "--i", "1", "--j", "7", "--method", "stirling-shift", "--format", "json"], "exact"),
        ("transition_e1", ["transition", "--i", "1", "--j", "1", "--t", "1.0", "--format", "json"], "float"),
        ("spectral_verify", ["spectral", "--kind", "bs-fixation", "--n", "10", "--verify", "--format", "json"], "exact"),
        ("block_path", ["simulate", "--method", "block-path", "--n", "50", "--t", "2.0", "--seed", s], "seeded"),
        ("converge", ["converge", "--method", "block", "--n", "100,1000,10000", "--t", "1.0", "--seed", s], "seeded"),
        ("absorption", ["absorption", "--n", "1000", "--i", "5", "--t", "2.0", "--format", "json"], "float"),
        ("edgeworth", ["edgeworth", "--n", "1000", "--i", "2", "--x", "0.5", "--K", "3", "--format", "json"], "float"),
        ("transition_binomial", ["transition", "--i", "2", "--j", "10", "--t", "0.7", "--method", "binomial", "--format", "json"], "float"),
        ("hitting_integral", ["hitting", "--i", "1", "--j", "1000000", "--method", "integral", "--format", "json"], "float"),
        ("hitting_j300", ["hitting", "--i", "1", "--j", "300", "--format", "json"], "exact"),
        ("spectral_json", ["spectral", "--kind", "bs-block", "--n", "40", "--format", "json"], "exact"),
        ("limits_sample", ["limits", "--method", "sample-mittag-leffler", "--t", "1", "--reps", "100000", "--seed", s], "seeded"),
        ("fixation_t15", ["simulate", "--method", "fixation-marginal", "--n", "1000", "--t", "1.5", "--seed", s], "known"),
    )


def _bscoal(argv):
    return [sys.executable, "-m", "bscoal.cli", *argv]


def _value(out: bytes):
    return json.loads(out)["value"]


def _rows(out: bytes):
    return list(csv.reader(io.StringIO(out.decode())))


def _check_seeded(ctx, label, out):
    """Validity of a seeded command's stdout (its bytes vary with the seed)."""
    rows = _rows(out)
    if label == "block_path":
        ok = rows[0] == ["time", "state"] and len(rows) >= 2
        times = [float(r[0]) for r in rows[1:]]
        states = [int(r[1]) for r in rows[1:]]
        ok = ok and states[0] == 50 and states[-1] >= 1 and times[0] == 0.0 and times[-1] <= 2.0
        ok = ok and all(a < b for a, b in zip(times, times[1:])) and all(a > b for a, b in zip(states, states[1:]))
        ctx.check(ok, "block path is not a decreasing chain from 50 inside t <= 2")
    elif label == "converge":
        ks_ref = ctx.reference["sampling"]["block_ks"]
        ok = rows[0] == ["n", "t", "ks", "reps", "seed"] and len(rows) == 4
        for r in rows[1:]:
            ok = ok and r[4] == str(ctx.seed) and abs(float(r[2]) - ks_ref[r[0]]) <= BLOCK_KS_TOL
        ctx.check(ok, f"converge rows {rows[1:]} off the stored KS levels {ks_ref} +- {BLOCK_KS_TOL:.3f}")
    elif label == "limits_sample":
        values = [float(r[0]) for r in rows[1:]]
        m = len(values)
        a = math.exp(-1.0)
        m1 = math.exp(-math.lgamma(1 + a))
        m2 = math.exp(math.lgamma(3) - math.lgamma(1 + 2 * a))
        z = (math.fsum(values) / m - m1) / math.sqrt((m2 - m1 * m1) / m)
        ok = rows[0] == ["value"] and m == 100_000 and min(values) > 0 and abs(z) <= 5
        ctx.check(ok, f"Mittag-Leffler sample: {m} values, mean z = {z:+.1f}")
    elif label == "fixation_t15":
        values = [int(r[0]) for r in rows[1:]]
        ctx.check(rows[0] == ["value"] and len(values) == 1000 and min(values) >= 1000, "fixation marginal sample invalid")


def _check_value(ctx, label, out):
    """Closed-form value checks on top of the stored digest."""
    if label == "hitting_shift":
        ctx.check(_value(out) == "19087/60480", f"h(1,7) = {_value(out)}, paper 19087/60480")
    elif label == "transition_e1":
        ctx.check(abs(_value(out) - math.exp(-1.0)) <= 1e-15, f"p_11(1) = {_value(out)}, want e^-1")
    elif label == "spectral_verify":
        rec = json.loads(out)
        ctx.check(rec["RL=I"] is True and rec["RDL=Gamma"] is True, f"verify report {rec}")
    elif label == "hitting_integral":
        lj = math.log(1_000_000)
        asym = 1 / lj - 0.5772156649015329 / lj**2
        ctx.check(abs(_value(out) - asym) <= 1.5 / lj**3, f"h(1,1e6) = {_value(out)} vs asymptote {asym}")


def setup_probe() -> float:
    """Spawn to `import bscoal.cli` returned, in a fresh interpreter."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", "import time, bscoal.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"],
        check=True,
        capture_output=True,
    ).stdout
    return float(out) - t0


@job("commands", smoke=True)
def commands(ctx):
    latencies = ctx.state.setdefault("cmd_s", [])
    for label, argv, kind in _commands(ctx.seed):
        if ctx.smoke and label not in SMOKE:
            continue
        sub = argv[0]
        ctx.attempt()
        t0 = clock()
        with ctx.layer_span(f"cli.{sub}"):
            proc = subprocess.run(_bscoal(argv), capture_output=True)
        dt = clock() - t0
        latencies.append(dt)
        ctx.count(f"cli.{sub}.process_s", dt)
        ctx.count("cli.stdout_bytes", len(proc.stdout))
        if proc.returncode != 0:
            ctx.count("cli.exit_nonzero")
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            if kind == "known" and err and err[0].startswith("OverflowError"):
                ctx.known_failure(f"cli.{label}")
            else:
                ctx.check(False, f"{label} exited {proc.returncode}: {err}")
            continue
        if kind in ("exact", "float"):
            ctx.expect_digest(label, [proc.stdout.hex()])
            _check_value(ctx, label, proc.stdout)
        else:
            _check_seeded(ctx, label, proc.stdout)
            ctx.output(label, [proc.stdout.hex()])


# Cheap commands that cover every kind of check, for the smoke self-test.
SMOKE = ("hitting_shift", "transition_e1", "block_path", "fixation_t15")


def after_jobs(ctx, result):
    """Per-command latencies; in a traced repetition also the start-up
    parts and each command run in-process through bscoal.cli.run."""
    result["cmd_s"] = ctx.state.get("cmd_s", [])
    if not ctx.traced:
        return
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    ctx.count("cli.interp_s", clock() - t0)
    probe = (
        "import time; c = time.perf_counter; t0 = c(); import numpy; t1 = c(); "
        "import bscoal.cli; t2 = c(); print(t1 - t0, t2 - t0)"
    )
    numpy_s, import_s = map(float, subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True).stdout.split())
    ctx.count("cli.numpy_import_s", numpy_s)
    ctx.count("cli.import_s", import_s)
    from bscoal.cli import run

    for label, argv, kind in _commands(ctx.seed):
        if ctx.smoke and label not in SMOKE:
            continue
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except OverflowError:  # the known defect raises through run()
                code = "OverflowError"
        ctx.count(f"cli.{argv[0]}.run_s", clock() - t0)
        ctx.check(code == 0 or (kind == "known" and code == "OverflowError"), f"{label} exited {code} in-process")


def record_digests() -> dict:
    """Stored stdout digests of the exact and float commands (reference)."""
    return {
        label: sha([subprocess.run(_bscoal(argv), check=True, capture_output=True).stdout.hex()])
        for label, argv, kind in _commands(0)
        if kind in ("exact", "float")
    }
