"""Command line surface: every analytic and simulation capability as a
subcommand with CSV or JSON output.

Output conventions: CSV has a header row, comma separator, LF line
endings; JSON is a single object per run.  Exact rationals are serialized
as "num/den" strings, reals as shortest round-trip decimals.  Exit codes:
0 success, 2 usage error, 1 numeric instability.

Every run is fully determined by its flags; simulation subcommands are
byte-identical when repeated with the same --seed: replicate substreams
are derived from (seed, index) alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .analytics import (
    HittingMethod,
    NumericInstabilityError,
    TimePoint,
    absorption_cdf,
    edgeworth_cdf,
    fixation_transition,
    gumbel_cumulant,
    hitting_probability,
)
from .limits import (
    LogProcess,
    log_cumulant,
    mittag_leffler_cdf,
    ml_moment,
    neveu_cdf,
    sample_mittag_leffler,
    sample_neveu,
)
from .simulate import (
    estimate_hitting,
    ks_distance,
    replicate_rng,
    sample_absorption_times,
    sample_block_marginal,
    sample_fixation_marginal,
    scaled_marginal_sample,
    simulate_block,
    simulate_fixation,
)
from .spectral import (
    GeneratorKind,
    build_generator,
    closed_form_decomposition,
    eigenvalues,
    recursive_decomposition,
    verify_decomposition,
)

__all__ = ["main", "run"]


def _fmt(v):
    """JSON/CSV-safe scalar: Fractions become "num/den" strings."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _emit_record(fmt: str, record: dict) -> None:
    record = {k: _fmt(v) for k, v in record.items()}
    if fmt == "json":
        print(json.dumps(record))
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(record.keys())
        w.writerow(record.values())


def _emit_rows(fmt: str, header: list[str], rows: list[list], json_key: str = "rows") -> None:
    if fmt == "json":
        print(json.dumps({json_key: [[_fmt(v) for v in r] for r in rows], "header": header}))
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) for v in r])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_spectral(args) -> int:
    kind = GeneratorKind(args.kind)
    n = args.n
    if args.method == "recursive":
        dec = recursive_decomposition(build_generator(kind, n), eigenvalues(kind, n), kind)
    else:
        dec = closed_form_decomposition(kind, n)
    if args.verify:
        report = verify_decomposition(dec)
        _emit_record(
            args.format,
            {
                "kind": kind.value,
                "n": n,
                "RL=I": report.rl_is_identity,
                "RDL=Gamma": report.rdl_is_generator,
            },
        )
        return 0
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": kind.value,
                    "n": n,
                    "R": dec.R.to_jsonable(),
                    "D": [_fmt(d) for d in dec.D],
                    "L": dec.L.to_jsonable(),
                }
            )
        )
    else:
        rows = [
            [i, j, _fmt(dec.R.entry(i, j)), _fmt(dec.L.entry(i, j)), _fmt(dec.D[j - 1])]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        _emit_rows(args.format, ["i", "j", "R", "L", "D_j"], rows)
    return 0


def _cmd_transition(args) -> int:
    tp = TimePoint.from_time(args.t)
    value = fixation_transition(args.i, args.j, tp, formula=args.method)
    _emit_record(
        args.format,
        {"i": args.i, "j": args.j, "t": args.t, "method": args.method, "value": value},
    )
    return 0


def _cmd_hitting(args) -> int:
    method = HittingMethod(args.method)
    value = hitting_probability(args.i, args.j, method)
    _emit_record(
        args.format,
        {"i": args.i, "j": args.j, "method": method.value, "value": value},
    )
    return 0


def _cmd_absorption(args) -> int:
    value = absorption_cdf(args.n, args.i, args.t)
    _emit_record(args.format, {"n": args.n, "i": args.i, "t": args.t, "value": value})
    return 0


def _cmd_edgeworth(args) -> int:
    value = edgeworth_cdf(args.n, args.i, args.x, args.K)
    _emit_record(
        args.format,
        {"n": args.n, "i": args.i, "x": args.x, "K": args.K, "value": value},
    )
    return 0


def _cmd_limits(args) -> int:
    tp = TimePoint.from_time(args.t)
    if args.method in ("sample-mittag-leffler", "sample-neveu"):
        rng = replicate_rng(args.seed)
        sampler = sample_mittag_leffler if args.method == "sample-mittag-leffler" else sample_neveu
        values = np.asarray(sampler(tp, rng, size=args.reps), dtype=np.float64)
        _emit_rows(args.format, ["value"], [[float(v)] for v in values], json_key="values")
        return 0
    if args.method == "moment":
        value = ml_moment(tp, args.x)
        _emit_record(args.format, {"t": args.t, "m": args.x, "value": value})
        return 0
    # cumulant of the log marginal
    which = "mittag-leffler" if args.method == "log-cumulant-ml" else "neveu"
    value = log_cumulant(LogProcess(which, args.t), args.K)
    _emit_record(args.format, {"process": which, "t": args.t, "j": args.K, "value": value})
    return 0


def _cmd_simulate(args) -> int:
    rng = replicate_rng(args.seed)
    if args.method in ("block-path", "fixation-path"):
        if args.method == "block-path":
            path = simulate_block(args.n, args.t, rng)
        else:
            cap = args.trunc if args.trunc is not None else 1000 * args.n
            path = simulate_fixation(args.n, cap, rng)
        times = [0.0, *map(float, path.jump_times)]
        rows = [[t, int(s)] for t, s in zip(times, path.states)]
        _emit_rows(args.format, ["time", "state"], rows, json_key="path")
        return 0
    if args.method == "hitting":
        est = estimate_hitting(args.i, args.j, args.reps, rng)
        _emit_record(
            args.format,
            {
                "i": args.i,
                "j": args.j,
                "reps": est.reps,
                "seed": args.seed,
                "value": est.value,
                "std_error": est.std_error,
            },
        )
        return 0
    if args.method == "absorption-times":
        values = sample_absorption_times(args.n, args.i, args.reps, rng)
    elif args.method == "block-marginal":
        values = sample_block_marginal(args.n, args.t, args.reps, rng)
    else:  # fixation-marginal
        diagnostics: dict = {}
        values = sample_fixation_marginal(args.n, args.t, args.reps, rng, diagnostics)
        print(json.dumps(diagnostics), file=sys.stderr)
    _emit_rows(args.format, ["value"], [[_fmt(v)] for v in values], json_key="values")
    return 0


def _cmd_converge(args) -> int:
    try:
        grid = [int(v) for v in args.n.split(",")]
    except ValueError:
        raise SystemExit(2)
    tp = TimePoint.from_time(args.t)
    law = mittag_leffler_cdf if args.method == "block" else neveu_cdf
    rows = []
    ks_values = []
    for idx, n in enumerate(grid, start=1):
        rng = replicate_rng(args.seed, idx)
        samples = scaled_marginal_sample(args.method, n, args.t, args.reps, rng)
        ks = ks_distance(samples, lambda x: law(tp, x))
        ks_values.append(ks)
        rows.append([n, args.t, ks, args.reps, args.seed])
    _emit_rows(args.format, ["n", "t", "ks", "reps", "seed"], rows)
    if args.tol is not None and min(ks_values) > args.tol:
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bscoal",
        description=(
            "Exact finite-n quantities for the Bolthausen-Sznitman coalescent: "
            "spectral decompositions, transition/hitting/absorption laws, "
            "Edgeworth expansions, limit-law samplers, and Monte Carlo checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "spectral",
        help="triangular spectral decomposition R D L of a generator truncation",
    )
    p.add_argument("--kind", choices=[k.value for k in GeneratorKind], required=True)
    p.add_argument("--n", type=int, required=True, help="truncation size")
    p.add_argument("--method", choices=("closed", "recursive"), default="closed")
    p.add_argument("--verify", action="store_true", help="report R L = I and R D L = generator")
    _add_common(p)
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("transition", help="fixation-line transition probability p_ij(t)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("stirling", "binomial"), default="stirling")
    _add_common(p)
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("hitting", help="probability the fixation line from i ever occupies j")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=[m.value for m in HittingMethod], default="convolution")
    _add_common(p)
    p.set_defaults(handler=_cmd_hitting)

    p = sub.add_parser("absorption", help="P(block count from n is <= i by time t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_absorption)

    p = sub.add_parser(
        "edgeworth",
        help="order-K expansion of the centered absorption-time CDF in powers of 1/log n",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--K", type=int, default=2)
    _add_common(p)
    p.set_defaults(handler=_cmd_edgeworth)

    p = sub.add_parser(
        "limits",
        help="limit-law marginals: samplers, moments, log-marginal cumulants",
    )
    p.add_argument(
        "--method",
        choices=(
            "sample-mittag-leffler",
            "sample-neveu",
            "moment",
            "log-cumulant-ml",
            "log-cumulant-neveu",
        ),
        required=True,
    )
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, default=1.0, help="moment order (method=moment)")
    p.add_argument("--K", type=int, default=1, help="cumulant order (log-cumulant methods)")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser(
        "simulate",
        help="exact-distribution Monte Carlo: paths, marginals, hitting, absorption times",
    )
    p.add_argument(
        "--method",
        choices=(
            "block-path",
            "fixation-path",
            "block-marginal",
            "fixation-marginal",
            "absorption-times",
            "hitting",
        ),
        required=True,
    )
    p.add_argument("--n", type=int, default=10, help="initial state")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--t", type=float, default=1.0, help="time horizon / marginal time")
    p.add_argument("--trunc", type=int, default=None, help="state cap for fixation paths")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "converge",
        help="KS distance of scaled marginals to the exact limit-law CDF over an n-grid",
    )
    p.add_argument("--method", choices=("block", "fixation"), default="block", help="process")
    p.add_argument("--n", default="100,1000,10000", help="comma-separated n grid")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="exit 1 if best KS exceeds this")
    _add_common(p)
    p.set_defaults(handler=_cmd_converge)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericInstabilityError as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
