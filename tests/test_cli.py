"""CLI surface: output formats, schemas, exit codes, seeded determinism."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bscoal import cli
from bscoal.analytics import TimePoint, gumbel_limit_cdf
from bscoal.cli import _fmt, run
from bscoal.combinatorics import EULER_GAMMA
from bscoal.limits import sample_mittag_leffler
from bscoal.simulate import replicate_rng, simulate_block
from bscoal.spectral import GeneratorKind, closed_form_decomposition


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestScalarCommands:
    def test_hitting_json_exact_rational(self, capsys):
        code, out = _capture(
            capsys, ["hitting", "--i", "1", "--j", "7", "--method", "stirling-shift", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "19087/60480"

    def test_hitting_csv_round_trip(self, capsys):
        code, out = _capture(capsys, ["hitting", "--i", "1", "--j", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["value"] == "5/12"
        assert out.endswith("\n") and "\r" not in out

    def test_transition_value(self, capsys):
        code, out = _capture(
            capsys, ["transition", "--i", "1", "--j", "1", "--t", "1.0", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.exp(-1), abs=1e-6)

    def test_absorption_value(self, capsys):
        code, out = _capture(
            capsys, ["absorption", "--n", "2", "--i", "1", "--t", "0.5", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1 - math.exp(-0.5), abs=1e-12)

    def test_edgeworth_value(self, capsys):
        code, out = _capture(
            capsys,
            ["edgeworth", "--n", "10000", "--i", "1", "--x", "0.0", "--K", "2", "--format", "json"],
        )
        assert code == 0
        v = json.loads(out)["value"]
        assert 0.0 < v < 1.0

    def test_limits_moment(self, capsys):
        code, out = _capture(
            capsys,
            ["limits", "--method", "moment", "--t", "0.0", "--x", "2.5", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0


class TestSpectral:
    def test_verify_report(self, capsys):
        code, out = _capture(
            capsys,
            ["spectral", "--kind", "bs-fixation", "--n", "10", "--verify", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["RL=I"] is True
        assert data["RDL=Gamma"] is True

    def test_matrix_json_schema(self, capsys):
        code, out = _capture(
            capsys, ["spectral", "--kind", "bs-block", "--n", "4", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["R"]["n"] == 4
        assert len(data["D"]) == 4
        assert data["L"]["entries"][0][0] == "1/1"


class TestSimulation:
    def test_path_csv(self, capsys):
        code, out = _capture(
            capsys, ["simulate", "--method", "block-path", "--n", "20", "--t", "5.0", "--seed", "4"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["state"] == "20"
        states = [int(r["state"]) for r in rows]
        assert states == sorted(states, reverse=True)

    def test_seeded_byte_identical(self, capsys):
        argv = ["simulate", "--method", "fixation-marginal", "--n", "30", "--t", "0.5",
                "--reps", "100", "--seed", "7"]
        _, a = _capture(capsys, argv)
        _, b = _capture(capsys, argv)
        assert a == b

    def test_converge_csv_schema_and_determinism(self, capsys):
        argv = ["converge", "--method", "block", "--n", "50,100", "--t", "1.0",
                "--reps", "200", "--seed", "5"]
        code, a = _capture(capsys, argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(a)))
        assert [r["n"] for r in rows] == ["50", "100"]
        assert all(0.0 < float(r["ks"]) < 1.0 for r in rows)
        _, b = _capture(capsys, argv)
        assert a == b

    def test_hitting_estimate_json(self, capsys):
        code, out = _capture(
            capsys,
            ["simulate", "--method", "hitting", "--i", "1", "--j", "3", "--reps", "2000",
             "--seed", "2", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 5 / 12) < 5 * data["std_error"]


def _csv_one_row_at_a_time(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


class TestEmit:
    def test_fmt_plain_scalars(self):
        for v, want in [
            (np.int64(7), 7),
            (np.float64(0.1), 0.1),
            (np.bool_(True), True),
            (True, True),
            (3, 3),
            (2.5, 2.5),
            ("x", "x"),
        ]:
            got = _fmt(v)
            assert got == want and type(got) is type(want)
        assert _fmt(Fraction(19087, 60480)) == "19087/60480"
        assert _fmt(Fraction(3)) == "3/1"

    def test_limits_csv_equals_row_by_row(self, capsys):
        code, out = _capture(
            capsys,
            ["limits", "--method", "sample-mittag-leffler", "--t", "1", "--reps", "1000", "--seed", "3"],
        )
        values = sample_mittag_leffler(TimePoint.from_time(1.0), replicate_rng(3), size=1000)
        assert code == 0
        assert out == _csv_one_row_at_a_time(["value"], [[float(v)] for v in values])

    def test_block_path_csv_equals_row_by_row(self, capsys):
        code, out = _capture(
            capsys, ["simulate", "--method", "block-path", "--n", "30", "--t", "2.0", "--seed", "9"]
        )
        path = simulate_block(30, 2.0, replicate_rng(9))
        times = [0.0, *map(float, path.jump_times)]
        assert code == 0
        assert out == _csv_one_row_at_a_time(
            ["time", "state"], [[t, int(s)] for t, s in zip(times, path.states)]
        )

    def test_spectral_csv_equals_row_by_row(self, capsys):
        code, out = _capture(capsys, ["spectral", "--kind", "bs-block", "--n", "5", "--format", "csv"])
        dec = closed_form_decomposition(GeneratorKind.BS_BLOCK, 5)

        def frac(v):
            v = Fraction(v)
            return f"{v.numerator}/{v.denominator}"

        rows = [
            [i, j, frac(dec.R.entry(i, j)), frac(dec.L.entry(i, j)), frac(dec.D[j - 1])]
            for i in range(1, 6)
            for j in range(1, 6)
        ]
        assert code == 0
        assert out == _csv_one_row_at_a_time(["i", "j", "R", "L", "D_j"], rows)


# every subcommand's CSV output: tables, paths, value columns and single records
CSV_COMMANDS = [
    ["spectral", "--kind", "bs-block", "--n", "6"],
    ["spectral", "--kind", "kingman-fixation", "--n", "5"],
    ["spectral", "--kind", "bs-fixation", "--n", "6", "--verify"],
    ["transition", "--i", "2", "--j", "5", "--t", "0.7"],
    ["transition", "--i", "2", "--j", "5", "--t", "0.7", "--method", "binomial"],
    ["hitting", "--i", "1", "--j", "7"],
    ["hitting", "--i", "1", "--j", "2000", "--method", "integral"],
    ["absorption", "--n", "1000", "--i", "5", "--t", "2.0"],
    ["edgeworth", "--n", "1000", "--i", "2", "--x", "0.5", "--K", "3"],
    ["limits", "--method", "sample-neveu", "--t", "1", "--reps", "200", "--seed", "4"],
    ["limits", "--method", "sample-mittag-leffler", "--t", "1", "--reps", "200", "--seed", "4"],
    ["limits", "--method", "moment", "--t", "1", "--x", "2"],
    ["limits", "--method", "log-cumulant-ml", "--t", "1", "--K", "3"],
    ["simulate", "--method", "block-path", "--n", "30", "--t", "2.0", "--seed", "4"],
    ["simulate", "--method", "fixation-path", "--n", "5", "--seed", "4"],
    ["simulate", "--method", "block-marginal", "--n", "40", "--reps", "200", "--seed", "4"],
    ["simulate", "--method", "fixation-marginal", "--n", "40", "--reps", "200", "--seed", "4"],
    ["simulate", "--method", "absorption-times", "--n", "40", "--i", "2", "--reps", "200", "--seed", "4"],
    ["simulate", "--method", "hitting", "--i", "1", "--j", "4", "--reps", "200", "--seed", "4"],
    ["converge", "--n", "50,100", "--t", "1", "--reps", "200", "--seed", "4"],
]


class TestCsvWriter:
    """The one-join writer against csv.writer on the cells each command emits."""

    @pytest.mark.parametrize("argv", CSV_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
    def test_matches_csv_module_on_every_command(self, capsys, monkeypatch, argv):
        emitted = []
        emit = cli._emit_rows

        def recording(fmt, header, rows, json_key="rows"):
            rows = [list(r) for r in rows]
            emitted.append((header, rows))
            emit(fmt, header, rows, json_key)

        monkeypatch.setattr(cli, "_emit_rows", recording)
        code, out = _capture(capsys, argv)
        assert code == 0 and len(emitted) == 1
        assert out == _csv_one_row_at_a_time(*emitted[0])

    def test_matches_csv_module_on_edge_values(self, capsys):
        values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1e16, 1e-7, 123456789.0, 0, -3, 2**70, True, False]
        cli._emit_rows("csv", ["value"], zip(values))
        assert capsys.readouterr().out == _csv_one_row_at_a_time(["value"], [[v] for v in values])
        rows = [values[i : i + 3] for i in range(0, len(values), 3)]
        cli._emit_rows("csv", ["a", "b", "c"], rows)
        assert capsys.readouterr().out == _csv_one_row_at_a_time(["a", "b", "c"], rows)

    def test_one_write(self, monkeypatch):
        writes = []
        monkeypatch.setattr(cli.sys, "stdout", type("Out", (), {"write": writes.append})())
        cli._emit_rows("csv", ["i", "v"], [[1, 0.5], [2, 0.25]])
        assert writes == ["i,v\n1,0.5\n2,0.25\n"]


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["hitting", "--i", "1", "--j", "2", "--frob", "3"])
        assert exc.value.code == 2

    def test_domain_error_exit_two(self, capsys):
        code = run(["absorption", "--n", "5", "--i", "9", "--t", "1.0"])
        assert code == 2

    def test_spectral_past_stirling_bound_exit_two(self, capsys):
        assert run(["spectral", "--kind", "bs-block", "--n", "300", "--verify"]) == 2
        err = capsys.readouterr().err
        assert "n = 300" in err and "DEFAULT_NMAX = 256" in err

    def test_hitting_past_stirling_bound_exit_two(self, capsys):
        assert run(["hitting", "--i", "1", "--j", "300", "--method", "stirling-shift"]) == 2
        err = capsys.readouterr().err
        assert "stirling-shift" in err and "j - i + 1 = 300" in err and "DEFAULT_NMAX = 256" in err

    def test_hitting_past_renewal_domain_exit_two(self, capsys):
        assert run(["hitting", "--i", "1", "--j", "1002"]) == 2

    def test_edgeworth_left_tail_is_zero(self, capsys):
        code, out = _capture(
            capsys, ["edgeworth", "--n", "1000", "--i", "2", "--x", "-800", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["edgeworth", "--n", "1000", "--i", "2", "--x", "nan"], "x = nan"),
            (["absorption", "--n", "10", "--i", "2", "--t", "nan"], "t = nan"),
        ],
    )
    def test_nan_argument_exit_two(self, capsys, argv, named):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_simulate_nan_time_exit_two(self, capsys):
        assert run(["simulate", "--method", "block-marginal", "--n", "10", "--t", "nan"]) == 2

    def test_neveu_sample_out_of_float_range_exit_two(self, capsys):
        assert run(["limits", "--method", "sample-neveu", "--t", "20"]) == 2
        assert "t = 20.0" in capsys.readouterr().err

    def test_simulate_hitting_zero_reps_exit_two(self, capsys):
        argv = ["simulate", "--method", "hitting", "--i", "1", "--j", "3", "--reps", "0"]
        assert run(argv) == 2

    def test_converge_has_no_trunc(self, capsys):
        # the limit law enters through its exact CDF: there is no reference to size
        with pytest.raises(SystemExit) as exc:
            run(["converge", "--n", "100", "--t", "1", "--reps", "10", "--trunc", "5"])
        assert exc.value.code == 2

    def test_converge_bad_grid_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["converge", "--n", "1,a", "--t", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bscoal converge")
        assert "argument --n" in err and "'1,a'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["absorption", "--n", "10000", "--i", "1100", "--t", "1"],
            ["edgeworth", "--n", "1000", "--i", str(10**400), "--x", "0.5", "--K", "3"],
            ["transition", "--i", "1100", "--j", "1101", "--t", "1", "--method", "binomial"],
        ],
    )
    def test_binomial_past_float_range_exit_one(self, capsys, argv):
        # C(i, j) leaves the float range from i of about 1030 on; edgeworth
        # needs no C(i, j) and leaves it only with i itself
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric instability:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["limits", "--method", "moment", "--t", "1", "--x", "1000"],
            ["limits", "--method", "moment", "--t", "1", "--x", "inf"],
            ["limits", "--method", "log-cumulant-neveu", "--t", "400", "--K", "2"],
            ["absorption", "--n", "30", "--i", "29", "--t", "3"],
            ["transition", "--i", "60", "--j", "65", "--t", "1", "--method", "binomial"],
            # 1 - F rounds to 1 at F = 2e-19, where i F is about 1: order 1
            # answers there, order 12's terms round past 1e-9
            ["edgeworth", "--n", "1000", "--i", str(2**62), "--x", "-3.76", "--K", "12"],
        ],
    )
    def test_past_float_range_or_cancelling_exit_one(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric instability:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["edgeworth", "--n", "1000", "--i", "1100", "--x", "0.5", "--K", "3"],
            ["edgeworth", "--n", "1000", "--i", "100", "--x", "3", "--K", "0"],
            ["edgeworth", "--n", "1000", "--i", "100", "--x", "0.5", "--K", "3"],
            ["edgeworth", "--n", "1000", "--i", "60", "--x", "3", "--K", "0"],
        ],
    )
    def test_edgeworth_without_binomials_exit_zero(self, capsys, argv):
        # the binomial sums overflowed or cancelled here; every Stirling term
        # carries (1 - F)^(i - m) < 1e-30, so the value rounds to 1
        assert run([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1.0

    def test_edgeworth_order_zero_keeps_i_f(self, capsys):
        # d_0 = -expm1(i log1p(-F)) needs no 1 - F, so order 0 answers there
        assert run(["edgeworth", "--n", "1000", "--i", str(2**62), "--x", "-3.76", "--K", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == gumbel_limit_cdf(2**62, -3.76) > 0.6

    def test_log_cumulant_ml_past_alpha_underflow(self, capsys):
        # the log-cumulant methods build no TimePoint, so e^-t = 0 is no error
        assert run(["limits", "--method", "log-cumulant-ml", "--t", "800", "--K", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == -EULER_GAMMA

    def test_log_cumulant_neveu_past_float_range_exit_one(self, capsys):
        assert run(["limits", "--method", "log-cumulant-neveu", "--t", "800", "--K", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numeric instability:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["limits", "--method", "moment", "--t", "1", "--x", "nan"],
            ["limits", "--method", "log-cumulant-neveu", "--t", "nan"],
        ],
    )
    def test_limits_nan_exit_two(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_converge_tol_failure_exit_one(self, capsys):
        code = run(["converge", "--method", "block", "--n", "50", "--t", "1.0",
                    "--reps", "100", "--seed", "1", "--tol", "0.0001"])
        assert code == 1
