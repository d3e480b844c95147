"""CLI surface: output formats, schemas, exit codes, seeded determinism."""

import csv
import io
import json
import math

import pytest

from bscoal.cli import run


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

    def test_recursive_matches_closed(self, capsys):
        _, closed = _capture(capsys, ["spectral", "--kind", "kingman-fixation", "--n", "6"])
        _, rec = _capture(
            capsys, ["spectral", "--kind", "kingman-fixation", "--n", "6", "--method", "recursive"]
        )
        assert closed == rec


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

    def test_hitting_past_renewal_domain_exit_two(self, capsys):
        assert run(["hitting", "--i", "1", "--j", "1002"]) == 2

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

    def test_converge_tol_failure_exit_one(self, capsys):
        code = run(["converge", "--method", "block", "--n", "50", "--t", "1.0",
                    "--reps", "100", "--seed", "1", "--tol", "0.0001"])
        assert code == 1
