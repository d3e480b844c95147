"""Package surface and cold start: what `import bscoal` binds and what it loads.

numpy is most of a cold start, so the closed-form CLI commands must run
without it; the checks are structural (which modules load), not timings.
"""

import os
import subprocess
import sys

import pytest

import bscoal
from bscoal.cli import run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bscoal.__file__)))

# subcommands that evaluate closed forms only
CLOSED_FORM_COMMANDS = [
    ["spectral", "--kind", "bs-fixation", "--n", "8", "--verify"],
    ["spectral", "--kind", "bs-block", "--n", "4", "--format", "json"],
    ["transition", "--i", "2", "--j", "5", "--t", "0.7"],
    ["transition", "--i", "2", "--j", "5", "--t", "0.7", "--method", "binomial"],
    ["hitting", "--i", "1", "--j", "7"],
    ["hitting", "--i", "1", "--j", "7", "--method", "stirling-shift"],
    ["hitting", "--i", "1", "--j", "7", "--method", "stirling-double"],
    ["absorption", "--n", "1000", "--i", "5", "--t", "2.0"],
    ["edgeworth", "--n", "1000", "--i", "2", "--x", "0.5", "--K", "3"],
]


def _python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    def test_import_leaves_numpy_unloaded(self):
        out = _python("import sys, bscoal, bscoal.cli; print('numpy' in sys.modules)")
        assert out.split() == ["False"]

    def test_closed_form_commands_run_without_numpy(self):
        # None in sys.modules makes any import of numpy raise ImportError
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "import contextlib, io\n"
            "from bscoal.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [run(argv) for argv in {CLOSED_FORM_COMMANDS!r}]\n"
            "print(*codes)\n"
        )
        assert _python(code).split() == ["0"] * len(CLOSED_FORM_COMMANDS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hitting", "--i", "1", "--j", "2000", "--method", "integral"],
            ["limits", "--method", "sample-neveu", "--t", "1", "--reps", "10"],
            ["limits", "--method", "moment", "--t", "1", "--x", "2"],
            ["simulate", "--method", "block-marginal", "--n", "20", "--reps", "10"],
            ["converge", "--n", "50", "--t", "1", "--reps", "50"],
        ],
    )
    def test_numpy_commands_still_run(self, capsys, argv):
        assert run(argv) == 0
        assert capsys.readouterr().out


class TestPackageSurface:
    def test_every_public_name_resolves_from_a_bare_import(self):
        code = (
            "import bscoal\n"
            "missing = [n for n in bscoal.__all__ if getattr(bscoal, n, None) is None]\n"
            "ns = {}\n"
            "exec('from bscoal import *', ns)\n"
            "unbound = sorted(set(bscoal.__all__) - set(ns))\n"
            "print(missing, unbound, bscoal.limits.__name__, bscoal.simulate.__name__)\n"
        )
        assert _python(code).strip() == "[] [] bscoal.limits bscoal.simulate"

    def test_lazy_names_are_the_submodule_objects(self):
        from bscoal import limits, simulate

        assert bscoal.sample_neveu is limits.sample_neveu
        assert bscoal.PathSample is simulate.PathSample
        assert {*limits.__all__, *simulate.__all__} <= set(bscoal.__all__)

    def test_dir_lists_every_public_name_before_use(self):
        names = _python("import bscoal; print(*dir(bscoal))").split()
        assert set(bscoal.__all__) <= set(names)
        assert {"limits", "simulate"} <= set(names)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bscoal.no_such_name
        assert not hasattr(bscoal, "np")
