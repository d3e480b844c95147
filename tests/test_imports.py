"""Package surface and cold start: what `import bscoal` binds and what it loads.

numpy is most of a cold start, so the closed-form CLI commands must run
without it; dataclasses (with inspect, ast and dis) and csv are not needed
either.  The checks are structural (which modules load), not timings.
"""

import ast
import copy
import glob
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import bscoal
from bscoal.analytics import TimePoint
from bscoal.cli import run
from bscoal.limits import LogProcess
from bscoal.simulate import EstimateWithError, PathSample
from bscoal.spectral import (
    GeneratorKind,
    SpectralDecomposition,
    TriangularMatrix,
    VerificationReport,
    closed_form_decomposition,
)

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
    ["hitting", "--i", "1", "--j", "2000", "--method", "integral"],
    ["absorption", "--n", "1000", "--i", "5", "--t", "2.0"],
    ["edgeworth", "--n", "1000", "--i", "2", "--x", "0.5", "--K", "3"],
]


def _python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    @pytest.mark.parametrize("module", ["bscoal", "bscoal.cli"])
    def test_import_loads_no_heavy_module(self, module):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "heavy = ('numpy', 'dataclasses', 'inspect', 'csv')\n"
            "print('loaded:', *[m for m in heavy if m in sys.modules and m not in before])\n"
        )
        assert _python(code).split() == ["loaded:"]

    def test_limits_loads_no_numpy_polynomial(self):
        # the graded rule's 10 Gauss-Legendre nodes are literals, not leggauss(10)
        code = "import sys, bscoal.limits\nprint('numpy.polynomial' in sys.modules)\n"
        assert _python(code).split() == ["False"]

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
            ["limits", "--method", "sample-neveu", "--t", "1", "--reps", "10"],
            ["limits", "--method", "moment", "--t", "1", "--x", "2"],
            ["simulate", "--method", "block-marginal", "--n", "20", "--reps", "10"],
            ["converge", "--n", "50", "--t", "1", "--reps", "50"],
            ["simulate", "--method", "block-path", "--n", "10", "--seed", "1"],
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

    def test_all_is_the_union_of_the_module_lists(self):
        from bscoal import analytics, combinatorics, limits, simulate, spectral

        modules = (combinatorics, spectral, analytics, limits, simulate)
        for module in modules:
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
            assert len(set(module.__all__)) == len(module.__all__), module.__name__
        assert set(bscoal.__all__) == {n for module in modules for n in module.__all__}
        assert bscoal._LAZY == {"limits": limits.__all__, "simulate": simulate.__all__}
        assert len(set(bscoal.__all__)) == len(bscoal.__all__)

    def test_dir_lists_every_public_name_before_use(self):
        names = _python("import bscoal; print(*dir(bscoal))").split()
        assert set(bscoal.__all__) <= set(names)
        assert {"limits", "simulate"} <= set(names)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bscoal.no_such_name
        assert not hasattr(bscoal, "np")


def _unused_imports(path: str) -> list[str]:
    """Names a module's top-level imports bind that it never reads, nor lists in __all__."""
    with open(path) as f:
        tree = ast.parse(f.read())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # re-exports: the string entries of __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "bscoal", "*.py"))), ids=os.path.basename
)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


_ROWS = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))

# (record, valid fields, fields its constructor rejects or None)
RECORDS = [
    (TriangularMatrix, (2, "upper", _ROWS), (2, "lower", _ROWS)),
    (SpectralDecomposition, tuple(closed_form_decomposition(GeneratorKind.BS_FIXATION, 2)), None),
    (VerificationReport, (GeneratorKind.BS_BLOCK, 3, True, False), None),
    (TimePoint, (1.0, math.exp(-1.0)), (1.0, 0.9)),
    (LogProcess, ("neveu", 0.5), ("bogus", 0.5)),
    (PathSample, ("block", 3, (0.5,), (3, 1)), ("block", 3, (0.5,), (3,))),
    (EstimateWithError, (0.25, 0.01, 100), None),
]


@pytest.mark.parametrize("cls, fields, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, cls, fields, bad):
        rec = cls(*fields)
        assert rec == cls(**dict(zip(cls._fields, fields)))
        assert tuple(getattr(rec, f) for f in cls._fields) == fields

    def test_value_equality_and_hash(self, cls, fields, bad):
        a, b = cls(*fields), cls(*fields)
        assert a is not b and a == b and hash(a) == hash(b)
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a

    def test_immutable(self, cls, fields, bad):
        rec = cls(*fields)
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], fields[0])
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_repr_names_the_fields(self, cls, fields, bad):
        text = repr(cls(*fields))
        assert text.startswith(f"{cls.__name__}(") and all(f"{f}=" in text for f in cls._fields)


VALIDATED = [r for r in RECORDS if r[2] is not None]


@pytest.mark.parametrize("cls, fields, bad", VALIDATED, ids=[r[0].__name__ for r in VALIDATED])
def test_record_validation_on_construction_and_replace(cls, fields, bad):
    with pytest.raises(ValueError):
        cls(*bad)
    with pytest.raises(ValueError):
        cls(*fields)._replace(**dict(zip(cls._fields, bad)))
