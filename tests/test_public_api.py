"""The package's public surface: the names `import ilim` binds, and the
modules it loads."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import ilim

# every public module but the command line is re-exported
REEXPORTED = sorted(m.name for m in pkgutil.iter_modules(ilim.__path__)
                    if m.name != "cli" and not m.name.startswith("_"))

# public names that no module and no bench script uses: reference
# implementations that only tests run, each with the reason it is kept
TEST_ONLY = (
    ("gronwall_envelope", "acceptance criterion 8 checks it against its closed form"),
    ("trace_from_callable", "builds the wall traces of acceptance criteria 1 and 3"),
    ("make_curved_chart", "the curved corrector of acceptance criterion 3"),
    ("plateau_eta", "the curved corrector's plateau cut-off, refined in its tests"),
    ("curved_gamma", "the curved corrector of acceptance criterion 3"),
    ("curved_corrector", "the curved corrector of acceptance criterion 3"),
    ("curved_divergence", "the curved corrector's divergence identity, criterion 3"),
    ("lp_norm", "the whole-field oracle of the criteria's strip sums"),
    ("layer_region", "the whole-field oracle of the criteria's strip rows"),
    ("divergence2d", "the oracle of the corrector's divergence identity"),
    ("sweep_config_from_dict", "reads a report manifest's config back: the round trip"),
    ("read_snapshot", "the reader of one snapshot file, the format's reference"),
)

# public members of the classes above that no module and no bench script
# uses, as "Class.member", each with the reason it is kept
TEST_ONLY_MEMBERS = ()

# dataclass fields of the classes above that no module and no bench script
# reads by name, as "Class.field", each with the reason it is kept
_IDENTITY_TERM = "a term of the energy identity that the residual balances"
TEST_ONLY_FIELDS = (
    ("EnergyBudget.lhs_rate", _IDENTITY_TERM),
    ("EnergyBudget.dissipation", _IDENTITY_TERM),
    ("EnergyBudget.i1", _IDENTITY_TERM),
    ("EnergyBudget.i2", _IDENTITY_TERM),
    ("RateFit.prefactor", "written to rates.json by asdict"),
    ("RateFit.n_samples", "written to rates.json by asdict"),
    ("ScalingRow.quantity", "a column of the scaling CSV, written by astuple"),
    ("CurvedChart.delta", "the strip height above which criterion 3 finds the corrector 0"),
    ("Snapshot.u1", "the payload that read_snapshot, the format's reference, returns"),
    ("Snapshot.u2", "the payload that read_snapshot, the format's reference, returns"),
)


def test_package_all_is_every_module_all_once():
    assert len(ilim.__all__) == len(set(ilim.__all__))
    expected = {"__version__": ilim._version}
    for name in REEXPORTED:
        module = importlib.import_module(f"ilim.{name}")
        for attr in module.__all__:
            assert attr not in expected, f"{attr} is public in two modules"
            expected[attr] = module
    assert set(ilim.__all__) == set(expected)
    for attr, module in expected.items():
        assert getattr(ilim, attr) is getattr(module, attr), attr


def _loaded(modules):
    """Code that prints which of `modules` the interpreter has imported."""
    return f"print(sorted(m for m in {modules!r} if m in sys.modules))"


@pytest.mark.parametrize("module", ["ilim", "ilim.cli"])
def test_import_leaves_quadrature_and_fft_unloaded(module, run_python):
    # each is imported by the code path that uses it, if it runs
    deferred = ("scipy.integrate", "scipy.fft", "scipy.linalg", "scipy.optimize")
    assert run_python(f"import sys, {module}; {_loaded(deferred)}") == "[]"


_SHEAR_STUDY = ("from ilim.harness import emit_shear_report, shear_limit_study; "
                "emit_shear_report(shear_limit_study(nu_values=(1e-2, 1e-3), "
                "t_final=0.5, n_times=4, ny=65, n_modes=256), sys.argv[1])")
_CLI = "from ilim.cli import cli_dispatch; assert cli_dispatch(sys.argv[1:]) == 0"


@pytest.mark.parametrize("command, args", [
    (_SHEAR_STUDY, []),
    (_CLI, ["criteria"]),
    (_CLI, ["corrector-check", "--out"]),
], ids=["shear-study", "criteria", "corrector-check"])
def test_solver_free_commands_leave_linalg_and_optimize_unloaded(
        command, args, run_python, tmp_path):
    # they step no solver, find no root and take no scipy DST, so they load
    # no scipy module at all (scipy.fft, scipy.special, ...); each writes
    # into `out`, its last argument
    out = tmp_path / "out"
    if args == ["criteria"]:
        # the stored pair is made here; only the criteria run is watched
        from ilim.cli import cli_dispatch
        assert cli_dispatch(["simulate", "--nx", "16", "--ny", "33", "--T", "0.05",
                             "--dt", "5e-3", "--out", str(out)]) == 0
    code = (f"import sys; {command}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code, *args, out) == "[]"
    assert any(out.iterdir())


def test_stepped_run_loads_lapack_without_the_linalg_package(run_python, tmp_path):
    # the steppers load scipy's LAPACK extension alone, under its own name,
    # so a later import of scipy.linalg hands out the same routine objects
    code = (f"import sys; {_CLI}; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.linalg._flapack') "
            "if m in sys.modules), end=' '); "
            "from ilim import solvers; from scipy.linalg import lapack; "
            "print(lapack.zgttrs is solvers._lapack().zgttrs)")
    out = tmp_path / "run"
    assert run_python(code, "simulate", "--nx", "16", "--ny", "33", "--T", "0.05",
                      "--dt", "5e-3", "--out", out) == "['scipy.linalg._flapack'] True"
    assert any(out.iterdir())


def test_lapack_loader_names_the_directory_it_searched(run_python, tmp_path):
    # one load path: no fallback to importing scipy.linalg
    code = ("import sys, scipy; scipy.__path__ = [sys.argv[1]]; "
            "from ilim import solvers\n"
            "try:\n    solvers._lapack()\n"
            "except ImportError as exc:\n"
            "    print(exc, 'scipy.linalg' in sys.modules)")
    assert run_python(code, tmp_path) == (
        f"no _flapack extension module in {tmp_path}/linalg False")


def test_curved_corrector_and_envelope_leave_quadrature_unloaded(run_python):
    # both integrate in closed form or by the package's own Gauss-Legendre
    # table, so nothing in the package imports scipy.integrate
    code = ("import sys, numpy as np; "
            "from ilim.analysis import gronwall_envelope; "
            "from ilim.correctors import (curved_corrector, curved_gamma, "
            "make_curved_chart, trace_from_callable); "
            "from ilim.grid import make_channel_grid; "
            "g = make_channel_grid(8, 33, 2 * np.pi, 1.5, clustering='uniform'); "
            "chart = make_curved_chart(delta=1.0); "
            "curved_corrector(trace_from_callable(g, np.cos), 1.0, 0.05, chart, g); "
            "curved_gamma(1.0, 0.05, chart); "
            "t = np.linspace(0.0, 1.0, 5); gronwall_envelope(t, 1.0, t); "
            f"{_loaded(('scipy.integrate',))}")
    assert run_python(code) == "[]"


def _referenced_names(paths):
    """Every name that a Name, an Attribute or an `from ... import` in the
    sources `paths` refers to."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _sources():
    """The package's modules and the bench scripts."""
    root = Path(ilim.__file__).resolve().parents[2]
    sources = [*(root / "src" / "ilim").glob("*.py"), *(root / "bench").glob("*.py")]
    assert any(p.parent.name == "bench" for p in sources)
    return sources


def test_every_public_name_is_used_or_a_listed_reference():
    # a public name nothing runs is a second name for a quantity; delete it,
    # or list it in TEST_ONLY with the reason it is kept
    test_only = dict(TEST_ONLY)
    assert len(test_only) == len(TEST_ONLY) and set(test_only) <= set(ilim.__all__)
    used = _referenced_names(_sources())
    assert sorted(set(ilim.__all__) - used - set(test_only)) == []
    assert sorted(used & set(test_only)) == []


def _public_members():
    """Each public method, property and class attribute of the classes in
    ilim.__all__, their package bases' included, as "Class.member".
    Dataclass fields are left out: each one's own declaration is a Name, so
    the scan would always find it."""
    members = set()
    for cls in (getattr(ilim, n) for n in ilim.__all__):
        if not isinstance(cls, type):
            continue
        own = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for base in cls.__mro__:
            if base.__module__.startswith("ilim."):
                members.update(f"{cls.__name__}.{m}" for m in vars(base)
                               if not m.startswith("_") and m not in own)
    return members


def test_every_public_member_is_used_or_a_listed_reference():
    # a member only tests call is a second name for a quantity, as a public
    # name is; delete it, or list it in TEST_ONLY_MEMBERS with its reason
    test_only = dict(TEST_ONLY_MEMBERS)
    members = _public_members()
    assert len(test_only) == len(TEST_ONLY_MEMBERS) and set(test_only) <= members
    used = _referenced_names(_sources())
    unused = {m for m in members if m.split(".")[1] not in used}
    assert sorted(unused - set(test_only)) == []
    assert sorted(unused & set(test_only)) == sorted(test_only)


def _read_names(paths):
    """Every attribute name and string constant in the sources `paths`: a
    field is read as `x.field`, or by its name (getattr, a column table).
    A field's own declaration is neither."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_field_is_read_or_a_listed_reference():
    # a result field nothing reads is a second copy of a result; delete it,
    # or list it in TEST_ONLY_FIELDS with the reason it is kept
    test_only = dict(TEST_ONLY_FIELDS)
    classes = (getattr(ilim, n) for n in ilim.__all__)
    fields = {f"{cls.__name__}.{f.name}" for cls in classes
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              for f in dataclasses.fields(cls)}
    assert len(test_only) == len(TEST_ONLY_FIELDS) and set(test_only) <= fields
    read = _read_names(_sources())
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert sorted(unread - set(test_only)) == []
    assert sorted(unread & set(test_only)) == sorted(test_only)
