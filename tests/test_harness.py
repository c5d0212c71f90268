"""Sweep orchestration, config parsing, report files, and the CLI."""

import csv
import json
import multiprocessing
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilim import cli, solvers
from ilim.analysis import error_series
from ilim.cli import cli_dispatch
from ilim.criteria import CRITERIA_CSV_HEADER, CriterionReport, evaluate_criteria
from ilim.harness import (
    SweepConfig,
    emit_report,
    emit_shear_report,
    parse_config,
    run_sweep,
    shear_limit_study,
    sweep_config_from_dict,
)
from ilim.snapshots import load_trajectory
from ilim.solvers import (
    CFLError,
    EulerIntegrator,
    NavierStokesIntegrator,
    ShearFlow,
    run_simulation,
)

SMALL = dict(
    nx=16, ny=33, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear",
    nu_values=(1e-2, 1e-3, 1e-4),
)

FULL_INI = """\
[grid]
nx = 16
ny = 33
period = 6.283185307179586
height = 6.0
clustering = tanh
strength = 2.0

[time]
dt = 5e-3
t_final = 0.05
n_outputs = 5

[data]
preset = shear
amplitude = 1.0
seed = 0

[sweep]
nu = 1e-2, 1e-3 1e-4

[schedule]
form = power
c = 2.5
a = 0.5

[layer]
C = 12.0
r = inf
use_du1dy = true
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_full(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(FULL_INI)
    cfg = parse_config(path)
    assert (cfg.nx, cfg.ny) == (16, 33)
    assert cfg.clustering == "tanh" and cfg.strength == 2.0
    assert cfg.dt == 5e-3 and cfg.t_final == 0.05 and cfg.n_outputs == 5
    assert cfg.preset == "shear" and cfg.amplitude == 1.0 and cfg.seed == 0
    assert cfg.nu_values == (1e-2, 1e-3, 1e-4)
    # [schedule] c and [layer] C are distinct, case-sensitive keys
    assert cfg.m_c == 2.5 and cfg.layer_c == 12.0
    assert np.isinf(cfg.r)
    assert cfg.use_du1dy is True


def test_parse_config_free_form_preset_options(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[data]\npreset = vortex\namplitude = 2.0\nsigma = 0.5\nmodes = 3\n"
        "profile = exp\n"
        "[sweep]\nnu = 1e-3\n"
    )
    cfg = parse_config(path)
    assert cfg.preset == "vortex"
    assert cfg.preset_options == {"sigma": 0.5, "modes": 3, "profile": "exp"}
    assert isinstance(cfg.preset_options["modes"], int)
    # the manifest round trip keeps a string option a string
    back = sweep_config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.preset_options == cfg.preset_options


@pytest.mark.parametrize(
    "body, match",
    [
        ("[plasma]\nfoo = 1\n", "unknown config section"),
        ("[grid]\nnz = 4\n", "unknown config key"),
        # the worker count is a run option (--jobs, ILIM_JOBS), not a config key
        ("[sweep]\njobs = 2\n", "unknown config key 'jobs' in \\[sweep\\]"),
        ("[sweep]\nnu = -1e-3\n", "positive"),
        ("[sweep]\nnu =\n", "at least one nu"),
        ("[layer]\nr = 0.5\n", r"^\[layer\] r = 0.5: r must be >= 1"),
        ("[layer]\nC = 0.5\n", r"^\[layer\] C = 0.5: layer constant C must exceed 1"),
        ("[layer]\nr = nan\n", r"^\[layer\] r = nan: r must be >= 1"),
        ("[schedule]\nc = nan\n", r"^\[schedule\] c = nan: schedule amplitude must be"),
        ("[schedule]\nc = inf\n", r"^\[schedule\] c = inf: .* must be positive and finite"),
        ("[schedule]\nform = foo\n", r"^\[schedule\] form = foo: unknown schedule form"),
        ("[schedule]\nform = table\n", r"^\[schedule\] form = table: table form needs"),
        ("[data]\namplitude = abc\n", r"^\[data\] amplitude = abc: could not convert"),
        ("[data]\nseed = x\n", r"^\[data\] seed = x: invalid literal"),
        ("[data]\namplitude = nan\n", r"^\[data\] amplitude = nan: not a finite number"),
        ("[data]\namplitude = -inf\n", r"^\[data\] amplitude = -inf: not a finite number"),
        # a free-form preset option that reads as a number must be finite
        ("[data]\nsigma = nan\n", r"^\[data\] sigma = nan: not a finite number"),
        ("[data]\nsigma = inf\n", r"^\[data\] sigma = inf: not a finite number"),
        ("[data]\nseed = -1\n", r"^\[data\] seed = -1: not a non-negative integer"),
    ],
)
def test_parse_config_rejects_bad_input(tmp_path, body, match):
    path = tmp_path / "sweep.ini"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        parse_config(path)


@pytest.mark.parametrize("edit, flags, cause", [
    (("r = inf", "r = 0.5"), [], "[layer] r = 0.5: r must be >= 1"),
    (("C = 12.0", "C = 0.5"), [], "[layer] C = 0.5: layer constant C must exceed 1"),
    (None, ["--C", "0.5"], "layer constant C must exceed 1"),
    (None, ["--nu=-1e-3"], "--nu -1e-3: nu values must be positive"),
    # errors that hold for every nu, found before the first run
    (("n_outputs = 5", "n_outputs = 3"), [], "[time] n_outputs must divide t_final/dt"),
    (("form = power", "form = foo"), [], "unknown schedule form 'foo'"),
    (("clustering = tanh", "clustering = foo"), [], "[grid] unknown clustering 'foo'"),
    (("strength = 2.0", "strength = -1.0"), [],
     "[grid] tanh clustering requires strength > 0"),
    (("preset = shear", "preset = plume"), [],
     "[data] preset = plume: unknown preset 'plume'"),
    (("seed = 0", "seed = 0\nsigma = 0.5"), [],
     "[data] preset = shear: unknown option 'sigma'; it takes ['profile', 'scale']"),
    (("c = 2.5", "c = nan"), [], "[schedule] c = nan: schedule amplitude must be positive"),
    (("form = power", "form = table"), [], "[schedule] form = table: table form needs"),
    (("a = 0.5", "a = inf"), [], "[schedule] a = inf: schedule power a must be finite"),
    (None, ["--M-form", "foo"], "--M-form foo: unknown schedule form 'foo'"),
    (("t_final = 0.05", "t_final = inf"), [],
     "[time] dt and t_final must be finite and positive"),
    (("dt = 5e-3", "dt = nan"), [], "[time] dt and t_final must be finite and positive"),
    (("nx = 16", "nx = 15"), [], "[grid] nx must be an even integer >= 4"),
    (("amplitude = 1.0", "amplitude = nan"), [], "[data] amplitude = nan: not a finite number"),
    (("height = 6.0", "height = 1e300"), [],
     "[grid] height and ny give wall-normal spacings whose derivative stencils overflow"),
    (("preset = shear", "preset = vortex\nsigma = inf"), [],
     "[data] sigma = inf: not a finite number"),
    # the seed is checked under every preset, used or not
    (("seed = 0", "seed = -1"), [], "[data] seed = -1: not a non-negative integer"),
    (("preset = shear\namplitude = 1.0\nseed = 0",
      "preset = perturbed-shear\namplitude = 1.0\nseed = -1"), [],
     "[data] seed = -1: not a non-negative integer"),
    (("preset = shear", "preset = perturbed-shear\nsigma = 0.5"), [],
     "[data] preset = perturbed-shear: unknown option 'sigma'; it takes "
     "['epsilon', 'modes', 'profile', 'scale']"),
    # each preset option with a range is held to it before any run
    (("preset = shear", "preset = vortex\nsigma = 0"), [], "[data] sigma = 0: must be positive"),
    (("seed = 0", "seed = 0\nscale = 0"), [], "[data] scale = 0: must be positive"),
    (("preset = shear", "preset = adverse-shear\nscale = -1.0"), [],
     "[data] scale = -1.0: must be positive"),
    (("preset = shear", "preset = perturbed-shear\nmodes = 0"), [],
     "[data] modes = 0: must be a positive integer"),
    (("preset = shear", "preset = perturbed-shear\nmodes = 2.5"), [],
     "[data] modes = 2.5: must be a positive integer"),
])
def test_cli_rejects_bad_layer_value_before_running(tmp_path, capsys, edit,
                                                    flags, cause):
    ini = tmp_path / "sweep.ini"
    ini.write_text(FULL_INI.replace(*edit) if edit else FULL_INI)
    out = tmp_path / "report"
    assert cli_dispatch(["sweep", "--config", str(ini), *flags,
                         "--out", str(out)]) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        parse_config(tmp_path / "nope.ini")


def test_sweep_config_round_trip():
    cfg = SweepConfig(**SMALL)
    cfg.r = np.inf
    cfg.preset_options = {"scale": 0.5}
    back = sweep_config_from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


_positive = st.floats(min_value=1e-8, max_value=1e8)
# no word from these letters reads as a number or names a [data] row key
_word = st.text("abcxyz_", min_size=1, max_size=8)
_sweep_configs = st.builds(
    SweepConfig,
    nx=st.integers(4, 1024), ny=st.integers(3, 1024),
    period=_positive, height=_positive,
    clustering=st.sampled_from(("uniform", "tanh")), strength=_positive,
    dt=_positive, t_final=_positive, n_outputs=st.integers(1, 1000),
    preset=st.sampled_from(("shear", "adverse-shear", "perturbed-shear", "vortex")),
    amplitude=st.floats(-1e3, 1e3), seed=st.integers(0, 2**31),
    preset_options=st.dictionaries(
        _word, st.one_of(st.integers(-10**6, 10**6), _positive, _word), max_size=3
    ),
    nu_values=st.lists(_positive, min_size=1, max_size=4).map(tuple),
    m_form=st.sampled_from(("constant", "power")),
    m_c=_positive, m_a=st.floats(-4.0, 4.0),
    layer_c=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    r=st.one_of(st.just(np.inf), st.floats(1.0, 1e3)),
    use_du1dy=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(cfg=_sweep_configs)
def test_sweep_config_json_round_trip(cfg):
    assert sweep_config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(max_examples=25, deadline=None)
@given(cfg=_sweep_configs)
def test_sweep_config_ini_round_trip(cfg, tmp_path_factory):
    lines = []
    for section, values in cfg.to_dict().items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            text = ", ".join(map(repr, value)) if isinstance(value, list) else value
            lines.append(f"{key} = {text}")
    path = tmp_path_factory.mktemp("ini") / "sweep.ini"
    path.write_text("\n".join(lines) + "\n")
    assert parse_config(path) == cfg


def test_sweep_config_builders():
    cfg = SweepConfig(**SMALL)
    sched = cfg.schedule()
    assert sched.form == "power" and sched.c == 1.0 and sched.a == 0.5
    spec = cfg.layer_spec()
    assert spec.C == 10.0 and spec.r == 2.0 and not spec.use_du1dy
    sim = cfg.simulation_config(1e-3)
    assert sim.nu == 1e-3 and sim.nx == 16 and sim.dt == 5e-3


# ---------------------------------------------------------------------------
# sweeps


@pytest.fixture(scope="module")
def small_sweep_serial():
    return run_sweep(SweepConfig(**SMALL), jobs=1)


def test_sweep_records_follow_config_order(small_sweep_serial):
    result = small_sweep_serial
    assert [r.nu for r in result.records] == [1e-2, 1e-3, 1e-4]
    assert all(r.ok for r in result.records)
    assert result.c_fit > 0.0
    assert result.fit is not None and result.fit_sq is not None
    assert result.fit_sq.n_samples == 3


def test_sweep_parallel_output_is_byte_identical(small_sweep_serial, tmp_path):
    parallel = run_sweep(SweepConfig(**SMALL), jobs=3)
    d_serial, d_parallel = tmp_path / "serial", tmp_path / "parallel"
    names = emit_report(small_sweep_serial, d_serial)
    names_p = emit_report(parallel, d_parallel)
    assert names == names_p
    for name in names:
        assert (d_serial / name).read_bytes() == (d_parallel / name).read_bytes()


def test_sweep_honors_jobs_env(small_sweep_serial, tmp_path, monkeypatch):
    monkeypatch.setenv("ILIM_JOBS", "2")
    result = run_sweep(SweepConfig(**SMALL))  # jobs resolved from the env
    d_env, d_ref = tmp_path / "env", tmp_path / "ref"
    emit_report(result, d_env)
    emit_report(small_sweep_serial, d_ref)
    for name in ("sweep.csv", "rates.json", "criteria.csv", "manifest.json"):
        assert (d_env / name).read_bytes() == (d_ref / name).read_bytes()


def test_sweep_isolates_failing_nu(tmp_path):
    cfg = SweepConfig(**{**SMALL, "nu_values": (1e-2, -1.0)})
    result = run_sweep(cfg, jobs=1)
    assert [r.status for r in result.records] == ["ok", "failed"]
    assert "positive" in result.records[1].message
    names = emit_report(result, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2].startswith("-1.0,failed")
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert rates["failed_nu"] == [-1.0]
    assert rates["nu"] == [0.01]


class _NoPool:
    def __init__(self, processes):
        raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("edit, message", [
    ({"clustering": "foo"}, "[grid] unknown clustering 'foo'"),
    ({"preset": "plume"}, "[data] preset = plume: unknown preset 'plume'"),
    ({"t_final": 0.0501}, "[time] t_final must be an integer number of steps of dt"),
])
def test_sweep_set_up_faults_raise_before_any_worker(monkeypatch, edit, message):
    monkeypatch.setattr(multiprocessing, "Pool", _NoPool)
    with pytest.raises(ValueError) as info:
        run_sweep(SweepConfig(**{**SMALL, **edit}), jobs=2)
    assert str(info.value).startswith(message)


def test_grid_builds_per_set_up(monkeypatch):
    real, calls = solvers.make_channel_grid, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "make_channel_grid", counting)
    cfg = SweepConfig(**SMALL)
    # a serial sweep: one set-up check before the workers, one set-up in
    # the lone worker for all three nu; a lone paired run: one set-up
    run_sweep(cfg, jobs=1)
    assert len(calls) == 2
    run_simulation(cfg.simulation_config(1e-3))
    assert len(calls) == 3


def test_sweep_raises_when_every_nu_fails():
    cfg = SweepConfig(**{**SMALL, "nu_values": (-1.0, -2.0)})
    with pytest.raises(RuntimeError, match="every nu failed"):
        run_sweep(cfg, jobs=1)


class _InlinePool:
    """A stand-in for multiprocessing.Pool that maps in this process, so
    monkeypatched solvers reach every share."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


@pytest.mark.parametrize("jobs", [1, 2, 3, 5])
def test_sweep_steps_euler_once_per_worker(monkeypatch, jobs):
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    real_run, calls = EulerIntegrator.run, []

    def counting(self, *args, **kwargs):
        calls.append(self.dt)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(EulerIntegrator, "run", counting)
    result = run_sweep(SweepConfig(**SMALL), jobs=jobs)
    assert len(calls) == min(jobs, len(SMALL["nu_values"]))
    assert [r.nu for r in result.records] == list(SMALL["nu_values"])
    assert all(r.ok for r in result.records)


@pytest.mark.parametrize("nus", [(1e-2, 1e-3, 1e-4), (1e-3, 1e-2, 1e-3)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_equal_run_simulation_bitwise(jobs, nus):
    cfg = SweepConfig(**{**SMALL, "preset": "perturbed-shear", "nu_values": nus})
    result = run_sweep(cfg, jobs=jobs)
    assert [r.nu for r in result.records] == list(nus)
    for rec in result.records:
        pair = run_simulation(cfg.simulation_config(rec.nu))
        series = error_series(pair.ns, pair.euler)
        report = evaluate_criteria(pair.ns, pair.euler, cfg.schedule(),
                                   cfg.layer_spec())
        assert rec.ok
        assert rec.times.tobytes() == series.times.tobytes()
        assert rec.err_sq.tobytes() == series.values.tobytes()
        for f in fields(CriterionReport):
            got, want = getattr(rec.criteria, f.name), getattr(report, f.name)
            assert type(got) is type(want), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name


def _simulation_error(cfg, nu) -> str:
    """The message of the exception a lone paired run of `nu` raises."""
    with pytest.raises(Exception) as info:
        run_simulation(cfg.simulation_config(nu))
    return str(info.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_failure_messages_follow_run_simulation(monkeypatch, jobs):
    # shares at jobs = 2: (-1.0, 1e-2) sets up on -1.0, before its nu
    # check fails, and (1e-3, 1e-4) steps its Euler run only after 1e-4's
    # NS run
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    cfg = SweepConfig(**{**SMALL, "nu_values": (-1.0, 1e-3, 1e-2, 1e-4)})
    real_ns = NavierStokesIntegrator.run

    def ns_run(self, *args, **kwargs):
        if self.nu == 1e-3:
            raise RuntimeError("NS run failed")
        return real_ns(self, *args, **kwargs)

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    result = run_sweep(cfg, jobs=jobs)
    assert [r.status for r in result.records] == ["failed", "failed", "ok", "ok"]
    assert [r.message for r in result.records[:2]] == [
        _simulation_error(cfg, nu) for nu in (-1.0, 1e-3)
    ]
    assert result.records[1].message == "NS run failed"

    def euler_run(self, *args, **kwargs):
        raise CFLError("Euler run failed")

    monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    expected = [_simulation_error(cfg, nu) for nu in cfg.nu_values]
    assert expected[1:] == ["NS run failed", "Euler run failed", "Euler run failed"]
    with pytest.raises(RuntimeError) as info:
        run_sweep(cfg, jobs=jobs)
    assert str(info.value) == "every nu failed: " + "; ".join(
        f"nu={nu!r}: {msg}" for nu, msg in zip(cfg.nu_values, expected)
    )


def test_report_files_and_manifest(small_sweep_serial, tmp_path):
    names = emit_report(small_sweep_serial, tmp_path)
    header = (tmp_path / "sweep.csv").read_text().split("\n")[0]
    assert header == (
        "nu,status,sup_error_sq,sup_error,bound_at_t_final,backflow_margin_min,"
        "cond_pass_all,wall_vort_margin_min,under_resolved_any,message"
    )
    # every numeric cell of an ok row is a plain float a CSV reader parses
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["status"] == "ok"]
    assert len(rows) == 3
    for row in rows:
        for key in ("nu", "sup_error_sq", "sup_error", "bound_at_t_final",
                    "backflow_margin_min", "wall_vort_margin_min"):
            float(row[key])
    crit_lines = (tmp_path / "criteria.csv").read_text().strip().split("\n")
    assert crit_lines[0] == CRITERIA_CSV_HEADER
    assert len(crit_lines) == 1 + 3 * 6  # three nus, six output times each
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == sorted(names)
    assert sweep_config_from_dict(manifest["config"]).to_dict() == (
        small_sweep_serial.config.to_dict()
    )
    # plot files are two parseable columns
    for line in (tmp_path / "rate_points.dat").read_text().strip().split("\n"):
        a, b = line.split()
        assert float(a) > 0.0 and float(b) > 0.0
    assert (tmp_path / "error_series_00.dat").exists()
    assert (tmp_path / "bound_series_00.dat").exists()


# ---------------------------------------------------------------------------
# shear study


def test_shear_study_light():
    study = shear_limit_study(nu_values=(1e-2, 1e-3), t_final=0.5, n_times=10, ny=97)
    assert study.times.size == 11
    assert study.err_sq.shape == (2, 11)
    assert study.c_fit > 0.0
    assert study.calibration_nu == (1e-2, 1e-3)
    assert study.holdout_bound_ok == {}
    assert study.fit is None  # fewer than 3 nus
    for r, reports in study.reports_by_r.items():
        assert len(reports) == 2
        assert all(rep.all_pass for rep in reports)
        assert not any(rep.under_resolved.any() for rep in reports)


def test_shear_study_evaluates_each_basis_once_per_scheme(monkeypatch):
    calls = []
    for name in ("profile", "dprofile"):
        method = getattr(ShearFlow, name)

        def counting(self, *args, _method=method, **kwargs):
            calls.append(_method.__name__)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(ShearFlow, name, counting)
    shear_limit_study(nu_values=(1e-2, 1e-3), n_times=10, ny=97)
    # one profile and one dprofile call per nu, shared by both schemes
    assert calls == ["profile", "dprofile"] * 2


def test_shear_study_holdout_and_fit():
    study = shear_limit_study(
        nu_values=(1e-2, 1e-3, 1e-4), t_final=0.5, n_times=10, ny=97
    )
    assert study.holdout_bound_ok == {1e-4: True}
    assert 0.7 <= study.fit.exponent <= 1.2
    assert study.fit_sq.exponent == pytest.approx(2.0 * study.fit.exponent, rel=1e-12)


def test_shear_study_validation():
    with pytest.raises(ValueError):
        shear_limit_study(nu_values=())
    with pytest.raises(ValueError):
        shear_limit_study(nu_values=(1e-3, 0.0))
    with pytest.raises(ValueError, match="nu values must be positive"):
        shear_limit_study(nu_values=(1e-3, np.nan))


def test_shear_report_files(tmp_path):
    study = shear_limit_study(nu_values=(1e-2, 1e-3), t_final=0.5, n_times=10, ny=97)
    names = emit_shear_report(study, tmp_path)
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert set(rates["criteria_all_pass"]) == {"1.0", "2.0", "inf"}
    assert all(rates["criteria_all_pass"].values())
    assert rates["calibration_nu"] == [1e-2, 1e-3]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["pipeline"] == "shear-verify"
    assert manifest["files"] == sorted(names)
    crit = (tmp_path / "criteria.csv").read_text().strip().split("\n")
    assert crit[0] == CRITERIA_CSV_HEADER


# ---------------------------------------------------------------------------
# CLI


def test_cli_requires_subcommand(capsys):
    assert cli_dispatch([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_cli_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["--version"])
    assert exc.value.code == 0


def test_cli_simulate_and_criteria(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_dispatch([
        "simulate", "--nx", "16", "--ny", "33", "--T", "0.05", "--dt", "0.005",
        "--nu", "1e-3", "--out", str(out),
    ])
    assert code == 0
    assert "paired run" in capsys.readouterr().out
    ns = load_trajectory(out / "ns")
    euler = load_trajectory(out / "euler")
    assert ns.scheme == "ns" and euler.scheme == "euler"
    assert len(ns.states) == 11  # default n_outputs = 10

    code = cli_dispatch(["criteria", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "criteria:" in captured
    lines = (out / "criteria.csv").read_text().strip().split("\n")
    assert lines[0] == CRITERIA_CSV_HEADER
    assert len(lines) == 12

    # a manifest whose nu disagrees with its snapshots' is rejected
    manifest = json.loads((out / "ns" / "manifest.json").read_text())
    (out / "ns" / "manifest.json").write_text(json.dumps({**manifest, "nu": 0.5}))
    assert cli_dispatch(["criteria", str(out)]) == 1
    assert "snap_0000.bin" in capsys.readouterr().err


def _poke_u1(value, node):
    """Overwrite u1 at `node` of the NS run's second snapshot (33 rows), header
    kept."""
    def poke(run, monkeypatch):
        path = run / "ns" / "snap_0001.bin"
        raw = bytearray(path.read_bytes())
        offset = 56 + 8 * (node[0] * 33 + node[1])
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
    return poke


def _rewrite_after_load(run, monkeypatch):
    """Make `ilim criteria` find the NS run's second snapshot rewritten (a
    new time in its header) once it has loaded the run."""
    def load(directory):
        traj = load_trajectory(directory)
        path = Path(directory) / "snap_0001.bin"
        raw = bytearray(path.read_bytes())
        raw[40:48] = struct.pack("<d", 1.0)  # t
        path.write_bytes(bytes(raw))
        return traj
    monkeypatch.setattr(cli, "load_trajectory", load)


@pytest.mark.parametrize("fault, match", [
    (_poke_u1(float("nan"), (1, 5)), "comp1 must be finite"),
    (_poke_u1(1e-3, (1, 0)), "no-slip wall"),
    (_rewrite_after_load, "changed since the trajectory was loaded"),
], ids=["nan", "wall-slip", "rewritten"])
def test_cli_criteria_names_a_snapshot_whose_state_is_faulty(tmp_path, capsys,
                                                             monkeypatch, fault, match):
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--nx", "16", "--ny", "33", "--T", "0.05",
                         "--dt", "0.005", "--nu", "1e-3", "--out", str(out)]) == 0
    fault(out, monkeypatch)
    capsys.readouterr()
    assert cli_dispatch(["criteria", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{out / 'ns' / 'snap_0001.bin'}: " in err and match in err


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ini = tmp_path / "sweep.ini"
    ini.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    out = tmp_path / "report"
    assert cli_dispatch(["sweep", "--config", str(ini), "--out", str(out),
                         "--jobs", "1"]) == 0
    assert (out / "sweep.csv").read_text().count(",ok,") == 3


def test_cli_simulate_rejects_a_nu_list(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--nu", "1e-2,1e-3", "--nx", "16",
                         "--ny", "33", "--T", "0.05", "--dt", "0.005",
                         "--out", str(out)]) == 1
    assert "--nu: simulate runs one nu, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_rejects_a_multi_nu_config(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(FULL_INI)
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", str(ini), "--out", str(out)]) == 1
    assert "[sweep] nu: simulate runs one nu, got 3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_rejects_unknown_preset():
    assert cli_dispatch(["simulate", "--preset", "plume", "--nx", "16",
                         "--ny", "33", "--T", "0.01", "--dt", "0.005"]) == 1


def test_cli_simulate_runtime_failure_is_exit_2():
    # ten steps at a step size far beyond the advective limit
    assert cli_dispatch(["simulate", "--nx", "16", "--ny", "33",
                         "--T", "2.0", "--dt", "0.2"]) == 2


def test_cli_sweep_requires_config(capsys):
    assert cli_dispatch(["sweep"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_cli_sweep_from_config(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(FULL_INI.replace("r = inf", "r = 2"))
    out = tmp_path / "report"
    code = cli_dispatch(["sweep", "--config", str(ini), "--out", str(out)])
    assert code == 0
    assert "fitted error exponent" in capsys.readouterr().out
    for name in ("sweep.csv", "criteria.csv", "rates.json", "manifest.json"):
        assert (out / name).exists()
    rates = json.loads((out / "rates.json").read_text())
    assert rates["nu"] == [0.01, 0.001, 0.0001]


def test_cli_criteria_missing_directory(tmp_path):
    assert cli_dispatch(["criteria", str(tmp_path / "absent")]) == 1


def test_cli_corrector_check(tmp_path, capsys):
    out = tmp_path / "corr"
    code = cli_dispatch([
        "corrector-check", "--p", "2", "--samples", "5",
        "--min", "1e-3", "--max", "1e-1", "--out", str(out),
    ])
    assert code == 0
    assert "worst deviation" in capsys.readouterr().out
    lines = (out / "scaling_p2.csv").read_text().strip().split("\n")
    assert lines[0] == "quantity,p,fitted_exponent,expected_exponent,residual"
    assert len(lines) == 6


def test_cli_corrector_check_validation(tmp_path):
    assert cli_dispatch(["corrector-check", "--samples", "2"]) == 1
    assert cli_dispatch(["corrector-check", "--min", "1.0", "--max", "0.1"]) == 1
    # a NaN p is rejected, not written as an all-NaN report that passes
    out = tmp_path / "corr"
    assert cli_dispatch(["corrector-check", "--p", "2,nan", "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_shear_verify(tmp_path, capsys):
    out = tmp_path / "shear"
    code = cli_dispatch([
        "shear-verify", "--nu", "1e-2,1e-3", "--T", "0.5", "--ny", "97",
        "--out", str(out),
    ])
    assert code == 0
    assert "sup_error_sq" in capsys.readouterr().out
    rates = json.loads((out / "rates.json").read_text())
    assert rates["nu"] == [0.01, 0.001]
    assert all(rates["criteria_all_pass"].values())


def test_cli_shear_verify_defaults_are_the_study_defaults(tmp_path):
    # a flag not given leaves shear_limit_study's own default
    assert cli_dispatch(["shear-verify", "--out", str(tmp_path / "cli")]) == 0
    names = sorted(emit_shear_report(shear_limit_study(), tmp_path / "api"))
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_cli_shear_verify_has_no_du1dy_flag(tmp_path, capsys):
    # in the exact shear pair omega is -d(u1)/dy by construction
    out = tmp_path / "shear"
    assert cli_dispatch(["shear-verify", "--use-du1dy", "--out", str(out)]) == 1
    assert "--use-du1dy" in capsys.readouterr().err
    assert not out.exists()
