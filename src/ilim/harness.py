"""Sweep driver, shear-verification pipeline, and report emission.

A sweep runs the paired solvers once per viscosity with everything else
pinned, evaluates the layer criteria, and fits the convergence rate of
the sup-in-time velocity gap.  All report files are byte-deterministic
for a fixed config and seed: floats are written with repr, rows follow
the config order, and nothing records wall-clock time.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import (
    ErrorSeries,
    calibrate_bound_constant,
    error_series,
    fit_rate,
    theorem_bounds,
)
from .criteria import (
    CriterionReport,
    LayerSpec,
    MSchedule,
    evaluate_criteria,
    layer_height,
    write_criteria_csv,
)
from .grid import ScalarField, VectorField, make_channel_grid, strength_for_min_spacing
from .initial_data import shear_profile_exp
from .solvers import FlowState, SimulationConfig, Trajectory, run_simulation
from .solvers import ShearFlow

__all__ = [
    "SweepConfig",
    "sweep_config_from_dict",
    "parse_config",
    "NuRecord",
    "SweepResult",
    "run_sweep",
    "emit_report",
    "ShearStudyResult",
    "shear_limit_study",
    "emit_shear_report",
]


@dataclass
class SweepConfig:
    """Everything a sweep needs, independent of nu."""

    nx: int = 128
    ny: int = 193
    period: float = 2.0 * np.pi
    height: float = 6.0
    clustering: str = "tanh"
    strength: float = 2.0
    dt: float = 2e-3
    t_final: float = 0.5
    n_outputs: int = 10
    preset: str = "shear"
    amplitude: float = 1.0
    seed: int = 0
    preset_options: dict = field(default_factory=dict)
    nu_values: tuple = (1e-2, 1e-3, 1e-4)
    jobs: int = 0  # 0 = auto (ILIM_JOBS env, else available cores)
    m_form: str = "power"
    m_c: float = 1.0
    m_a: float = 0.5
    layer_c: float = 10.0
    r: float = 2.0
    use_du1dy: bool = False

    def schedule(self) -> MSchedule:
        return MSchedule(form=self.m_form, c=self.m_c, a=self.m_a)

    def layer_spec(self) -> LayerSpec:
        return LayerSpec(C=self.layer_c, r=self.r, use_du1dy=self.use_du1dy)

    def simulation_config(self, nu: float) -> SimulationConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(SimulationConfig)
                  if f.name != "nu"}
        shared["preset_options"] = dict(self.preset_options)
        return SimulationConfig(nu=nu, **shared).validate()

    def to_dict(self) -> dict:
        d = {section: {} for section, _, _, _ in _CONFIG_SCHEMA}
        for section, key, name, _ in _CONFIG_SCHEMA:
            d[section][key] = _json_value(getattr(self, name))
        d["data"].update(self.preset_options)
        return d


def sweep_config_from_dict(d: dict) -> SweepConfig:
    """Inverse of SweepConfig.to_dict (manifest round-trip)."""
    cfg = SweepConfig()
    for section, key, name, parse in _CONFIG_SCHEMA:
        setattr(cfg, name, parse(d[section][key]))
    cfg.preset_options = {k: v for k, v in d["data"].items()
                          if ("data", k) not in _ROW_BY_KEY}
    return cfg


def _json_value(value):
    """A config value as to_dict writes it: a tuple as a list, infinity as
    'inf' (JSON has no infinity)."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, float) and np.isinf(value):
        return "inf"
    return value


def _parse_nu_list(value) -> tuple:
    """Viscosities separated by commas or spaces, or a sequence of them;
    at least one, all > 0."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    nus = tuple(float(v) for v in value)
    if not nus:
        raise ValueError("at least one nu value is required")
    if not all(nu > 0.0 for nu in nus):
        raise ValueError("nu values must be positive")
    return nus


def _parse_r(text) -> float:
    if str(text).strip().lower() in ("inf", "infinity"):
        return np.inf
    r = float(text)
    if not r >= 1.0:
        raise ValueError("r must be >= 1 or 'inf'")
    return r


def _parse_layer_c(text) -> float:
    c = float(text)
    if not c > 1.0:
        raise ValueError("layer constant C must exceed 1")
    return c


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(value).lower()]
    except KeyError:
        raise ValueError("not a boolean (true/false, yes/no, on/off, 1/0)") from None


# One row per config key: INI section, key, SweepConfig field, and the
# parser of the value.  Each parser takes the INI text as well as the value
# to_dict wrote, so parse_config, to_dict, sweep_config_from_dict and the
# CLI flags all read these rows.  [data] also takes free-form preset options.
_CONFIG_SCHEMA = (
    ("grid", "nx", "nx", int),
    ("grid", "ny", "ny", int),
    ("grid", "period", "period", float),
    ("grid", "height", "height", float),
    ("grid", "clustering", "clustering", str),
    ("grid", "strength", "strength", float),
    ("time", "dt", "dt", float),
    ("time", "t_final", "t_final", float),
    ("time", "n_outputs", "n_outputs", int),
    ("data", "preset", "preset", str),
    ("data", "amplitude", "amplitude", float),
    ("data", "seed", "seed", int),
    ("sweep", "nu", "nu_values", _parse_nu_list),
    ("sweep", "jobs", "jobs", int),
    ("schedule", "form", "m_form", str),
    ("schedule", "c", "m_c", float),
    ("schedule", "a", "m_a", float),
    ("layer", "C", "layer_c", _parse_layer_c),
    ("layer", "r", "r", _parse_r),
    ("layer", "use_du1dy", "use_du1dy", _parse_bool),
)

_ROW_BY_KEY = {(section, key): (name, parse)
               for section, key, name, parse in _CONFIG_SCHEMA}


def _preset_option(text):
    """A free-form [data] value: an int, else a float, else the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text  # e.g. profile = exp


def parse_config(path) -> SweepConfig:
    """Read an INI sweep config, rejecting unknown sections and keys."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive ([layer] C vs [schedule] c)
    read = cp.read(path)
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    cfg = SweepConfig()
    sections = {section for section, _, _, _ in _CONFIG_SCHEMA}
    for section in cp.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in cp.items(section):
            if (section, key) in _ROW_BY_KEY:
                name, parse = _ROW_BY_KEY[(section, key)]
                try:
                    setattr(cfg, name, parse(text))
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key} = {text}: {exc}") from None
            elif section == "data":
                cfg.preset_options[key] = _preset_option(text)
            else:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
    return cfg


@dataclass
class NuRecord:
    nu: float
    status: str
    message: str = ""
    times: np.ndarray | None = None
    err_sq: np.ndarray | None = None
    criteria: CriterionReport | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def sup_err_sq(self) -> float:
        return float(self.err_sq.max())

    def error_series(self) -> ErrorSeries:
        return ErrorSeries(nu=self.nu, times=self.times, values=self.err_sq)


@dataclass
class SweepResult:
    config: SweepConfig
    records: list
    c_fit: float | None
    fit_sq: object
    fit: object


def _sweep_worker(task) -> NuRecord:
    """Run one nu end to end; never raises (per-nu isolation)."""
    cfg, nu = task
    try:
        pair = run_simulation(cfg.simulation_config(nu))
        series = error_series(pair.ns, pair.euler)
        report = evaluate_criteria(
            pair.ns, pair.euler, cfg.schedule(), cfg.layer_spec()
        )
        return NuRecord(nu=nu, status="ok", times=series.times,
                        err_sq=series.values, criteria=report)
    except Exception as exc:  # noqa: BLE001 - isolate per-nu failures
        return NuRecord(nu=nu, status="failed", message=str(exc))


def run_sweep(config: SweepConfig, jobs: int | None = None) -> SweepResult:
    """Run the sweep, one isolated paired run per nu.

    Worker count precedence: explicit `jobs` argument (the --jobs flag),
    else a positive jobs value in the config, else the ILIM_JOBS
    environment variable, else all available cores.  Results are ordered
    by the config's nu list regardless of worker scheduling, so output is
    identical for any worker count.  Raises RuntimeError if every nu
    failed.
    """
    if not config.nu_values:
        raise ValueError("sweep needs at least one nu")
    if jobs is None:
        if config.jobs > 0:
            jobs = config.jobs
        else:
            env = os.environ.get("ILIM_JOBS")
            jobs = int(env) if env is not None else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(config.nu_values)))
    tasks = [(config, nu) for nu in config.nu_values]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(_sweep_worker, tasks)
    else:
        records = [_sweep_worker(t) for t in tasks]
    ok = [r for r in records if r.ok]
    if not ok:
        detail = "; ".join(f"nu={r.nu!r}: {r.message}" for r in records)
        raise RuntimeError(f"every nu failed: {detail}")
    try:
        c_fit = calibrate_bound_constant(
            [r.error_series() for r in ok], config.schedule()
        )
    except ValueError:
        c_fit = None
    fit_sq, fit = _rate_fits([r.nu for r in ok], [r.sup_err_sq for r in ok])
    return SweepResult(config=config, records=records, c_fit=c_fit,
                       fit_sq=fit_sq, fit=fit)


def _rate_fits(nus, sups):
    """Rate fits of the sup squared gaps and of the sup gaps; (None, None)
    with fewer than 3 samples or a zero sup."""
    nus, sups = np.asarray(nus, dtype=float), np.asarray(sups, dtype=float)
    if nus.size < 3 or not np.all(sups > 0.0):
        return None, None
    return fit_rate(nus, sups), fit_rate(nus, np.sqrt(sups))


def _fit_dict(f):
    if f is None:
        return None
    return {
        "exponent": f.exponent,
        "prefactor": f.prefactor,
        "residual": f.residual,
        "n_samples": f.n_samples,
    }


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_dat(path, cols):
    with open(path, "w") as fh:
        for row in zip(*cols):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _write_report(directory, result, names, series, criteria, rates,
                  manifest) -> list:
    """Write the files every report has after the caller's own `names`:
    criteria.csv, rates.json, rate_points.dat, error_series_NN.dat and
    manifest.json.  `series` holds one ErrorSeries per nu (None for a
    failed nu), `criteria` the reports whose rows go to criteria.csv, and
    `rates`/`manifest` the caller's own keys.  Returns every name written.
    """
    write_criteria_csv(directory / "criteria.csv", criteria)
    ok = [s for s in series if s is not None]
    sups = [s.sup_value for s in ok]
    _write_json(directory / "rates.json", {
        "nu": [s.nu for s in ok],
        "sup_error_sq": sups,
        "sup_error": [float(np.sqrt(v)) for v in sups],
        "fit_error_sq": _fit_dict(result.fit_sq),
        "fit_error": _fit_dict(result.fit),
        "c_fit": result.c_fit,
        **rates,
    })
    names = names + ["criteria.csv", "rates.json"]
    if ok:
        _write_dat(directory / "rate_points.dat",
                   ([s.nu for s in ok], [float(np.sqrt(v)) for v in sups]))
        names.append("rate_points.dat")
    for i, s in enumerate(series):
        if s is not None:
            name = f"error_series_{i:02d}.dat"
            _write_dat(directory / name, (s.times, s.values))
            names.append(name)
    names.append("manifest.json")
    _write_json(directory / "manifest.json",
                {**manifest, "version": __version__, "files": sorted(names)})
    return names


def emit_report(result: SweepResult, directory) -> list:
    """Write the sweep report files; returns the file names written.

    Files: manifest.json (config + version), sweep.csv (one row per nu),
    criteria.csv (all per-time rows), rates.json (fits and calibrated
    constant), rate_points.dat and per-nu error_series_NN.dat /
    bound_series_NN.dat two-column files for plotting.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    schedule = result.config.schedule()
    names = ["sweep.csv"]
    # record index -> the layered bound at the record's output times
    bounds = {} if result.c_fit is None else {
        i: theorem_bounds(rec.error_series(), schedule, result.c_fit).layered
        for i, rec in enumerate(result.records) if rec.ok
    }

    with open(directory / "sweep.csv", "w", newline="") as fh:
        fh.write(
            "nu,status,sup_error_sq,sup_error,bound_at_t_final,"
            "backflow_margin_min,cond_pass_all,wall_vort_margin_min,"
            "under_resolved_any,message\n"
        )
        for i, rec in enumerate(result.records):
            if rec.ok:
                sup_sq = rec.sup_err_sq
                c = rec.criteria
                bound = float(bounds[i][-1]) if i in bounds else float("nan")
                fh.write(
                    f"{rec.nu!r},ok,{sup_sq!r},{float(np.sqrt(sup_sq))!r},{bound!r},"
                    f"{float(c.backflow_margin.min())!r},"
                    f"{bool(np.all(c.cond_pass))!r},"
                    f"{float(c.wall_vort_margin.min())!r},"
                    f"{bool(np.any(c.under_resolved))!r},\n"
                )
            else:
                msg = rec.message.replace(",", ";").replace("\n", " ")
                fh.write(f"{rec.nu!r},failed,,,,,,,,{msg}\n")

    for i, layered in bounds.items():
        name = f"bound_series_{i:02d}.dat"
        _write_dat(directory / name, (result.records[i].times, layered))
        names.append(name)

    return _write_report(
        directory, result, names,
        series=[rec.error_series() if rec.ok else None for rec in result.records],
        criteria=[rec.criteria for rec in result.records if rec.ok],
        rates={"failed_nu": [r.nu for r in result.records if not r.ok]},
        manifest={"config": result.config.to_dict()},
    )


# ---------------------------------------------------------------------------
# Shear verification pipeline (exact-series reference, no solver error)


@dataclass
class ShearStudyResult:
    nu_values: tuple
    times: np.ndarray
    err_sq: np.ndarray            # shape (n_nu, n_times), exact series values
    reports_by_r: dict            # r -> list of CriterionReport per nu
    c_fit: float
    calibration_nu: tuple
    holdout_bound_ok: dict        # nu -> bool for the non-calibration nus
    fit_sq: object
    fit: object
    params: dict

    @property
    def sup_err_sq(self) -> np.ndarray:
        return self.err_sq.max(axis=1)


def _shear_series_trajectory(grid, scheme: str, nu: float, times, w, om
                             ) -> Trajectory:
    """States of the profile rows `w` and vorticity rows `om` at `times`;
    a single row is held at every time."""
    w, om = (np.broadcast_to(a, (times.size, grid.ny)) for a in (w, om))
    states = []
    for t, w_t, om_t in zip(times, w, om):
        u1 = np.broadcast_to(w_t, grid.shape).copy()
        u1[:, 0] = 0.0
        states.append(
            FlowState(
                grid=grid,
                t=float(t),
                nu=nu,
                velocity=VectorField(grid, u1, np.zeros(grid.shape)),
                vorticity=ScalarField(grid, np.broadcast_to(om_t, grid.shape).copy()),
            )
        )
    return Trajectory(
        grid=grid,
        scheme=scheme,
        nu=nu,
        dt=float(times[1] - times[0]),
        states=tuple(states),
    )


def shear_limit_study(
    nu_values=(1e-2, 1e-3, 1e-4, 1e-5),
    t_final: float = 1.0,
    n_times: int = 20,
    period: float = 2.0 * np.pi,
    height: float = 6.0,
    nx: int = 8,
    ny: int = 193,
    n_modes: int = 4096,
    profile=None,
    schedule: MSchedule | None = None,
    layer_c: float = 10.0,
    r_values=(1.0, 2.0, np.inf),
    n_calibration: int = 2,
) -> ShearStudyResult:
    """Inviscid-limit study on the exact shear pair.

    The viscous run is the eigenseries heat flow of the profile, the
    inviscid run is the frozen profile, so the squared velocity gap is
    exact (eigenmode orthogonality) and the study isolates the criteria
    and the rates from solver error.  Each nu gets a wall-clustered grid
    sized to its own layer so the strip is resolved at every positive
    output time; the layered bound constant is calibrated on the first
    `n_calibration` nu values and checked on the rest.
    """
    if not nu_values:
        raise ValueError("study needs at least one nu value")
    if any(nu <= 0.0 for nu in nu_values):
        raise ValueError("nu values must be positive")
    if schedule is None:
        schedule = MSchedule(form="power", c=1.0, a=0.5)
    flow = ShearFlow(v0=profile or shear_profile_exp, height=height,
                     n_modes=n_modes)
    times = np.linspace(0.0, t_final, n_times + 1)
    err_sq = np.zeros((len(nu_values), times.size))
    reports_by_r = {r: [] for r in r_values}
    for i, nu in enumerate(nu_values):
        h1 = layer_height(nu, float(times[1]), schedule, layer_c).value
        uniform_gap = height / (ny - 1)
        target = min(h1 / 3.0, 0.5 * uniform_gap) if h1 > 0.0 else 0.5 * uniform_gap
        strength = strength_for_min_spacing(ny, height, target)
        grid = make_channel_grid(nx, ny, period, height,
                                 clustering="tanh", strength=strength)
        # One profile and one dprofile call give every output time; the
        # times start at 0, so row 0 is the frozen inviscid profile.
        w = flow.profile(grid.y, nu, times).T
        om = -flow.dprofile(grid.y, nu, times).T
        ns = _shear_series_trajectory(grid, "shear-series", nu, times, w, om)
        euler = _shear_series_trajectory(grid, "shear-series-steady", 0.0,
                                         times, w[0], om[0])
        err_sq[i] = period * np.array(
            [flow.l2_error_sq(nu, float(t)) for t in times]
        )
        for r in r_values:
            spec = LayerSpec(C=layer_c, r=r)
            reports_by_r[r].append(evaluate_criteria(ns, euler, schedule, spec))
        # Free this nu's states before the next nu builds its bases: kept
        # alive, they fill the heap gap a basis leaves, and the next basis
        # grows the heap (+6 MB peak RSS at the defaults).
        del ns, euler

    n_calibration = min(n_calibration, len(nu_values))
    series = [ErrorSeries(nu=nu, times=times, values=err_sq[i])
              for i, nu in enumerate(nu_values)]
    c_fit = calibrate_bound_constant(series[:n_calibration], schedule)
    holdout = {
        s.nu: bool(np.all(s.values <= theorem_bounds(s, schedule, c_fit).layered + 1e-300))
        for s in series[n_calibration:]
    }
    fit_sq, fit = _rate_fits(nu_values, err_sq.max(axis=1))
    return ShearStudyResult(
        nu_values=tuple(nu_values),
        times=times,
        err_sq=err_sq,
        reports_by_r=reports_by_r,
        c_fit=c_fit,
        calibration_nu=tuple(nu_values[:n_calibration]),
        holdout_bound_ok=holdout,
        fit_sq=fit_sq,
        fit=fit,
        params={
            "t_final": t_final, "n_times": n_times, "period": period,
            "height": height, "nx": nx, "ny": ny, "n_modes": n_modes,
            "schedule": {"form": schedule.form, "c": schedule.c, "a": schedule.a},
            "layer_c": layer_c,
            "r_values": [("inf" if np.isinf(r) else r) for r in r_values],
            "n_calibration": n_calibration,
        },
    )


def emit_shear_report(result: ShearStudyResult, directory) -> list:
    """Write the shear-study report files (same family as emit_report)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    primary_r = 2.0 if 2.0 in result.reports_by_r else next(iter(result.reports_by_r))
    all_pass = {
        ("inf" if np.isinf(r) else repr(float(r))): bool(
            all(rep.all_pass for rep in reps)
        )
        for r, reps in result.reports_by_r.items()
    }
    return _write_report(
        directory, result, [],
        series=[ErrorSeries(nu=nu, times=result.times, values=result.err_sq[i])
                for i, nu in enumerate(result.nu_values)],
        criteria=result.reports_by_r[primary_r],
        rates={
            "calibration_nu": list(result.calibration_nu),
            "holdout_bound_ok": {repr(k): v
                                 for k, v in result.holdout_bound_ok.items()},
            "criteria_all_pass": all_pass,
        },
        manifest={"pipeline": "shear-verify", "params": result.params},
    )
