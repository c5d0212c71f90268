"""Sweep driver, shear-verification pipeline, and report emission.

A sweep pairs one Navier-Stokes run per viscosity, everything else
pinned, with the nu-independent Euler run (stepped once per worker),
evaluates the layer criteria, and fits the convergence rate of the
sup-in-time velocity gap.  All report files are byte-deterministic
for a fixed config and seed: floats are written with repr, rows follow
the config order, and nothing records wall-clock time.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, fields, replace
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
    _criteria_reports,
    _write_csv,
    evaluate_criteria,
    layer_height,
    write_criteria_csv,
)
from .grid import _check_ny, _in_section, make_channel_grid, strength_for_min_spacing
from .initial_data import _finite, _positive_integer, _seed, shear_profile_exp
from .snapshots import _write_json
from .solvers import (
    ShearFlow,
    SimulationConfig,
    Trajectory,
    _heat_flow,
    _initial_velocity,
    _lapack,
    _pairer,
    _RunFields,
    _sine_coefficients,
    _state,
)

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
class SweepConfig(_RunFields):
    """Everything a sweep needs, independent of nu."""

    nu_values: tuple = (1e-2, 1e-3, 1e-4)
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
        shared = {f.name: getattr(self, f.name) for f in fields(_RunFields)}
        shared["preset_options"] = dict(self.preset_options)
        return SimulationConfig(nu=nu, **shared)

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
    at least one, all positive, finite and distinct."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    nus = tuple(float(v) for v in value)
    if not nus:
        raise ValueError("at least one nu value is required")
    if not all(0.0 < nu < np.inf for nu in nus):
        raise ValueError("nu values must be positive and finite")
    _check_distinct(nus, "nu values repeat nu")
    return nus


def _check_distinct(values, what):
    """Raise a ValueError naming the first of `values` equal to an earlier
    one, as in `nu values repeat nu = 0.0001` (`what` is all but the value)."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{what} = {float(v)!r}")


def _owned(owner, arg, parse=float):
    """A row parser that hands the parsed value to `owner` as its `arg`, so
    the type that owns the rule (LayerSpec, MSchedule) checks it."""
    return lambda text: getattr(owner(**{arg: parse(text)}), arg)


def _parse_finite(value) -> float:
    return _finite(float(value))


def _parse_seed(value) -> int:
    return _seed(int(value))


def _count(name, value):
    """`value`, if it is a positive integer (not a bool); else a ValueError
    that names the argument, as in `jobs = 2.5: must be a positive integer`."""
    with _in_section(f"{name} = {value!r}:"):
        return _positive_integer(value)


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
    ("data", "amplitude", "amplitude", _parse_finite),
    ("data", "seed", "seed", _parse_seed),
    ("sweep", "nu", "nu_values", _parse_nu_list),
    ("schedule", "form", "m_form", _owned(MSchedule, "form", str)),
    ("schedule", "c", "m_c", _owned(MSchedule, "c")),
    ("schedule", "a", "m_a", _owned(MSchedule, "a")),
    ("layer", "C", "layer_c", _owned(LayerSpec, "C")),
    ("layer", "r", "r", _owned(LayerSpec, "r")),
    ("layer", "use_du1dy", "use_du1dy", _parse_bool),
)

_ROW_BY_KEY = {(section, key): (name, parse)
               for section, key, name, parse in _CONFIG_SCHEMA}


def _preset_option(text):
    """A free-form [data] value: an int, else a float, else the text, held
    to build_initial_data's option rule."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return _finite(value)
    return text  # every option is a number: build_initial_data names it


def parse_config(path) -> SweepConfig:
    """Read an INI sweep config, values as written (no `%` interpolation),
    rejecting unknown sections and keys; a file that does not parse is a
    ValueError naming it."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive ([layer] C vs [schedule] c)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path!r}: {exc}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    cfg = SweepConfig()
    sections = {section for section, _, _, _ in _CONFIG_SCHEMA}
    for section in cp.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in cp.items(section):
            row = _ROW_BY_KEY.get((section, key))
            if row is None and section != "data":
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            with _in_section(f"[{section}] {key} = {text}:"):
                if row is None:
                    cfg.preset_options[key] = _preset_option(text)
                else:
                    name, parse = row
                    setattr(cfg, name, parse(text))
    return cfg


@dataclass
class NuRecord:
    nu: float
    status: str
    message: str = ""
    series: ErrorSeries | None = None
    criteria: CriterionReport | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def sup_err_sq(self) -> float:
        return self.series.sup_value


@dataclass
class SweepResult:
    config: SweepConfig
    records: list
    c_fit: float | None
    fit_sq: object
    fit: object


def _record(cfg: SweepConfig, nu: float, pair) -> NuRecord:
    """`nu`'s record from `pair(nu)` (`solvers._pairer`); a failed run or
    post-processing gives a failed record (per-nu isolation)."""
    try:
        run = pair(nu)
        series = error_series(run.ns, run.euler)
        report = evaluate_criteria(run.ns, run.euler, cfg.schedule(), cfg.layer_spec())
        return NuRecord(nu=nu, status="ok", series=series, criteria=report)
    except Exception as exc:  # noqa: BLE001 - isolate per-nu failures
        return NuRecord(nu=nu, status="failed", message=str(exc))


def _sweep_worker(task) -> list:
    """Run one share of the nu values end to end, stepping the Euler run
    once for all of them; never raises.  Each nu's failure message is the
    one its own `run_simulation` would raise."""
    cfg, nus = task
    pair = _pairer(cfg)
    # each pair is a local of its _record call, freed before the next NS run
    return [_record(cfg, nu, pair) for nu in nus]


def _check_schedule(config: SweepConfig) -> None:
    """Raise the first nu's schedule fault, prefixed `[schedule]`, if the
    schedule fails at every nu with 0 < nu < inf (else records fail alone)."""
    schedule, first = config.schedule(), None
    for nu in config.nu_values:
        if 0.0 < nu < np.inf:
            try:
                schedule.value(nu, config.t_final)
                return
            except ValueError as exc:
                first = first or exc
    if first is not None:
        raise ValueError(f"[schedule] {first}") from first


def run_sweep(config: SweepConfig, jobs: int | None = None) -> SweepResult:
    """Run the sweep, one isolated paired run per nu.

    The Euler run has no nu in it, so each worker steps it once for its
    share of the nu values (every `jobs`-th one) and pairs it with a
    Navier-Stokes run per nu.  The worker count is `jobs` (the --jobs
    flag), else the number of CPUs this process may run on (its affinity
    mask where the platform has one).  Results are ordered by the config's
    nu list regardless of worker scheduling, so output is identical for any
    worker count.  A `jobs` that is not a positive integer, a repeated nu,
    a grid, time or data fault (`_initial_velocity`) or a schedule that
    fails at every nu raises before any worker starts; a fault of one nu
    fails only its record.
    Raises RuntimeError if every nu failed.
    """
    if jobs is None:
        affinity = getattr(os, "sched_getaffinity", None)
        jobs = len(affinity(0)) if affinity else os.cpu_count() or 1
    jobs = _count("jobs", jobs)
    if not config.nu_values:
        raise ValueError("sweep needs at least one nu")
    _check_distinct(config.nu_values, "nu values repeat nu")
    _initial_velocity(config)
    _check_schedule(config)
    jobs = min(jobs, len(config.nu_values))
    tasks = [(config, config.nu_values[i::jobs]) for i in range(jobs)]
    if jobs > 1:
        import multiprocessing

        # loaded once here: the pool forks whatever the platform's default
        # start method, so each worker inherits it instead of loading it
        _lapack()
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            shares = pool.map(_sweep_worker, tasks)
    else:
        shares = [_sweep_worker(t) for t in tasks]
    records = [None] * len(config.nu_values)
    for i, share in enumerate(shares):
        records[i::jobs] = share
    ok = [r for r in records if r.ok]
    if not ok:
        detail = "; ".join(f"nu={r.nu!r}: {r.message}" for r in records)
        raise RuntimeError(f"every nu failed: {detail}")
    try:
        c_fit = calibrate_bound_constant([r.series for r in ok], config.schedule())
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
        "fit_error_sq": asdict(result.fit_sq) if result.fit_sq else None,
        "fit_error": asdict(result.fit) if result.fit else None,
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


# sweep.csv: nu, status, these measures of an ok record (given the record
# and its layered bound at t_final; empty on a failed one), then message.
_SWEEP_MEASURES = (
    ("sup_error_sq", lambda rec, bound: rec.sup_err_sq),
    ("sup_error", lambda rec, bound: np.sqrt(rec.sup_err_sq)),
    ("bound_at_t_final", lambda rec, bound: bound),
    ("backflow_margin_min", lambda rec, bound: rec.criteria.backflow_margin.min()),
    ("cond_pass_all", lambda rec, bound: rec.criteria.all_pass),
    ("wall_vort_margin_min", lambda rec, bound: rec.criteria.wall_vort_margin.min()),
    ("under_resolved_any", lambda rec, bound: np.any(rec.criteria.under_resolved)),
)
_SWEEP_HEADER = ",".join(("nu", "status", *(c for c, _ in _SWEEP_MEASURES), "message"))


def _sweep_row(rec, bound):
    measures = (cell(rec, bound) if rec.ok else None for _, cell in _SWEEP_MEASURES)
    return (rec.nu, rec.status, *measures,
            rec.message.replace(",", ";").replace("\n", " "))


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
        i: theorem_bounds(rec.series, schedule, result.c_fit)
        for i, rec in enumerate(result.records) if rec.ok
    }

    _write_csv(directory / "sweep.csv", _SWEEP_HEADER,
               (_sweep_row(rec, bounds[i][-1] if i in bounds else float("nan"))
                for i, rec in enumerate(result.records)))

    for i, layered in bounds.items():
        name = f"bound_series_{i:02d}.dat"
        _write_dat(directory / name, (result.records[i].series.times, layered))
        names.append(name)

    return _write_report(
        directory, result, names,
        series=[rec.series for rec in result.records],
        criteria=[rec.criteria for rec in result.records if rec.ok],
        rates={"failed_nu": [r.nu for r in result.records if not r.ok]},
        manifest={"config": result.config.to_dict()},
    )


# ---------------------------------------------------------------------------
# Shear verification pipeline (exact-series reference, no solver error)


@dataclass
class ShearStudyResult:
    nu_values: tuple
    series: list                  # one ErrorSeries per nu, exact series values
    reports_by_r: dict            # r -> list of CriterionReport per nu
    c_fit: float
    calibration_nu: tuple
    holdout_bound_ok: dict        # nu -> bool for the non-calibration nus
    fit_sq: object
    fit: object
    params: dict

    @property
    def sup_err_sq(self) -> np.ndarray:
        return np.array([s.sup_value for s in self.series])


def _shear_series_trajectory(grid, scheme: str, nu: float, times, w, om
                             ) -> Trajectory:
    """States of the profile rows `w` and vorticity rows `om` at `times`, a
    row per time; a single row (1-D) is held at every time by one pair of
    fields that every state shares."""

    def state(t, w_t, om_t):
        u1 = np.broadcast_to(w_t, grid.shape).copy()
        u1[:, 0] = 0.0
        return _state(grid, t, nu, u1, np.zeros(grid.shape),
                      np.broadcast_to(om_t, grid.shape).copy())

    if np.ndim(w) == 1:
        held = state(times[0], w, om)
        states = [replace(held, t=float(t)) for t in times]
    else:
        states = [state(t, w_t, om_t) for t, w_t, om_t in zip(times, w, om)]
    return Trajectory(
        grid=grid,
        scheme=scheme,
        nu=nu,
        dt=float(times[1] - times[0]),
        states=tuple(states),
    )


# The shear study calibrates its bound constant on this many of its first
# nu values and holds the rest out.
_N_CALIBRATION = 2


def shear_limit_study(
    nu_values=(1e-2, 1e-3, 1e-4, 1e-5),
    t_final: float = 1.0,
    n_times: int = 20,
    ny: int = 193,
    n_modes: int = 4096,
    schedule: MSchedule | None = None,
    layer_c: float = 10.0,
    r_values=(1.0, 2.0, np.inf),
) -> ShearStudyResult:
    """Inviscid-limit study on the exact shear pair of `shear_profile_exp`.

    The viscous run is the heat flow of the profile (image sums, or the
    eigenseries where nu t_final > H^2/144), the inviscid run is the frozen
    profile, and the squared gap is exact in the eigenseries (eigenmode
    orthogonality), so the study isolates the criteria and the rates from
    solver error.  Each nu gets a wall-clustered grid sized to its own
    layer so the strip is resolved at every positive output time; the
    layered bound constant is calibrated on the first two nu values and
    checked on the rest.
    """
    nu_values = _parse_nu_list(nu_values)
    _check_ny(ny)
    if not 0.0 < t_final < np.inf:
        raise ValueError("t_final must be positive and finite")
    _count("n_times", n_times)
    _count("n_modes", n_modes)
    r_values = tuple(r_values)
    if not r_values:
        raise ValueError("r_values must name at least one r")
    specs = [LayerSpec(C=layer_c, r=r) for r in r_values]
    _check_distinct(r_values, "r_values repeats r")
    if schedule is None:
        schedule = MSchedule(form="power", c=1.0, a=0.5)
    # one period of the channel; the pair is x1-independent, so 8 nodes carry it
    period, height, nx = 2.0 * np.pi, 6.0, 8
    flow = ShearFlow(_sine_coefficients(shear_profile_exp, height, n_modes), height)
    # shear_profile_exp, odd about the wall and even about the top, as c + d e^(kz)
    pieces = ((-height, 0.0, 1.0, -1.0, 1.0), (0.0, height, -1.0, 1.0, -1.0),
              (height, 2.0 * height, -1.0, np.exp(-2.0 * height), 1.0))
    times = np.linspace(0.0, t_final, n_times + 1)
    series, reports_by_r = [], {r: [] for r in r_values}
    for nu in nu_values:
        h1 = layer_height(nu, float(times[1]), schedule, specs[0].C)
        uniform_gap = height / (ny - 1)
        target = min(h1 / 3.0, 0.5 * uniform_gap) if h1 > 0.0 else 0.5 * uniform_gap
        strength = strength_for_min_spacing(ny, height, target)
        grid = make_channel_grid(nx, ny, period, height,
                                 clustering="tanh", strength=strength)
        # Every output time from t = 0 (row 0: the inviscid profile).  The
        # images left out weigh under erfc(6) while nu t <= H^2/144; past
        # that the series stays finite where e^(nu t) overflows (near 700).
        if nu * t_final <= height**2 / 144.0:
            w, dw = _heat_flow(pieces, grid.y, nu, times)
        else:
            w, dw = flow.profile(grid.y, nu, times), flow.dprofile(grid.y, nu, times)
        w, om = w.T, -dw.T
        ns = _shear_series_trajectory(grid, "shear-series", nu, times, w, om)
        euler = _shear_series_trajectory(grid, "shear-series-steady", 0.0,
                                         times, w[0], om[0])
        series.append(ErrorSeries(nu=nu, times=times,
                                  values=period * flow.l2_error_sq(nu, times)))
        for r, report in zip(r_values, _criteria_reports(ns, euler, schedule, specs)):
            reports_by_r[r].append(report)

    n_calibration = min(_N_CALIBRATION, len(nu_values))
    c_fit = calibrate_bound_constant(series[:n_calibration], schedule)
    holdout = {
        s.nu: bool(np.all(s.values <= theorem_bounds(s, schedule, c_fit) + 1e-300))
        for s in series[n_calibration:]
    }
    fit_sq, fit = _rate_fits(nu_values, [s.sup_value for s in series])
    return ShearStudyResult(
        nu_values=tuple(nu_values),
        series=series,
        reports_by_r=reports_by_r,
        c_fit=c_fit,
        calibration_nu=tuple(nu_values[:n_calibration]),
        holdout_bound_ok=holdout,
        fit_sq=fit_sq,
        fit=fit,
        params={
            "t_final": t_final, "n_times": n_times, "period": period,
            "height": height, "nx": nx, "ny": ny, "n_modes": n_modes,
            "schedule": asdict(schedule),
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
        series=result.series,
        criteria=result.reports_by_r[primary_r],
        rates={
            "calibration_nu": list(result.calibration_nu),
            "holdout_bound_ok": {repr(k): v
                                 for k, v in result.holdout_bound_ok.items()},
            "criteria_all_pass": all_pass,
        },
        manifest={"pipeline": "shear-verify", "params": result.params},
    )
