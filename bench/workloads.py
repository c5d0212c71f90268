"""The four benchmark workloads, their output checks and fingerprints.

Each workload has `setup(seed)` (untimed inputs), `run(inputs, tmp)` (one
timed operation, writing only under `tmp`) and `check(inputs, out, tmp)`,
which returns a list of problems; an empty list means the operation's
outputs are correct.  Every check compares a numeric fingerprint of the
outputs with the reference stored in `references.json` for the input
variant, within `RTOL`/`ATOL`.

All ilim functions are looked up on the package at call time
(`ilim.error_series`, not a local alias), so the tracer's wrappers are
reached.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import ilim
import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

# The seed picks one of N_VARIANTS input variants (the perturbation seed
# of the initial data), so every variant has a stored reference.
N_VARIANTS = 16

# Round-off tolerance of fingerprint floats.  A trajectory that drifts by
# up to 1e-12 (relative) moves the fingerprints by far less than RTOL.
RTOL = 1e-8
ATOL = 1e-13

SCHEDULE = ilim.MSchedule(form="power", c=1.0, a=0.5)
LAYER_C = 10.0


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def _paired_config(seed, n_outputs):
    return ilim.SimulationConfig(
        nx=128, ny=193, clustering="tanh", strength=2.0, nu=1e-3, dt=2e-3,
        t_final=0.2, n_outputs=n_outputs, preset="perturbed-shear",
        seed=variant(seed),
    )


def _energy(state):
    return ilim.kinetic_energy(state.velocity)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fit_exponent(fit):
    return None if fit is None else fit.exponent


def report_digest(directory) -> str:
    """SHA-256 over the names and bytes of every file in a report."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare(got, want, path="fingerprint"):
    """Problems where `got` differs from `want`: floats within RTOL/ATOL,
    everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


class Workload:
    name = ""
    seeded = True

    def __init__(self, references=None):
        if references is None:
            references = json.loads(REFERENCES.read_text())
        self.references = references.get(self.name, {})

    def reference_key(self, seed) -> str:
        return str(variant(seed)) if self.seeded else "0"

    def check(self, seed, inputs, out, tmp):
        problems = self.check_outputs(inputs, out, tmp)
        want = self.references.get(self.reference_key(seed))
        if want is None:
            return problems + [f"no reference for variant {self.reference_key(seed)}"]
        # JSON round trip so tuples, numpy scalars and keys match the file
        got = json.loads(json.dumps(self.fingerprint(out)))
        return problems + compare(got, want)


class Paired(Workload):
    """One paired run, its error series and its criteria (r = 2)."""

    name = "paired"

    def setup(self, seed):
        return _paired_config(seed, n_outputs=10)

    def run(self, config, tmp):
        pair = ilim.run_simulation(config)
        series = ilim.error_series(pair.ns, pair.euler)
        report = ilim.evaluate_criteria(pair.ns, pair.euler, SCHEDULE,
                                        ilim.LayerSpec(C=LAYER_C, r=2.0))
        return pair, series, report

    def check_outputs(self, config, out, tmp):
        pair, series, _ = out
        problems = []
        for traj in (pair.ns, pair.euler):
            for s in traj.states:
                if not (np.all(np.isfinite(s.velocity.comp1))
                        and np.all(np.isfinite(s.velocity.comp2))
                        and np.all(np.isfinite(s.vorticity.values))):
                    problems.append(f"{traj.scheme}: non-finite state at t={s.t!r}")
        # Both runs start from one field.  The slip reconstruction leaves
        # a truncation-size u1 on the wall row (where no-slip pins it to
        # 0), so only the other rows must agree bit for bit; err_sq[0]
        # itself is in the fingerprint.
        a, b = pair.ns.states[0].velocity, pair.euler.states[0].velocity
        if not (_same_bits(a.comp1[:, 1:], b.comp1[:, 1:])
                and _same_bits(a.comp2, b.comp2)):
            problems.append("initial states differ off the wall row")
        e0, e1 = _energy(pair.ns.states[0]), _energy(pair.ns.states[-1])
        if not e1 <= e0:
            problems.append(f"NS energy grew from {e0!r} to {e1!r}")
        return problems

    def fingerprint(self, out):
        pair, series, report = out
        return {
            "sup_err_sq": series.sup_value,
            "err_sq_initial": float(series.values[0]),
            "err_sq_final": float(series.values[-1]),
            "ns_energy_final": _energy(pair.ns.states[-1]),
            "euler_energy_final": _energy(pair.euler.states[-1]),
            "cond_pass_all": report.all_pass,
            "cond_lhs_max": float(report.cond_lhs.max()),
            "backflow_margin_min": float(report.backflow_margin.min()),
            "wall_vort_margin_min": float(report.wall_vort_margin.min()),
        }


class Sweep(Workload):
    """A four-nu sweep on two worker processes, then its report."""

    name = "sweep"
    jobs = 2

    def __init__(self, references=None):
        super().__init__(references)
        self.first_digest = None

    def setup(self, seed):
        return ilim.SweepConfig(
            nx=64, ny=129, clustering="tanh", strength=2.0, dt=2e-3,
            t_final=0.2, n_outputs=10, preset="perturbed-shear",
            seed=variant(seed), nu_values=(1e-2, 1e-3, 1e-4, 1e-5),
            m_form="power", m_c=1.0, m_a=0.5, layer_c=LAYER_C, r=2.0,
        )

    def run(self, config, tmp):
        t0 = time.perf_counter()
        result = ilim.run_sweep(config, jobs=self.jobs)
        sweep_s = time.perf_counter() - t0
        ilim.emit_report(result, tmp)
        return result, sweep_s

    def serial_pieces(self, config):
        """Wall time of each nu's paired run, error series and criteria,
        run one after another in this process from public calls."""
        pieces = []
        for nu in config.nu_values:
            t0 = time.perf_counter()
            pair = ilim.run_simulation(config.simulation_config(nu))
            ilim.error_series(pair.ns, pair.euler)
            ilim.evaluate_criteria(pair.ns, pair.euler, config.schedule(),
                                   config.layer_spec())
            pieces.append(time.perf_counter() - t0)
        return pieces

    def check_outputs(self, config, out, tmp):
        result, _ = out
        problems = [f"nu={r.nu!r} status={r.status}: {r.message}"
                    for r in result.records if not r.ok]
        digest = report_digest(tmp)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("report bytes differ from the first operation's")
        return problems

    def fingerprint(self, out):
        result, _ = out
        ok = [r for r in result.records if r.ok]
        return {
            "status": [r.status for r in result.records],
            "sup_err_sq": [r.sup_err_sq for r in ok],
            "cond_pass_all": [r.criteria.all_pass for r in ok],
            "c_fit": result.c_fit,
            "fit_exponent_sq": _fit_exponent(result.fit_sq),
            "fit_exponent": _fit_exponent(result.fit),
        }


class ShearVerify(Workload):
    """The exact-shear oracle study at its defaults, then its report."""

    name = "shear-verify"
    seeded = False

    def setup(self, seed):
        return None

    def run(self, inputs, tmp):
        result = ilim.shear_limit_study()
        ilim.emit_shear_report(result, tmp)
        return result

    def check_outputs(self, inputs, result, tmp):
        if not result.holdout_bound_ok:
            return ["no held-out nu"]
        return [f"held-out bound fails at nu={nu!r}"
                for nu, ok in result.holdout_bound_ok.items() if not ok]

    def fingerprint(self, result):
        return {
            "sup_err_sq": [float(v) for v in result.sup_err_sq],
            "c_fit": result.c_fit,
            "fit_exponent_sq": _fit_exponent(result.fit_sq),
            "fit_exponent": _fit_exponent(result.fit),
            "criteria_all_pass": [all(rep.all_pass for rep in reps)
                                  for reps in result.reports_by_r.values()],
            "holdout_bound_ok": list(result.holdout_bound_ok.values()),
        }


R_VALUES = (1.0, 2.0, np.inf)


class Replay(Workload):
    """Snapshot round trip of a stored paired run, then its post-processing."""

    name = "replay"

    def setup(self, seed):
        return ilim.run_simulation(_paired_config(seed, n_outputs=100))

    def run(self, pair, tmp):
        ilim.save_trajectory(pair.ns, Path(tmp) / "ns")
        ilim.save_trajectory(pair.euler, Path(tmp) / "euler")
        ns = ilim.load_trajectory(Path(tmp) / "ns")
        euler = ilim.load_trajectory(Path(tmp) / "euler")
        reports = [ilim.evaluate_criteria(ns, euler, SCHEDULE,
                                          ilim.LayerSpec(C=LAYER_C, r=r))
                   for r in R_VALUES]
        series = ilim.error_series(ns, euler)
        budget = ilim.energy_budget(
            ns, euler, ilim.trace_corrector_provider(euler, alpha=ns.nu))
        return (ns, euler), reports, series, budget

    def check_outputs(self, pair, out, tmp):
        problems = []
        for saved, loaded in zip((pair.ns, pair.euler), out[0]):
            if len(saved.states) != len(loaded.states):
                problems.append(f"{saved.scheme}: {len(loaded.states)} states "
                                f"loaded, {len(saved.states)} saved")
                continue
            for a, b in zip(saved.states, loaded.states):
                if not (_same_bits(a.t, b.t)
                        and _same_bits(a.velocity.comp1, b.velocity.comp1)
                        and _same_bits(a.velocity.comp2, b.velocity.comp2)):
                    problems.append(f"{saved.scheme}: loaded state at t={a.t!r} "
                                    "is not bit-identical to the saved one")
        return problems

    def fingerprint(self, out):
        _, reports, series, budget = out
        return {
            "sup_err_sq": series.sup_value,
            "cond_pass_all": [rep.all_pass for rep in reports],
            "cond_lhs_max": [float(rep.cond_lhs.max()) for rep in reports],
            "budget_residual_max": float(np.abs(budget.residual).max()),
            "budget_residual_final": float(budget.residual[-1]),
            "gap_energy_max": float(budget.gap_energy.max()),
        }


WORKLOADS = {cls.name: cls for cls in (Paired, Sweep, ShearVerify, Replay)}
