"""Layer geometry and the one-sided vorticity criteria.

The convergence criteria live on a thin wall strip whose height follows
the rule h = (nu * tau / C) * log(C / (M(t) * tau)), tau = min(t, 1).
Inside the strip the viscous vorticity (or -d2 u1) must not be "very
negative": the r-weighted negative part of omega + M/nu must stay below
tau^{1/r} M.  The inviscid trace must be backflow-free, and a pointwise
variant asks the wall vorticity itself to stay above -M/nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, _paired_times, layer_region, lp_norm, y_derivative

__all__ = [
    "MSchedule",
    "LayerSpec",
    "LayerHeight",
    "CriterionReport",
    "scales_from_trace",
    "layer_height",
    "no_backflow_margin",
    "kato_condition",
    "boundary_vorticity_condition",
    "evaluate_criteria",
    "CRITERIA_CSV_HEADER",
    "write_criteria_csv",
]


@dataclass(frozen=True)
class MSchedule:
    """Modulus schedule M_nu(t): "constant" (c), "power" (c * nu^a), or a
    tabulated (t, M) curve shared across nu."""

    form: str = "power"
    c: float = 1.0
    a: float = 0.5
    table: tuple | None = None

    def __post_init__(self):
        if self.form not in ("constant", "power", "table"):
            raise ValueError(f"unknown schedule form {self.form!r}")
        if self.form in ("constant", "power") and self.c <= 0.0:
            raise ValueError("schedule amplitude must be positive")
        if self.form == "table":
            if self.table is None:
                raise ValueError("table form needs (t, M) samples")
            ts, ms = (np.asarray(v, dtype=float) for v in self.table)
            if ts.ndim != 1 or ts.shape != ms.shape or ts.size < 2:
                raise ValueError("table needs matching 1-d t and M samples")
            if np.any(np.diff(ts) <= 0.0) or ts[0] != 0.0:
                raise ValueError("table times must start at 0 and increase")
            if np.any(ms <= 0.0):
                raise ValueError("table M values must be positive")
            object.__setattr__(self, "table", (ts, ms))

    def value(self, nu: float, t: float) -> float:
        if self.form == "constant":
            return self.c
        if self.form == "power":
            return self.c * nu**self.a
        ts, ms = self.table
        return float(np.interp(t, ts, ms))

    def integral(self, nu: float, t: float) -> float:
        """int_0^t M_nu(s) ds."""
        if self.form in ("constant", "power"):
            return self.value(nu, t) * t
        ts, ms = self.table
        if t <= 0.0:
            return 0.0
        grid_t = np.concatenate([ts[ts < t], [min(t, ts[-1])]])
        vals = np.interp(grid_t, ts, ms)
        out = float(np.trapezoid(vals, grid_t))
        if t > ts[-1]:
            out += ms[-1] * (t - ts[-1])
        return out


@dataclass(frozen=True)
class LayerSpec:
    """Layer constant C, norm index r (inf allowed), and whether the
    condition is evaluated on -d2 u1 instead of the vorticity."""

    C: float = 10.0
    r: float = 2.0
    use_du1dy: bool = False

    def __post_init__(self):
        if self.C <= 1.0:
            raise ValueError("layer constant C must exceed 1")
        if not np.isinf(self.r) and self.r < 1.0:
            raise ValueError("r must be >= 1 (inf allowed)")


@dataclass(frozen=True)
class LayerHeight:
    value: float
    clamped: bool


def layer_height(nu: float, t: float, schedule: MSchedule, C: float) -> LayerHeight:
    """h = (nu tau / C) log(C / (M tau)), clamped at 0 when the log
    argument drops to 1 or below (flagged)."""
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    tau = min(t, 1.0)
    if tau == 0.0:
        return LayerHeight(0.0, clamped=False)
    m = schedule.value(nu, t)
    arg = C / (m * tau)
    if arg <= 1.0:
        return LayerHeight(0.0, clamped=True)
    return LayerHeight(nu * tau / C * float(np.log(arg)), clamped=False)


def no_backflow_margin(euler_state) -> float:
    """min over wall nodes of the inviscid tangential trace (>= 0 means
    no backflow)."""
    return float(euler_state.velocity.comp1[:, 0].min())


def _negative_part_field(state, schedule: MSchedule, spec: LayerSpec):
    m = schedule.value(state.nu, state.t)
    if spec.use_du1dy:
        base = -y_derivative(state.grid, state.velocity.comp1)
    else:
        base = state.vorticity.values
    defect = np.minimum(base + m / state.nu, 0.0)
    return ScalarField(state.grid, np.abs(defect)), m


def kato_condition(state, schedule: MSchedule, spec: LayerSpec):
    """(lhs, rhs) of the layer condition at the state's time.

    lhs = nu^{(r-1)/r} || (omega + M/nu)_- ||_{L^r(layer)},
    rhs = tau^{1/r} M; for r = inf the prefactor is nu and tau^{1/r} = 1.
    Empty layers give lhs = 0.
    """
    if state.nu <= 0.0:
        raise ValueError("the layer condition applies to the viscous state")
    tau = min(state.t, 1.0)
    h = layer_height(state.nu, state.t, schedule, spec.C)
    region = layer_region(state.grid, h.value)
    defect, m = _negative_part_field(state, schedule, spec)
    if np.isinf(spec.r):
        lhs = state.nu * lp_norm(defect, np.inf, region)
        rhs = m
    else:
        r = spec.r
        lhs = state.nu ** ((r - 1.0) / r) * lp_norm(defect, r, region)
        rhs = tau ** (1.0 / r) * m
    return float(lhs), float(rhs)


def boundary_vorticity_condition(state, schedule: MSchedule) -> float:
    """min over wall nodes of omega + M/nu (>= 0 means the pointwise
    wall-vorticity variant holds)."""
    if state.nu <= 0.0:
        raise ValueError("the wall-vorticity condition applies to the viscous state")
    m = schedule.value(state.nu, state.t)
    return float((state.vorticity.values[:, 0] + m / state.nu).min())


CRITERIA_CSV_HEADER = (
    "t,nu,layer_height,backflow_margin,cond_lhs,cond_rhs,cond_pass,"
    "wall_vort_margin,under_resolved"
)


@dataclass(frozen=True)
class CriterionReport:
    """Per-output-time criterion diagnostics for one paired run."""

    nu: float
    times: np.ndarray
    layer_heights: np.ndarray
    layer_clamped: np.ndarray
    backflow_margin: np.ndarray
    cond_lhs: np.ndarray
    cond_rhs: np.ndarray
    cond_pass: np.ndarray
    wall_vort_margin: np.ndarray
    under_resolved: np.ndarray

    def rows(self):
        for i, t in enumerate(self.times):
            yield (
                float(t),
                self.nu,
                float(self.layer_heights[i]),
                float(self.backflow_margin[i]),
                float(self.cond_lhs[i]),
                float(self.cond_rhs[i]),
                bool(self.cond_pass[i]),
                float(self.wall_vort_margin[i]),
                bool(self.under_resolved[i]),
            )

    def write_csv(self, path) -> None:
        write_criteria_csv(path, (self,))

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.cond_pass))


def write_criteria_csv(path, reports) -> None:
    """Write the criteria CSV: the header, then every row of each report
    in order, floats written with repr."""
    with open(path, "w", newline="") as fh:
        fh.write(CRITERIA_CSV_HEADER + "\n")
        for rep in reports:
            for row in rep.rows():
                fh.write(",".join(repr(v) for v in row) + "\n")


def evaluate_criteria(ns_traj, euler_traj, schedule: MSchedule,
                      spec: LayerSpec) -> CriterionReport:
    """Evaluate all criteria at every shared output time of a paired run.

    A time is flagged under_resolved when the layer is nonempty but
    covers fewer than 2 wall-normal grid rows.
    """
    t_ns = _paired_times(ns_traj, euler_traj)
    nu = ns_traj.nu
    if nu <= 0.0:
        raise ValueError("viscous trajectory must have nu > 0")
    grid = ns_traj.grid
    n = len(t_ns)
    out = {
        "layer_heights": np.zeros(n),
        "layer_clamped": np.zeros(n, dtype=bool),
        "backflow_margin": np.zeros(n),
        "cond_lhs": np.zeros(n),
        "cond_rhs": np.zeros(n),
        "cond_pass": np.zeros(n, dtype=bool),
        "wall_vort_margin": np.zeros(n),
        "under_resolved": np.zeros(n, dtype=bool),
    }
    for i, (s_ns, s_e) in enumerate(zip(ns_traj.states, euler_traj.states)):
        h = layer_height(nu, s_ns.t, schedule, spec.C)
        lhs, rhs = kato_condition(s_ns, schedule, spec)
        rows_inside = int(np.count_nonzero((grid.y > 0.0) & (grid.y <= h.value)))
        out["layer_heights"][i] = h.value
        out["layer_clamped"][i] = h.clamped
        out["backflow_margin"][i] = no_backflow_margin(s_e)
        out["cond_lhs"][i] = lhs
        out["cond_rhs"][i] = rhs
        out["cond_pass"][i] = lhs <= rhs
        out["wall_vort_margin"][i] = boundary_vorticity_condition(s_ns, schedule)
        out["under_resolved"][i] = h.value > 0.0 and rows_inside < 2
    return CriterionReport(nu=nu, times=t_ns, **out)


def scales_from_trace(trace: np.ndarray, period: float):
    """Length and time scales of an inviscid trace history.

    trace has shape (n_times, nx).  L = sup_t ||U(t)||^2_{L^2} / ||U||^2_inf
    and T = L / ||U||_inf; scaling U by c leaves L fixed and divides T by c.
    """
    u = np.atleast_2d(np.asarray(trace, dtype=float))
    sup = float(np.max(np.abs(u)))
    if sup == 0.0:
        raise ValueError("trace is identically zero; scales are undefined")
    dx = period / u.shape[1]
    l2_sq = np.sum(u**2, axis=1) * dx
    length = float(l2_sq.max()) / sup**2
    return length, length / sup
