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

from .grid import _lp_sum, _paired_times, _strip_rows, _y_derivative_rows

__all__ = [
    "MSchedule",
    "LayerSpec",
    "CriterionReport",
    "layer_height",
    "no_backflow_margin",
    "evaluate_criteria",
    "CRITERIA_CSV_HEADER",
    "write_criteria_csv",
]


@dataclass(frozen=True)
class MSchedule:
    """Modulus schedule M_nu(t): "constant" (c) or "power" (c * nu^a)."""

    form: str = "power"
    c: float = 1.0
    a: float = 0.5

    def __post_init__(self):
        if self.form not in ("constant", "power"):
            raise ValueError(f"unknown schedule form {self.form!r}")
        # an infinite M clamps every layer to nothing: a vacuous pass
        if not 0.0 < self.c < np.inf:
            raise ValueError("schedule amplitude must be positive and finite")
        if not abs(self.a) < np.inf:
            raise ValueError("schedule power a must be finite")

    def value(self, nu: float, t: float) -> float:
        if self.form == "constant":
            return self.c
        nu = float(nu)
        try:
            m = self.c * nu**self.a
        except OverflowError:  # float ** float overflows by raising
            m = np.inf
        if not 0.0 < m < np.inf:
            raise ValueError(f"schedule value c * nu^a at nu = {nu!r} is not positive and finite")
        return m

    def integral(self, nu: float, t: float) -> float:
        """int_0^t M_nu(s) ds."""
        return self.value(nu, t) * t


@dataclass(frozen=True)
class LayerSpec:
    """Layer constant C, norm index r (inf allowed), and whether the
    condition is evaluated on -d2 u1 instead of the vorticity."""

    C: float = 10.0
    r: float = 2.0
    use_du1dy: bool = False

    def __post_init__(self):
        _check_layer_c(self.C)
        if not self.r >= 1.0:
            raise ValueError("r must be >= 1 (inf allowed)")


def _check_layer_c(C: float) -> None:
    # an infinite C makes every layer height NaN: a vacuous pass
    if not 1.0 < C < np.inf:
        raise ValueError("layer constant C must exceed 1 and be finite")


def layer_height(nu: float, t: float, schedule: MSchedule, C: float) -> float:
    """h = (nu tau / C) log(C / (M tau)), clamped at 0 when the log
    argument drops to 1 or below: at t > 0 that clamp is the only way h
    is 0.  C obeys LayerSpec's rule."""
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    if not t >= 0.0:
        raise ValueError("t must be >= 0")
    _check_layer_c(C)
    tau = min(t, 1.0)
    if tau == 0.0:
        return 0.0
    arg = C / (schedule.value(nu, t) * tau)
    if arg <= 1.0:
        return 0.0
    return nu * tau / C * float(np.log(arg))


def no_backflow_margin(euler_state) -> float:
    """min over wall nodes of the inviscid tangential trace (>= 0 means
    no backflow)."""
    return float(euler_state.velocity.comp1[:, 0].min())


def _layer_defect(state, schedule: MSchedule, C: float, use_du1dy: bool):
    """The layer at the state's time, and what its condition reads for any r:
    the height, the number k of grid rows inside the strip (rows 1..k), M,
    the defect |(omega + M/nu)_-| on the strip's nodes (of -d2 u1 in place
    of omega if `use_du1dy`) with their quadrature weights, both in C order
    as lp_norm over layer_region sums them, and the wall-vorticity margin,
    min over the wall row of omega + M/nu.  Only rows [0, k + 1) of the
    vorticity (and of -d2 u1) are read."""
    if state.nu <= 0.0:
        raise ValueError("the layer condition applies to the viscous state")
    h = layer_height(state.nu, state.t, schedule, C)
    k = _strip_rows(state.grid, h)
    m = schedule.value(state.nu, state.t)
    omega = state._vorticity_rows(k + 1)
    if use_du1dy:
        base = -_y_derivative_rows(state.grid, state.velocity.comp1, k + 1)
    else:
        base = omega
    defect = np.abs(np.minimum(base + m / state.nu, 0.0))
    if not np.all(np.isfinite(defect)):
        raise ValueError("field values must be finite")
    return (h, k, m, defect[:, 1:].ravel(), state.grid.quad_weights[:, 1:k + 1].ravel(),
            float((omega[:, 0] + m / state.nu).min()))


def _layer_condition(state, m: float, defect, weights, r: float):
    """(lhs, rhs) of the layer condition, lhs = nu^{(r-1)/r} ||defect||_{L^r}
    over the strip and rhs = tau^{1/r} M; for r = inf the prefactor is nu
    and tau^{1/r} = 1.  An empty layer gives lhs = 0."""
    lp = _lp_sum(defect, weights, r)
    if np.isinf(r):
        return float(state.nu * lp), float(m)
    lhs = state.nu ** ((r - 1.0) / r) * lp
    return float(lhs), float(min(state.t, 1.0) ** (1.0 / r) * m)  # tau^{1/r} M


# (criteria.csv column, CriterionReport field), in column order
_CRITERIA_COLUMNS = (
    ("t", "times"),
    ("nu", "nu"),
    ("layer_height", "layer_heights"),
    ("backflow_margin", "backflow_margin"),
    ("cond_lhs", "cond_lhs"),
    ("cond_rhs", "cond_rhs"),
    ("cond_pass", "cond_pass"),
    ("wall_vort_margin", "wall_vort_margin"),
    ("under_resolved", "under_resolved"),
)
CRITERIA_CSV_HEADER = ",".join(column for column, _ in _CRITERIA_COLUMNS)


@dataclass(frozen=True)
class CriterionReport:
    """Per-output-time criterion diagnostics for one paired run."""

    nu: float
    times: np.ndarray
    layer_heights: np.ndarray
    backflow_margin: np.ndarray
    cond_lhs: np.ndarray
    cond_rhs: np.ndarray
    cond_pass: np.ndarray
    wall_vort_margin: np.ndarray
    under_resolved: np.ndarray

    def rows(self):
        return zip(*(np.broadcast_to(getattr(self, name), self.times.shape)
                     for _, name in _CRITERIA_COLUMNS))

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.cond_pass))


def _write_csv(path, header: str, rows) -> None:
    """Write the header, then each row: text as it is, None as an empty
    cell, a number or flag as the repr of its Python value."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    return "" if v is None else repr(v.item() if isinstance(v, np.generic) else v)


def write_criteria_csv(path, reports) -> None:
    """Write the criteria CSV: the header, then every row of each report
    in order, floats written with repr."""
    _write_csv(path, CRITERIA_CSV_HEADER,
               (row for rep in reports for row in rep.rows()))


def evaluate_criteria(ns_traj, euler_traj, schedule: MSchedule,
                      spec: LayerSpec) -> CriterionReport:
    """Evaluate all criteria at every shared output time of a paired run.

    A time is flagged under_resolved when the layer is nonempty but
    covers fewer than 2 wall-normal grid rows.  Of each viscous state only
    the wall row and the strip's rows are read: a stored vorticity is
    sliced, and a derived one (a loaded state's) is computed for those
    rows alone.
    """
    return _criteria_reports(ns_traj, euler_traj, schedule, (spec,))[0]


def _criteria_reports(ns_traj, euler_traj, schedule: MSchedule, specs) -> list:
    """`evaluate_criteria` for each of `specs`, in one pass over the states:
    the specs share C and use_du1dy, so each state's layer, defect and
    margins are computed once, and only the L^r norm and (lhs, rhs) once per
    spec.  Each time reads the viscous state, then the inviscid one."""
    specs = tuple(specs)
    if not specs or len({(s.C, s.use_du1dy) for s in specs}) != 1:
        raise ValueError("one criteria pass takes specs that share C and use_du1dy")
    C, use_du1dy = specs[0].C, specs[0].use_du1dy
    t_ns = _paired_times(ns_traj, euler_traj)
    rows = [[] for _ in specs]
    for s_ns, s_e in zip(ns_traj.states, euler_traj.states):
        h, rows_inside, m, defect, weights, wall = _layer_defect(s_ns, schedule, C,
                                                                 use_du1dy)
        backflow = no_backflow_margin(s_e)
        for spec, spec_rows in zip(specs, rows):
            lhs, rhs = _layer_condition(s_ns, m, defect, weights, spec.r)
            # one value per CriterionReport field after nu and times, in order
            spec_rows.append((h, backflow, lhs, rhs, lhs <= rhs, wall,
                              h > 0.0 and rows_inside < 2))
    return [CriterionReport(ns_traj.nu, t_ns.copy(), *map(np.array, zip(*spec_rows)))
            for spec_rows in rows]
