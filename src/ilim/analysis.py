"""Error histories, bound curves, the energy budget, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correctors import (
    CorrectorParams,
    WallTrace,
    _flat_gradient,
    _zero_field,
    corrector_time_derivative,
    flat_corrector,
)
from .grid import _apply_d1, _d1_stencils, _paired_times, gradient, x_derivative

__all__ = [
    "ErrorSeries",
    "error_series",
    "BoundCurves",
    "theorem_bounds",
    "calibrate_bound_constant",
    "EnergyBudget",
    "energy_budget",
    "trace_corrector_provider",
    "gronwall_envelope",
    "RateFit",
    "fit_rate",
]


@dataclass(frozen=True)
class ErrorSeries:
    """Squared velocity gap ||u - ubar||^2_{L^2} at the output times."""

    nu: float
    times: np.ndarray
    values: np.ndarray

    @property
    def sup_value(self) -> float:
        return float(self.values.max())


def _dot(w, a, b):
    """Weighted integral of a . b, the products summed in component order
    into the first one, in place."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc += x * y
    acc *= w
    return float(np.sum(acc))


def error_series(ns_traj, euler_traj) -> ErrorSeries:
    """Squared L^2 distance between the paired runs at each output time."""
    t_ns = _paired_times(ns_traj, euler_traj)
    vals = []
    for a, b in zip(ns_traj.states, euler_traj.states):
        d = (a.velocity.comp1 - b.velocity.comp1, a.velocity.comp2 - b.velocity.comp2)
        vals.append(_dot(ns_traj.grid.quad_weights, d, d))
    return ErrorSeries(nu=ns_traj.nu, times=t_ns, values=np.array(vals))


@dataclass(frozen=True)
class BoundCurves:
    times: np.ndarray
    linear: np.ndarray      # C nu t
    layered: np.ndarray     # C (nu t + int_0^t M)


def _layered(nu, t, schedule):
    """The layered bound without its constant: nu t + int_0^t M."""
    return nu * t + schedule.integral(nu, t)


def theorem_bounds(series: ErrorSeries, schedule, c_fit: float) -> BoundCurves:
    """Bound curves C nu t and C (nu t + int_0^t M) at the series times."""
    if c_fit <= 0.0:
        raise ValueError("fitted constant must be positive")
    nu = series.nu
    lin = np.array([c_fit * nu * t for t in series.times])
    lay = np.array([c_fit * _layered(nu, t, schedule) for t in series.times])
    return BoundCurves(times=series.times, linear=lin, layered=lay)


def calibrate_bound_constant(series_list, schedule) -> float:
    """Smallest constant making the layered bound hold on the calibration
    runs: max over runs and times > 0 of err^2 / (nu t + int M)."""
    best = 0.0
    for s in series_list:
        for t, v in zip(s.times, s.values):
            if t > 0.0:
                best = max(best, v / _layered(s.nu, t, schedule))
    if best == 0.0:
        raise ValueError("calibration series carry no positive-time data")
    return float(best)


# ---------------------------------------------------------------------------
# Energy budget


@dataclass(frozen=True)
class EnergyBudget:
    """Rows of the half-gap energy identity
    d/dt (1/2)||v - phi||^2 + nu ||grad u||^2 = I1 + I2 + R."""

    times: np.ndarray
    gap_energy: np.ndarray
    lhs_rate: np.ndarray
    dissipation: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    r: np.ndarray
    residual: np.ndarray


def _grad(grid, f):
    """grad f of a component pair f, as (d1 f1, d2 f1, d1 f2, d2 f2)."""
    return (*gradient(grid, f[0]), *gradient(grid, f[1]))


def _advect(a, g):
    """(a . grad) f of a component pair a, with g = _grad of f; each
    component sums into its first product, in place."""
    c1, c2 = a[0] * g[0], a[0] * g[2]
    c1 += a[1] * g[1]
    c2 += a[1] * g[3]
    return c1, c2


def _budget_row(w, nu, u, ubar, phi, dphi_dt, g_phi, grid):
    """Pointwise integrands of one budget row; u is the viscous field,
    ubar the inviscid one, phi the corrector with gradient g_phi (ordered as
    `_grad`'s), v = u - ubar the gap."""
    u, ubar, phi, dphi_dt = ((f.comp1, f.comp2) for f in (u, ubar, phi, dphi_dt))
    g_u, g_bar = _grad(grid, u), _grad(grid, ubar)
    e = (u[0] - ubar[0] - phi[0], u[1] - ubar[1] - phi[1])     # v - phi
    adv_phi = _advect(u, g_phi)     # (u . grad) phi
    gb_e = _advect(e, g_bar)        # ((v-phi) . grad) ubar
    # I2 = -int (u . grad phi) . u
    # R = nu int grad u : grad ubar - int (v-phi) . (grad ubar)(v-phi)
    #     - int phi . (grad ubar)(v-phi) + int (u . grad phi) . ubar
    #     - int d(phi)/dt . (v-phi)
    r = (nu * _dot(w, g_u, g_bar) - _dot(w, gb_e, e) - _dot(w, gb_e, phi)
         + _dot(w, adv_phi, ubar) - _dot(w, dphi_dt, e))
    return (0.5 * _dot(w, e, e), nu * _dot(w, g_u, g_u), nu * _dot(w, g_u, g_phi),
            -_dot(w, adv_phi, u), r)


def _series_rate(times, vals):
    """Second-order d/dt of sampled series along the last axis of `vals`
    (one-sided at the ends)."""
    if len(times) < 3:
        raise ValueError("budget rate needs at least 3 output times")
    return _apply_d1(_d1_stencils(np.asarray(times, dtype=float)), vals)


def energy_budget(ns_traj, euler_traj, corrector_provider=None) -> EnergyBudget:
    """Assemble the budget row by row along a paired run.

    corrector_provider(i, t, euler_state) returns the tuple
    (phi, dphi_dt, grad_phi) at output index i: the corrector and its time
    derivative as VectorFields, and grad phi as the four arrays
    (d1 phi1, d2 phi1, d1 phi2, d2 phi2).  By default the corrector is the
    zero field (appropriate whenever the inviscid trace vanishes).  Each row
    differentiates only u and ubar: 8 two-dimensional FFTs and 4
    two-dimensional d/dx2 stencil passes.
    The residual is lhs_rate + dissipation - (I1 + I2 + R); for an exact
    solution pair it vanishes, discretely it shrinks at the scheme order.
    """
    times = _paired_times(ns_traj, euler_traj)
    grid = ns_traj.grid
    if corrector_provider is None:
        zero_row = _zero_row(grid)
        corrector_provider = lambda i, t, euler_state: zero_row
    rows = [
        _budget_row(grid.quad_weights, ns_traj.nu, s_ns.velocity, s_e.velocity,
                    *corrector_provider(i, s_ns.t, s_e), grid)
        for i, (s_ns, s_e) in enumerate(zip(ns_traj.states, euler_traj.states))
    ]
    gap, diss, i1, i2, r = np.array(rows).T
    lhs = _series_rate(times, gap)
    residual = lhs + diss - (i1 + i2 + r)
    return EnergyBudget(
        times=times,
        gap_energy=gap,
        lhs_rate=lhs,
        dissipation=diss,
        i1=i1,
        i2=i2,
        r=r,
        residual=residual,
    )


def _zero_row(grid):
    """The provider tuple of a zero corrector: (phi, dphi_dt, grad_phi)."""
    zero = _zero_field(grid)
    return zero, zero, (zero.comp1,) * 4


def trace_corrector_provider(euler_traj, alpha: float):
    """Corrector provider fed by the inviscid wall trace of a run.

    The provider returns energy_budget's tuple (phi, dphi_dt, grad_phi).
    The trace time derivative is a second-order difference of the
    sampled trace; the corrector itself is the flat variant, and its
    gradient comes from its 1-D factors (`correctors._flat_gradient`).
    At t = 0 all three are zero.
    """
    grid = euler_traj.grid
    times = euler_traj.times
    traces = np.stack([s.velocity.comp1[:, 0] for s in euler_traj.states])
    rates = _series_rate(times, traces.T).T
    zero_row = _zero_row(grid)

    def provider(i, t, euler_state):
        u = traces[i]
        trace = WallTrace(u=u, du_dx=x_derivative(grid, u))
        params = CorrectorParams(alpha=alpha, t=float(t), trace=trace)
        if t == 0.0:
            return zero_row
        dphi = corrector_time_derivative(params, grid, rates[i])
        return flat_corrector(params, grid), dphi.field, _flat_gradient(params, grid)

    return provider


# ---------------------------------------------------------------------------
# Envelope and rate fits


def gronwall_envelope(times, rate_c: float, forcing) -> np.ndarray:
    """Envelope y(t) with y' = 2 c y + 2 f(t), y(0) = 0, at the given times.

    forcing may be a callable f(t) or an array aligned with times
    (interpolated linearly between samples).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must increase strictly")
    if callable(forcing):
        f = forcing
    elif np.ndim(forcing) == 0:
        const = float(forcing)
        f = lambda t: const
    else:
        samples = np.asarray(forcing, dtype=float)
        if samples.shape != times.shape:
            raise ValueError("forcing samples must align with times")
        f = lambda t: float(np.interp(t, times, samples))
    if times.size == 1:
        return np.zeros(1)
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: 2.0 * rate_c * y + 2.0 * f(t),
        (0.0, float(times[-1])),
        [0.0],
        t_eval=times,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"envelope integration failed: {sol.message}")
    return sol.y[0]


@dataclass(frozen=True)
class RateFit:
    exponent: float
    prefactor: float
    residual: float
    n_samples: int


def fit_rate(nus, errors) -> RateFit:
    """Least-squares exponent of errors ~ prefactor * nu^exponent.

    Requires at least 3 strictly positive (nu, error) pairs.
    """
    nus = np.asarray(nus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if nus.shape != errors.shape or nus.ndim != 1:
        raise ValueError("nus and errors must be matching 1-d arrays")
    if nus.size < 3:
        raise ValueError("rate fit needs at least 3 samples")
    if np.any(nus <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("rate fit needs positive nus and errors")
    lx, ly = np.log(nus), np.log(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2))
    return RateFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        residual=float(resid),
        n_samples=int(nus.size),
    )
