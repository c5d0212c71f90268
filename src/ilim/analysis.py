"""Error histories, bound curves, the energy budget, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .correctors import (
    CorrectorParams,
    WallTrace,
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


def error_series(ns_traj, euler_traj) -> ErrorSeries:
    """Squared L^2 distance between the paired runs at each output time."""
    t_ns = _paired_times(ns_traj, euler_traj)
    w = ns_traj.grid.quad_weights
    vals = np.empty(len(t_ns))
    for i, (a, b) in enumerate(zip(ns_traj.states, euler_traj.states)):
        d1 = a.velocity.comp1 - b.velocity.comp1
        d2 = a.velocity.comp2 - b.velocity.comp2
        vals[i] = float(np.sum(w * (d1 * d1 + d2 * d2)))
    return ErrorSeries(nu=ns_traj.nu, times=t_ns, values=vals)


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


def _budget_row(w, nu, u, ubar, phi, dphi_dt, grid):
    """Pointwise integrands of one budget row; u is the viscous field,
    ubar the inviscid one, phi the corrector, v = u - ubar the gap."""
    u1, u2 = u.comp1, u.comp2
    g11, g12 = gradient(grid, u1)     # (d1 u1, d2 u1)
    g21, g22 = gradient(grid, u2)
    p11, p12 = gradient(grid, phi.comp1)
    p21, p22 = gradient(grid, phi.comp2)
    b11, b12 = gradient(grid, ubar.comp1)
    b21, b22 = gradient(grid, ubar.comp2)
    v1 = u1 - ubar.comp1
    v2 = u2 - ubar.comp2
    e1 = v1 - phi.comp1
    e2 = v2 - phi.comp2

    dissipation = nu * float(np.sum(w * (g11**2 + g12**2 + g21**2 + g22**2)))
    i1 = nu * float(np.sum(w * (g11 * p11 + g12 * p12 + g21 * p21 + g22 * p22)))
    # I2 = -int (u . grad phi) . u
    adv_phi_1 = u1 * p11 + u2 * p12
    adv_phi_2 = u1 * p21 + u2 * p22
    i2 = -float(np.sum(w * (adv_phi_1 * u1 + adv_phi_2 * u2)))
    # R = nu int grad u : grad ubar - int (v-phi) . (grad ubar)(v-phi)
    #     - int phi . (grad ubar)(v-phi) + int (u . grad phi) . ubar
    #     - int d(phi)/dt . (v-phi)
    r1 = nu * float(np.sum(w * (g11 * b11 + g12 * b12 + g21 * b21 + g22 * b22)))
    gb_e1 = e1 * b11 + e2 * b12          # ((v-phi) . grad) ubar, comp 1
    gb_e2 = e1 * b21 + e2 * b22
    r2 = -float(np.sum(w * (gb_e1 * e1 + gb_e2 * e2)))
    r3 = -float(np.sum(w * (gb_e1 * phi.comp1 + gb_e2 * phi.comp2)))
    r4 = float(np.sum(w * (adv_phi_1 * ubar.comp1 + adv_phi_2 * ubar.comp2)))
    r5 = -float(np.sum(w * (dphi_dt.comp1 * e1 + dphi_dt.comp2 * e2)))
    gap = 0.5 * float(np.sum(w * (e1 * e1 + e2 * e2)))
    return gap, dissipation, i1, i2, r1 + r2 + r3 + r4 + r5


def _series_rate(times, vals):
    """Second-order d/dt of sampled series along the last axis of `vals`
    (one-sided at the ends)."""
    if len(times) < 3:
        raise ValueError("budget rate needs at least 3 output times")
    return _apply_d1(_d1_stencils(np.asarray(times, dtype=float)), vals)


def energy_budget(ns_traj, euler_traj, corrector_provider=None) -> EnergyBudget:
    """Assemble the budget row by row along a paired run.

    corrector_provider(i, t, euler_state) must return the corrector and
    its time derivative at output index i; by default the corrector is
    the zero field (appropriate whenever the inviscid trace vanishes).
    The residual is lhs_rate + dissipation - (I1 + I2 + R); for an exact
    solution pair it vanishes, discretely it shrinks at the scheme order.
    """
    times = _paired_times(ns_traj, euler_traj)
    grid = ns_traj.grid
    if corrector_provider is None:
        zero = _zero_field(grid)
        corrector_provider = lambda i, t, euler_state: (zero, zero)
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


def trace_corrector_provider(euler_traj, alpha: float):
    """Corrector provider fed by the inviscid wall trace of a run.

    The trace time derivative is a second-order difference of the
    sampled trace; the corrector itself is the flat variant.
    """
    grid = euler_traj.grid
    times = euler_traj.times
    traces = np.stack([s.velocity.comp1[:, 0] for s in euler_traj.states])
    rates = _series_rate(times, traces.T).T

    def provider(i, t, euler_state):
        u = traces[i]
        trace = WallTrace(u=u, du_dx=x_derivative(grid, u))
        params = CorrectorParams(alpha=alpha, t=float(t), trace=trace)
        if t == 0.0:
            return _zero_field(grid), _zero_field(grid)
        dphi = corrector_time_derivative(params, grid, rates[i])
        return flat_corrector(params, grid), dphi.field

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
