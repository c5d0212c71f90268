"""Error histories, bound curves, the energy budget, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correctors import (
    CorrectorParams,
    WallTrace,
    _FlatFactors,
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


def _dot(w, a, b, acc, tmp):
    """Weighted integral of a . b, the products summed in component order
    into `acc`, each one after the first formed in `tmp`."""
    np.multiply(a[0], b[0], out=acc)
    for x, y in zip(a[1:], b[1:]):
        acc += np.multiply(x, y, out=tmp)
    acc *= w
    return float(np.sum(acc))


def error_series(ns_traj, euler_traj) -> ErrorSeries:
    """Squared L^2 distance between the paired runs at each output time."""
    t_ns = _paired_times(ns_traj, euler_traj)
    d1, d2, acc, tmp = (np.empty(ns_traj.grid.shape) for _ in range(4))
    vals = []
    for a, b in zip(ns_traj.states, euler_traj.states):
        np.subtract(a.velocity.comp1, b.velocity.comp1, out=d1)
        np.subtract(a.velocity.comp2, b.velocity.comp2, out=d2)
        vals.append(_dot(ns_traj.grid.quad_weights, (d1, d2), (d1, d2), acc, tmp))
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


def _grad(grid, f, dy):
    """grad f of a component pair f, as (d1 f1, d2 f1, d1 f2, d2 f2); the
    two d/dx2 derivatives are written into the pair `dy`."""
    return (*gradient(grid, f[0], out=dy[0]), *gradient(grid, f[1], out=dy[1]))


def _advect(a, g, out, tmp):
    """(a . grad) f of a component pair a, with g = _grad of f, into the
    pair `out`; each component sums its second product, formed in `tmp`,
    into its first."""
    c1, c2 = out
    np.multiply(a[0], g[0], out=c1)
    c1 += np.multiply(a[1], g[1], out=tmp)
    np.multiply(a[0], g[2], out=c2)
    c2 += np.multiply(a[1], g[3], out=tmp)


# Rows of the budget's workspace: the d/dx2 derivatives of u and ubar, e =
# v - phi, (u . grad) phi, ((v - phi) . grad) ubar, the `_dot` accumulator
# and its scratch, and the corrector's eight slots (see energy_budget).
_ROW_SLOTS = (4, 2, 2, 2, 2, 8)


def _budget_row(w, nu, u, ubar, grid, ws):
    """Pointwise integrands of one budget row; u is the viscous field,
    ubar the inviscid one, v = u - ubar the gap.  `ws` is the workspace
    (`_ROW_SLOTS`) whose last eight rows hold the corrector phi, its time
    derivative and its gradient (ordered as `_grad`'s)."""
    dy, e, adv_phi, gb_e, sums, corr = np.split(ws, np.cumsum(_ROW_SLOTS)[:-1])
    phi, dphi_dt, g_phi = corr[0:2], corr[2:4], corr[4:8]
    u, ubar = (u.comp1, u.comp2), (ubar.comp1, ubar.comp2)
    g_u, g_bar = _grad(grid, u, dy[0:2]), _grad(grid, ubar, dy[2:4])
    for ek, uk, bk, pk in zip(e, u, ubar, phi):     # v - phi
        np.subtract(uk, bk, out=ek)
        ek -= pk
    _advect(u, g_phi, adv_phi, sums[1])     # (u . grad) phi
    _advect(e, g_bar, gb_e, sums[1])        # ((v-phi) . grad) ubar

    def dot(a, b):
        return _dot(w, a, b, *sums)

    # I2 = -int (u . grad phi) . u
    # R = nu int grad u : grad ubar - int (v-phi) . (grad ubar)(v-phi)
    #     - int phi . (grad ubar)(v-phi) + int (u . grad phi) . ubar
    #     - int d(phi)/dt . (v-phi)
    r = (nu * dot(g_u, g_bar) - dot(gb_e, e) - dot(gb_e, phi)
         + dot(adv_phi, ubar) - dot(dphi_dt, e))
    return (0.5 * dot(e, e), nu * dot(g_u, g_u), nu * dot(g_u, g_phi),
            -dot(adv_phi, u), r)


def _series_rate(times, vals):
    """Second-order d/dt of sampled series along the last axis of `vals`
    (one-sided at the ends)."""
    if len(times) < 3:
        raise ValueError("budget rate needs at least 3 output times")
    return _apply_d1(_d1_stencils(np.asarray(times, dtype=float)), vals)


def energy_budget(ns_traj, euler_traj, corrector_provider=None) -> EnergyBudget:
    """Assemble the budget row by row along a paired run.

    corrector_provider(i, t, euler_state, out) writes the corrector at
    output index i into the eight (nx, ny) rows of `out`, in the order
    (phi1, phi2, d/dt phi1, d/dt phi2, d1 phi1, d2 phi1, d1 phi2, d2 phi2).
    By default the corrector is the zero field (appropriate whenever the
    inviscid trace vanishes).  Each row differentiates only u and ubar:
    8 two-dimensional FFTs and 4 two-dimensional d/dx2 stencil passes.  The
    rows share one workspace, allocated per call.
    The residual is lhs_rate + dissipation - (I1 + I2 + R); for an exact
    solution pair it vanishes, discretely it shrinks at the scheme order.
    """
    times = _paired_times(ns_traj, euler_traj)
    grid = ns_traj.grid
    ws = np.empty((sum(_ROW_SLOTS), *grid.shape))
    corrector = ws[-_ROW_SLOTS[-1]:]
    if corrector_provider is None:
        corrector.fill(0.0)
        corrector_provider = lambda i, t, euler_state, out: None
    rows = []
    for i, (s_ns, s_e) in enumerate(zip(ns_traj.states, euler_traj.states)):
        corrector_provider(i, s_ns.t, s_e, corrector)
        rows.append(_budget_row(grid.quad_weights, ns_traj.nu, s_ns.velocity,
                                s_e.velocity, grid, ws))
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

    The provider writes energy_budget's eight corrector rows.  The trace
    time derivative is a second-order difference of the sampled trace; the
    corrector itself is the flat variant, written by `flat_corrector` and
    `corrector_time_derivative`, and its gradient comes from its 1-D
    factors (`correctors._FlatFactors.gradient`).  At t = 0 all eight rows
    are zero.
    """
    grid = euler_traj.grid
    times = euler_traj.times
    # copied rows, so that no state's velocity outlives its own iteration
    traces = np.stack([s.velocity.comp1[:, 0].copy() for s in euler_traj.states])
    rates = _series_rate(times, traces.T).T

    def provider(i, t, euler_state, out):
        u = traces[i]
        trace = WallTrace(u=u, du_dx=x_derivative(grid, u))
        params = CorrectorParams(alpha=alpha, t=float(t), trace=trace)
        if t == 0.0:
            out.fill(0.0)
            return
        flat_corrector(params, grid, out=out[0:2])
        corrector_time_derivative(params, grid, rates[i], out=out[2:4])
        _FlatFactors(params, grid).gradient(out[4:8])

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
