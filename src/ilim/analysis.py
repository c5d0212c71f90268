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
    """Weighted integral of a . b, the products summed in component order."""
    products = sum((x * y for x, y in zip(a[1:], b[1:])), a[0] * b[0])
    return float(np.sum(w * products))


def error_series(ns_traj, euler_traj) -> ErrorSeries:
    """Squared L^2 distance between the paired runs at each output time."""
    t_ns = _paired_times(ns_traj, euler_traj)
    vals = []
    for a, b in zip(ns_traj.states, euler_traj.states):
        d = (a.velocity.comp1 - b.velocity.comp1, a.velocity.comp2 - b.velocity.comp2)
        vals.append(_dot(ns_traj.grid.quad_weights, d, d))
    return ErrorSeries(nu=ns_traj.nu, times=t_ns, values=np.array(vals))


def _layered(nu, t, schedule):
    """The layered bound without its constant: nu t + int_0^t M."""
    return nu * t + schedule.integral(nu, t)


def theorem_bounds(series: ErrorSeries, schedule, c_fit: float) -> np.ndarray:
    """The layered bound C (nu t + int_0^t M) at the series times."""
    if not 0.0 < c_fit < np.inf:
        raise ValueError("fitted constant must be positive and finite")
    return np.array([c_fit * _layered(series.nu, t, schedule) for t in series.times])


def calibrate_bound_constant(series_list, schedule) -> float:
    """Smallest constant making the layered bound hold on the calibration
    runs: max over runs and times > 0 of err^2 / (nu t + int M).  Every
    value must be a squared error, finite and >= 0 (max would drop a NaN)."""
    best = 0.0
    for s in series_list:
        for t, v in zip(s.times, s.values):
            if not 0.0 <= v < np.inf:
                raise ValueError(f"calibration series at nu = {float(s.nu)!r}, "
                                 f"t = {float(t)!r}: {float(v)!r} is not a finite "
                                 "squared error")
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
    """(a . grad) f of a component pair a, with g = _grad of f."""
    return a[0] * g[0] + a[1] * g[1], a[0] * g[2] + a[1] * g[3]


def _budget_row(w, nu, u, ubar, grid, corr):
    """Pointwise integrands of one budget row; u is the viscous field,
    ubar the inviscid one, v = u - ubar the gap.  The eight rows of `corr`
    hold the corrector phi, its time derivative and its gradient (ordered
    as `_grad`'s)."""
    phi, dphi_dt, g_phi = corr[0:2], corr[2:4], corr[4:8]
    u, ubar = (u.comp1, u.comp2), (ubar.comp1, ubar.comp2)

    def dot(a, b):
        return _dot(w, a, b)

    g_u, g_bar = _grad(grid, u), _grad(grid, ubar)
    gu_gbar, gu_gu, gu_gphi = dot(g_u, g_bar), dot(g_u, g_u), dot(g_u, g_phi)
    e = tuple(uk - bk - pk for uk, bk, pk in zip(u, ubar, phi))     # v - phi
    gb_e = _advect(e, g_bar)        # ((v-phi) . grad) ubar
    # Free the eight gradient arrays before the rest: held to the row's end
    # they let its temporaries outgrow glibc's heap trim threshold, so that
    # every row would fault its pages in afresh.
    del g_u, g_bar
    adv_phi = _advect(u, g_phi)     # (u . grad) phi
    # I2 = -int (u . grad phi) . u
    # R = nu int grad u : grad ubar - int (v-phi) . (grad ubar)(v-phi)
    #     - int phi . (grad ubar)(v-phi) + int (u . grad phi) . ubar
    #     - int d(phi)/dt . (v-phi)
    r = (nu * gu_gbar - dot(gb_e, e) - dot(gb_e, phi)
         + dot(adv_phi, ubar) - dot(dphi_dt, e))
    return (0.5 * dot(e, e), nu * gu_gu, nu * gu_gphi, -dot(adv_phi, u), r)


def _series_rate(times, vals):
    """Second-order d/dt of sampled series along the last axis of `vals`
    (one-sided at the ends)."""
    if len(times) < 3:
        raise ValueError("budget rate needs at least 3 output times")
    return _apply_d1(_d1_stencils(np.asarray(times, dtype=float)), vals)


def energy_budget(ns_traj, euler_traj, corrector_provider=None) -> EnergyBudget:
    """Assemble the budget row by row along a paired run.

    corrector_provider(i, t, out) writes the corrector at
    output index i into the eight (nx, ny) rows of `out`, in the order
    (phi1, phi2, d/dt phi1, d/dt phi2, d1 phi1, d2 phi1, d1 phi2, d2 phi2).
    By default the corrector is the zero field (appropriate whenever the
    inviscid trace vanishes).  Each row differentiates only u and ubar:
    8 two-dimensional FFTs and 4 two-dimensional d/dx2 stencil passes.  The
    rows share one corrector buffer, allocated per call.
    The residual is lhs_rate + dissipation - (I1 + I2 + R); for an exact
    solution pair it vanishes, discretely it shrinks at the scheme order.
    """
    times = _paired_times(ns_traj, euler_traj)
    grid = ns_traj.grid
    # The provider writes into this buffer instead of returning its eight
    # arrays: at 128x193 the returned arrays cost each row 1.6 MB more of
    # allocations, which pushed a budget call in a process that had stepped
    # past glibc's heap trim threshold (74-82k minor faults per warm call
    # against 0.6-0.9k, and `replay` op_s 1.24-1.34x; same bits).
    corrector = np.zeros((8, *grid.shape))
    if corrector_provider is None:
        corrector_provider = lambda i, t, out: None
    rows = []
    for i, (s_ns, s_e) in enumerate(zip(ns_traj.states, euler_traj.states)):
        corrector_provider(i, s_ns.t, corrector)
        rows.append(_budget_row(grid.quad_weights, ns_traj.nu, s_ns.velocity,
                                s_e.velocity, grid, corrector))
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

    def provider(i, t, out):
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

    forcing is a constant or an array aligned with times, linear between
    samples.  Each step h is solved exactly: with x = 2 c h,
    y1 = e^x y0 + 2 h (f0 phi1(x) + (f1 - f0) phi2(x)), phi1(x) = (e^x - 1)/x
    and phi2(x) = (e^x - 1 - x)/x^2, summed as its series
    sum_n x^n/(n + 2)! to n = 17 where |x| < 1, since expm1(x) - x cancels.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0:
        raise ValueError("times must start at 0")
    h = np.diff(times)
    if not np.all(h > 0.0):
        raise ValueError("times must increase strictly")
    if not abs(rate_c) < np.inf:
        raise ValueError(f"rate_c must be finite, got {rate_c!r}")
    f = np.asarray(forcing, dtype=float)
    if f.shape not in ((), times.shape):
        raise ValueError("forcing samples must align with times")
    if not np.isfinite(f).all():
        raise ValueError("forcing must be finite")
    f = np.broadcast_to(f, times.shape)
    x = 2.0 * rate_c * h
    em1 = np.expm1(x)
    phi1 = np.divide(em1, x, out=np.ones_like(x), where=x != 0.0)
    small = np.abs(x) < 1.0
    # 1/19!, ..., 1/2!, highest power first
    phi2 = np.polyval(1.0 / np.cumprod(np.arange(2.0, 20.0))[::-1], np.where(small, x, 0.0))
    np.divide(em1 - x, x * x, out=phi2, where=~small)
    y = np.zeros(times.size)
    for i, step in enumerate(2.0 * h * (f[:-1] * phi1 + np.diff(f) * phi2)):
        y[i + 1] = y[i] + em1[i] * y[i] + step
    return y


@dataclass(frozen=True)
class RateFit:
    exponent: float
    prefactor: float
    residual: float
    n_samples: int


def fit_rate(nus, errors) -> RateFit:
    """Least-squares exponent of errors ~ prefactor * nu^exponent.

    Requires at least 3 positive, finite (nu, error) pairs.
    """
    nus = np.asarray(nus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if nus.shape != errors.shape or nus.ndim != 1:
        raise ValueError("nus and errors must be matching 1-d arrays")
    if nus.size < 3:
        raise ValueError("rate fit needs at least 3 samples")
    both = np.concatenate([nus, errors])
    if not np.all((0.0 < both) & (both < np.inf)):
        raise ValueError("rate fit needs positive, finite nus and errors")
    lx, ly = np.log(nus), np.log(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2))
    return RateFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        residual=float(resid),
        n_samples=int(nus.size),
    )
