"""Error series, bound curves, energy budget, envelope, and rate fits."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from ilim import analysis
from ilim import grid as grid_module
from ilim.analysis import (
    ErrorSeries,
    calibrate_bound_constant,
    energy_budget,
    error_series,
    fit_rate,
    gronwall_envelope,
    theorem_bounds,
    trace_corrector_provider,
)
from ilim.correctors import (
    CorrectorParams,
    Mollifier,
    WallTrace,
    corrector_time_derivative,
    flat_corrector,
)
from ilim.criteria import MSchedule
from ilim.grid import (
    ScalarField,
    VectorField,
    curl2d,
    gradient,
    make_channel_grid,
    x_derivative,
    y_derivative,
)
from ilim.solvers import FlowState, SimulationConfig, Trajectory, run_simulation


def _parallel_pair(grid, offsets):
    """NS/Euler trajectory pair whose velocity gap is exactly offsets[i]."""
    profile = np.sin(np.pi * grid.y / grid.height) ** 2  # vanishes at both walls
    base = np.broadcast_to(profile, grid.shape).copy()
    zeros = np.zeros(grid.shape)
    ns_states, e_states = [], []
    for i, c in enumerate(offsets):
        t = 0.1 * i
        vel_ns = VectorField(grid, base, zeros)
        ns_states.append(
            FlowState(grid=grid, t=t, nu=1e-3, velocity=vel_ns, vorticity=curl2d(vel_ns))
        )
        vel_e = VectorField(grid, base + c, zeros)
        e_states.append(
            FlowState(grid=grid, t=t, nu=0.0, velocity=vel_e, vorticity=curl2d(vel_e))
        )
    ns = Trajectory(grid=grid, scheme="ns", nu=1e-3, dt=0.1, states=tuple(ns_states))
    e = Trajectory(grid=grid, scheme="euler", nu=0.0, dt=0.1, states=tuple(e_states))
    return ns, e


# ---------------------------------------------------------------------------
# error series and bounds


def test_error_series_constant_offsets(unit_grid):
    offsets = (0.0, 0.25, 0.5)
    ns, euler = _parallel_pair(unit_grid, offsets)
    series = error_series(ns, euler)
    assert series.nu == 1e-3
    # constant gap c over a unit-area domain gives exactly c^2
    expect = np.array([c * c for c in offsets])
    assert np.allclose(series.values, expect, rtol=1e-13)
    assert series.sup_value == pytest.approx(0.25, rel=1e-13)


def test_error_series_rejects_mismatches(unit_grid):
    ns, euler = _parallel_pair(unit_grid, (0.0, 0.1))
    other = make_channel_grid(8, 11, 1.0, 1.0, clustering="uniform")
    ns_other, _ = _parallel_pair(other, (0.0, 0.1))
    with pytest.raises(ValueError, match="share a grid"):
        error_series(ns_other, euler)
    short_ns, short_e = _parallel_pair(unit_grid, (0.0, 0.1, 0.2))
    with pytest.raises(ValueError, match="output times"):
        error_series(short_ns, euler)


def test_theorem_bounds_closed_form():
    series = ErrorSeries(nu=1e-3, times=np.array([0.0, 0.5, 1.0]),
                         values=np.array([0.0, 1.0, 2.0]))
    sched = MSchedule(form="constant", c=0.2)
    layered = theorem_bounds(series, sched, c_fit=3.0)
    assert np.allclose(
        layered, 3.0 * (1e-3 * series.times + 0.2 * series.times), rtol=1e-14
    )
    with pytest.raises(ValueError):
        theorem_bounds(series, sched, c_fit=0.0)


def test_theorem_bounds_rejects_an_infinite_constant():
    series = ErrorSeries(nu=1e-3, times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="^fitted constant must be positive and finite$"):
        theorem_bounds(series, MSchedule(form="constant", c=0.2), np.inf)


def test_theorem_bounds_with_vanishing_modulus():
    # an (effectively) zero modulus collapses the layered bound onto the
    # linear one, C nu t; the schedule amplitude must stay positive, so use
    # a tiny one
    series = ErrorSeries(nu=1e-3, times=np.array([0.0, 1.0]),
                         values=np.array([0.0, 1.0]))
    sched = MSchedule(form="constant", c=1e-300)
    layered = theorem_bounds(series, sched, c_fit=1.0)
    assert np.abs(layered - 1.0 * 1e-3 * series.times).max() <= 1e-290


def test_calibrate_bound_constant():
    sched = MSchedule(form="constant", c=0.5)
    s1 = ErrorSeries(nu=1e-2, times=np.array([0.0, 1.0]), values=np.array([0.0, 0.3]))
    s2 = ErrorSeries(nu=1e-3, times=np.array([0.0, 2.0]), values=np.array([0.0, 0.8]))
    # ratios: 0.3 / (1e-2 + 0.5) and 0.8 / (2e-3 + 1.0)
    expect = max(0.3 / 0.51, 0.8 / 1.002)
    assert calibrate_bound_constant([s1, s2], sched) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("values, at", [
    ([0.0, np.nan, 1e-4], "t = 0.5: nan"),
    ([0.0, 1e-4, np.nan], "t = 1.0: nan"),
    ([0.0, np.inf, 1e-4], "t = 0.5: inf"),
    ([0.0, -1e-4, 1e-4], "t = 0.5: -0.0001"),
], ids=["nan-mid", "nan-last", "inf", "negative"])
def test_calibrate_rejects_values_that_are_not_squared_errors(values, at):
    # max(best, nan) keeps best, so a NaN would drop out unseen
    sched = MSchedule(form="constant", c=0.2)
    series = ErrorSeries(nu=1e-3, times=np.array([0.0, 0.5, 1.0]), values=np.array(values))
    with pytest.raises(ValueError, match=rf"^calibration series at nu = 0\.001, {re.escape(at)} "
                                         "is not a finite squared error$"):
        calibrate_bound_constant([series], sched)


def test_calibrate_requires_positive_time_data():
    sched = MSchedule(form="constant", c=0.5)
    empty = ErrorSeries(nu=1e-2, times=np.array([0.0]), values=np.array([0.7]))
    with pytest.raises(ValueError, match="positive-time"):
        calibrate_bound_constant([empty], sched)


# ---------------------------------------------------------------------------
# energy budget


@pytest.fixture(scope="module")
def shear_pair():
    cfg = SimulationConfig(
        nx=8, ny=97, nu=1e-2, dt=2e-3, t_final=0.2, n_outputs=20,
        preset="shear", amplitude=1.0,
    )
    return run_simulation(cfg)


def test_budget_identity_on_shear(shear_pair):
    budget = energy_budget(shear_pair.ns, shear_pair.euler)
    # zero corrector: both corrector couplings vanish identically
    assert np.all(budget.i1 == 0.0)
    assert np.all(budget.i2 == 0.0)
    assert budget.dissipation.max() > 1e-3
    # the identity closes far below the dissipation scale
    assert np.abs(budget.residual).max() <= 2e-4 * budget.dissipation.max()


def test_budget_gap_is_half_error_series(shear_pair):
    budget = energy_budget(shear_pair.ns, shear_pair.euler)
    series = error_series(shear_pair.ns, shear_pair.euler)
    assert np.allclose(series.values, 2.0 * budget.gap_energy, rtol=1e-12)


def test_budget_needs_three_outputs(unit_grid):
    ns, euler = _parallel_pair(unit_grid, (0.0, 0.1))
    with pytest.raises(ValueError, match="at least 3"):
        energy_budget(ns, euler)


def _retimed(traj, dt):
    """The trajectory with its i-th output moved to t = i * dt."""
    states = tuple(dataclasses.replace(s, t=i * dt) for i, s in enumerate(traj.states))
    return dataclasses.replace(traj, dt=dt, states=states)


@pytest.mark.parametrize("case", ["missing-outputs", "other-dt"])
def test_budget_rejects_unpaired_runs(unit_grid, case):
    ns, euler = _parallel_pair(unit_grid, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    if case == "missing-outputs":
        # the inviscid run holds only 4 of the 6 output states
        euler = dataclasses.replace(euler, states=euler.states[:4])
    else:
        # outputs at 0, 0.005, ... against 0, 0.01, ...
        ns, euler = _retimed(ns, 0.005), _retimed(euler, 0.01)
    with pytest.raises(ValueError, match="paired trajectories must share output times"):
        energy_budget(ns, euler)


def _provide(provider, i, t, grid):
    """The provider's eight corrector rows at output i, split as
    (phi, dphi_dt, grad_phi); `out` starts as NaN, so every row is written."""
    out = np.full((8, *grid.shape), np.nan)
    assert provider(i, t, out) is None
    return out[0:2], out[2:4], out[4:8]


def test_trace_provider_zero_trace_gives_zero_corrector(shear_pair):
    provider = trace_corrector_provider(shear_pair.euler, alpha=0.5)
    phi, dphi, grad_phi = _provide(provider, 3, shear_pair.euler.times[3],
                                   shear_pair.euler.grid)
    assert np.abs(phi[0]).max() == 0.0 and np.abs(phi[1]).max() == 0.0
    assert np.abs(dphi[0]).max() == 0.0
    assert all(np.abs(g).max() == 0.0 for g in grad_phi)


def test_trace_provider_matches_wall_values():
    grid = make_channel_grid(16, 49, 2.0 * np.pi, 6.0, clustering="uniform")
    profile = np.exp(-grid.y)
    states = []
    for i, t in enumerate((0.0, 0.1, 0.2)):
        amp = 1.0 + 0.5 * t
        u1 = amp * np.cos(grid.x)[:, None] * profile[None, :]
        vel = VectorField(grid, u1, np.zeros(grid.shape))
        states.append(
            FlowState(grid=grid, t=t, nu=0.0, velocity=vel, vorticity=curl2d(vel))
        )
    traj = Trajectory(grid=grid, scheme="euler", nu=0.0, dt=0.1, states=tuple(states))
    provider = trace_corrector_provider(traj, alpha=0.5)

    phi0, dphi0, grad_phi0 = _provide(provider, 0, 0.0, grid)
    assert np.abs(phi0[0]).max() == 0.0 and np.abs(dphi0[0]).max() == 0.0
    assert all(np.abs(g).max() == 0.0 for g in grad_phi0)

    phi, dphi, _ = _provide(provider, 1, 0.1, grid)
    # the corrector cancels the sampled trace at the wall
    assert np.allclose(phi[0][:, 0], -1.05 * np.cos(grid.x), atol=1e-13)
    # the sampled amplitude is linear in t, so the second-order rate is
    # exact: at the wall d(phi_1)/dt = -dU/dt
    assert np.allclose(dphi[0][:, 0], -0.5 * np.cos(grid.x), atol=1e-10)


def _dot_reference(w, a, b):
    """`analysis._dot` as a generator sum, the reference for its bits."""
    return float(np.sum(w * sum((x * y for x, y in zip(a[1:], b[1:])), a[0] * b[0])))


def _advect_reference(a, g):
    """`analysis._advect` as a sum expression, the reference for its bits."""
    return a[0] * g[0] + a[1] * g[1], a[0] * g[2] + a[1] * g[3]


def _random_pair(grid, rng, n):
    """NS/Euler trajectories of n random states that meet both wall rules."""
    trajs = []
    for scheme, nu in (("ns", 1e-3), ("euler", 0.0)):
        states = []
        for i in range(n):
            u1, u2 = rng.standard_normal((2, *grid.shape)) * rng.uniform(0.1, 10.0)
            u1[:, 0] = 0.0
            u2[:, [0, -1]] = 0.0
            vel = VectorField(grid, u1, u2)
            states.append(FlowState(grid=grid, t=0.1 * i, nu=nu, velocity=vel,
                                    vorticity=curl2d(vel)))
        trajs.append(Trajectory(grid=grid, scheme=scheme, nu=nu, dt=0.1,
                                states=tuple(states)))
    return trajs


@pytest.mark.parametrize("seed", range(3))
def test_in_place_sums_keep_the_bits_of_the_generator_sums(seed):
    rng = np.random.default_rng(seed)
    grid = make_channel_grid(16, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    w = grid.quad_weights
    f = rng.standard_normal((8, *grid.shape)) * rng.uniform(0.1, 10.0, (8, 1, 1))
    for n in (2, 4):
        got = np.float64(analysis._dot(w, f[:n], f[4:4 + n]))
        assert got.tobytes() == np.float64(_dot_reference(w, f[:n], f[4:4 + n])).tobytes()
    for got, want in zip(analysis._advect(f[:2], f[4:]), _advect_reference(f[:2], f[4:])):
        assert got.tobytes() == want.tobytes()
    ns, euler = _random_pair(grid, rng, 4)
    want = []
    for a, b in zip(ns.states, euler.states):
        d = (a.velocity.comp1 - b.velocity.comp1, a.velocity.comp2 - b.velocity.comp2)
        want.append(_dot_reference(w, d, d))
    assert error_series(ns, euler).values.tobytes() == np.array(want).tobytes()


def _trace_pair(grid, n):
    """NS/Euler trajectories at t = 0, 0.5, 1.0, ...: the Euler run has the
    growing wall trace (1 + t/2)(cos x1 + sin 3x1 / 2) under e^{-x2}."""
    trace = np.cos(grid.x) + 0.5 * np.sin(3.0 * grid.x)
    trajs = []
    for scheme, nu, profile in (("ns", 1e-3, 1.0 - np.exp(-grid.y)),
                                ("euler", 0.0, np.exp(-grid.y))):
        states = []
        for i in range(n):
            t = 0.5 * i
            vel = VectorField(grid, (1.0 + 0.5 * t) * trace[:, None] * profile[None, :],
                              np.zeros(grid.shape))
            states.append(FlowState(grid=grid, t=t, nu=nu, velocity=vel,
                                    vorticity=curl2d(vel)))
        trajs.append(Trajectory(grid=grid, scheme=scheme, nu=nu, dt=0.5,
                                states=tuple(states)))
    return trajs


@pytest.fixture(scope="module")
def tanh_grid():
    return make_channel_grid(32, 65, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)


@pytest.mark.parametrize("i", [1, 2, 3], ids=["t<1", "t=1", "t>1"])
def test_trace_provider_gradient_matches_the_2d_gradient(tanh_grid, i):
    _, euler = _trace_pair(tanh_grid, 4)
    provider = trace_corrector_provider(euler, alpha=0.5)
    phi, _, grad_phi = _provide(provider, i, euler.times[i], tanh_grid)
    want = (*gradient(tanh_grid, phi[0]), *gradient(tanh_grid, phi[1]))
    for got, ref in zip(grad_phi, want):
        assert np.abs(ref).max() > 0.0
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _flat_reference(params, grid, du_dt):
    """The flat corrector, its rate and its gradient as allocating outer
    products of the formulas, in the provider's row order: the reference
    for the bits of the in-place helpers."""
    moll, y, tr = Mollifier(), grid.y, params.trace
    alpha, tau = params.alpha, params.tau
    tau_dot = 0.0 if params.t > 1.0 else 1.0
    at = alpha * tau
    e = np.exp(-y / at)
    f1 = e - at * moll.value(y)
    f2 = (1.0 - moll.antiderivative(y)) - e
    de_dt = e * y * tau_dot / (alpha * tau * tau)
    df1_dt = de_dt - alpha * tau_dot * moll.value(y)
    d_du_dt_dx, d2u = x_derivative(grid, du_dt), x_derivative(grid, tr.du_dx)
    u, du = tr.u[:, None], tr.du_dx[:, None]
    return (
        -u * f1[None, :],
        at * du * f2[None, :],
        -du_dt[:, None] * f1[None, :] - u * df1_dt[None, :],
        alpha * tau_dot * du * f2[None, :] + at * d_du_dt_dx[:, None] * f2[None, :]
        + at * du * -de_dt[None, :],
        -du * f1[None, :],
        -u * y_derivative(grid, f1)[None, :],
        at * d2u[:, None] * f2[None, :],
        at * du * y_derivative(grid, f2)[None, :],
    )


def _trace_reference(euler, alpha):
    """`trace_corrector_provider` as a function of the output index that
    returns `_flat_reference`'s eight arrays (zeros at t = 0)."""
    grid = euler.grid
    traces = np.stack([s.velocity.comp1[:, 0] for s in euler.states])
    rates = analysis._series_rate(euler.times, traces.T).T

    def corrector(i):
        t = float(euler.times[i])
        if t == 0.0:
            return (np.zeros(grid.shape),) * 8
        trace = WallTrace(u=traces[i], du_dx=x_derivative(grid, traces[i]))
        return _flat_reference(CorrectorParams(alpha=alpha, t=t, trace=trace), grid,
                               rates[i])

    return corrector


def _budget_reference(ns, euler, corrector):
    """`energy_budget` as the allocating expressions of its integrands, given
    the corrector's eight arrays per output index."""
    grid, w, nu = ns.grid, ns.grid.quad_weights, ns.nu
    rows = []
    for i, (a, b) in enumerate(zip(ns.states, euler.states)):
        phi1, phi2, dt1, dt2, *g_phi = corrector(i)
        u, ubar = (a.velocity.comp1, a.velocity.comp2), (b.velocity.comp1, b.velocity.comp2)
        g_u = (*gradient(grid, u[0]), *gradient(grid, u[1]))
        g_bar = (*gradient(grid, ubar[0]), *gradient(grid, ubar[1]))
        e = (u[0] - ubar[0] - phi1, u[1] - ubar[1] - phi2)
        adv_phi, gb_e = _advect_reference(u, g_phi), _advect_reference(e, g_bar)

        def dot(x, y):
            return _dot_reference(w, x, y)

        r = (nu * dot(g_u, g_bar) - dot(gb_e, e) - dot(gb_e, (phi1, phi2))
             + dot(adv_phi, ubar) - dot((dt1, dt2), e))
        rows.append((0.5 * dot(e, e), nu * dot(g_u, g_u), nu * dot(g_u, g_phi),
                     -dot(adv_phi, u), r))
    gap, diss, i1, i2, r = np.array(rows).T
    lhs = analysis._series_rate(ns.times, gap)
    return gap, lhs, diss, i1, i2, r, lhs + diss - (i1 + i2 + r)


@pytest.mark.parametrize("corrector", ["trace", "zero"])
@pytest.mark.parametrize("data", ["trace", "random"])
def test_budget_workspace_keeps_the_bits_of_the_allocating_rows(tanh_grid, corrector, data):
    if data == "trace":   # outputs at t = 0, 0.5, 1, 1.5: both sides of tau's kink
        ns, euler = _trace_pair(tanh_grid, 4)
    else:
        ns, euler = _random_pair(tanh_grid, np.random.default_rng(7), 4)
    if corrector == "trace":
        got = energy_budget(ns, euler, trace_corrector_provider(euler, alpha=0.5))
        want = _budget_reference(ns, euler, _trace_reference(euler, alpha=0.5))
    else:
        got = energy_budget(ns, euler)
        want = _budget_reference(ns, euler, lambda i: (np.zeros(tanh_grid.shape),) * 8)
    names = ("gap_energy", "lhs_rate", "dissipation", "i1", "i2", "r", "residual")
    for name, ref in zip(names, want):
        assert getattr(got, name).tobytes() == ref.tobytes(), name
    if (corrector, data) == ("trace", "trace"):  # the random runs have no wall trace
        assert np.abs(got.i1).max() > 0.0


@pytest.mark.parametrize("i", [1, 2, 3], ids=["t<1", "t=1", "t>1"])
def test_flat_corrector_helpers_keep_the_bits_of_the_outer_products(tanh_grid, i):
    _, euler = _trace_pair(tanh_grid, 4)
    corrector = _trace_reference(euler, alpha=0.5)(i)
    provider = trace_corrector_provider(euler, alpha=0.5)
    rows = np.concatenate(_provide(provider, i, euler.times[i], tanh_grid))
    for got, want in zip(rows, corrector):
        assert got.tobytes() == want.tobytes()
    # the public functions build the same products into fresh arrays
    u = euler.states[i].velocity.comp1[:, 0]
    params = CorrectorParams(alpha=0.5, t=float(euler.times[i]),
                             trace=WallTrace(u=u, du_dx=x_derivative(tanh_grid, u)))
    rate = analysis._series_rate(euler.times, np.stack(
        [s.velocity.comp1[:, 0] for s in euler.states]).T).T[i]
    phi = flat_corrector(params, tanh_grid)
    dphi = corrector_time_derivative(params, tanh_grid, rate)
    for got, want in zip((phi.comp1, phi.comp2, dphi.comp1, dphi.comp2), corrector):
        assert got.tobytes() == want.tobytes()
    # and into a given `out`, whose rows the returned fields view
    out = np.full((4, *tanh_grid.shape), np.nan)
    phi = flat_corrector(params, tanh_grid, out=out[0:2])
    dphi = corrector_time_derivative(params, tanh_grid, rate, out=out[2:4])
    for k, (got, want) in enumerate(zip((phi.comp1, phi.comp2, dphi.comp1, dphi.comp2),
                                        corrector)):
        assert np.shares_memory(got, out[k])
        assert out[k].tobytes() == want.tobytes()


def test_flat_corrector_out_is_checked_and_zeroed_at_t0(tanh_grid):
    u = np.cos(tanh_grid.x)
    trace = WallTrace(u=u, du_dx=x_derivative(tanh_grid, u))
    for t in (0.0, 0.5):
        params = CorrectorParams(alpha=0.5, t=t, trace=trace)
        with pytest.raises(ValueError, match="out must have shape"):
            flat_corrector(params, tanh_grid, out=np.empty(tanh_grid.shape))
    with pytest.raises(ValueError, match="out must have shape"):
        corrector_time_derivative(params, tanh_grid, u, out=np.empty((3, *tanh_grid.shape)))
    out = np.full((2, *tanh_grid.shape), np.nan)
    phi = flat_corrector(CorrectorParams(alpha=0.5, t=0.0, trace=trace), tanh_grid, out=out)
    assert not out.any() and not phi.comp1.any() and not phi.comp2.any()


def test_trace_budget_goes_through_the_public_derivatives(monkeypatch, tanh_grid):
    # grad u and grad ubar come from `gradient`, the corrector and its rate
    # from `flat_corrector` and `corrector_time_derivative`: the names a
    # profiler or tracer attributes the budget's time to
    ns, euler = _trace_pair(tanh_grid, 4)
    calls = Counter()
    for name in ("gradient", "flat_corrector", "corrector_time_derivative"):
        def counted(*args, _name=name, _func=getattr(analysis, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    energy_budget(ns, euler, trace_corrector_provider(euler, alpha=0.5))
    # 4 rows, each 2 fields x 2 components; the row at t = 0 has no corrector
    assert calls == {"gradient": 16, "flat_corrector": 3, "corrector_time_derivative": 3}


def _budget_transforms(monkeypatch, grid, n_outputs):
    """2-D rfft, irfft and _apply_d1 calls of one trace-corrector budget."""
    ns, euler = _trace_pair(grid, n_outputs)
    provider = trace_corrector_provider(euler, alpha=0.5)
    calls = Counter()

    def counting(name, func, arg):
        def wrapper(*args, **kwargs):
            calls[name] += np.ndim(args[arg]) == 2
            return func(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for name in ("rfft", "irfft"):
            mp.setattr(np.fft, name, counting(name, getattr(np.fft, name), 0))
        d1 = counting("_apply_d1", grid_module._apply_d1, 1)
        for module in (grid_module, analysis):
            mp.setattr(module, "_apply_d1", d1)
        energy_budget(ns, euler, provider)
    return calls


def test_budget_transforms_per_row(monkeypatch, tanh_grid):
    five = _budget_transforms(monkeypatch, tanh_grid, 5)
    nine = _budget_transforms(monkeypatch, tanh_grid, 9)
    # a row differentiates u and ubar only, each component by one rfft and
    # one irfft in x1 and one stencil pass in x2; the corrector's gradient
    # comes from 1-D factors
    per_row = {k: (nine[k] - five[k]) / 4 for k in nine}
    assert per_row == {"rfft": 4, "irfft": 4, "_apply_d1": 4}
    # and nothing else in the budget is a 2-D transform
    assert five == Counter({"rfft": 5 * 4, "irfft": 5 * 4, "_apply_d1": 5 * 4})


# ---------------------------------------------------------------------------
# envelope and fits


def test_gronwall_envelope_exponential_oracle():
    times = np.linspace(0.0, 1.0, 11)
    out = gronwall_envelope(times, 1.0, 1.0)
    assert np.abs(out - np.expm1(2.0 * times)).max() <= 1e-14


def test_gronwall_envelope_forcing_variants():
    times = np.linspace(0.0, 1.0, 6)
    # with c = 0 and f(t) = t the envelope is exactly t^2
    assert np.array_equal(gronwall_envelope(times, 0.0, times), times**2)


@pytest.mark.parametrize("rate_c", [0.0, 1e-9, 0.03, -0.03, 7.0, -7.0])
def test_gronwall_envelope_matches_duhamel_quadrature(rate_c):
    # y(t) = 2 int_0^t e^{2c(t - s)} f(s) ds, summed over the forcing's
    # linear pieces by adaptive quadrature; steps with |2 c h| < 1 take
    # phi2's series, and at |c| = 7 some steps take its closed form
    from scipy.integrate import quad

    rng = np.random.default_rng(17)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.2, 15))))
    forcing = rng.uniform(0.1, 2.0, times.size)
    out = gronwall_envelope(times, rate_c, forcing)
    assert out[0] == 0.0
    for n in range(1, times.size):
        pieces = [quad(lambda s: math.exp(2.0 * rate_c * (times[n] - s))
                       * np.interp(s, times, forcing), a, b, epsabs=0.0, epsrel=2e-14)[0]
                  for a, b in zip(times[:n], times[1:n + 1])]
        assert out[n] == pytest.approx(2.0 * math.fsum(pieces), rel=1e-10)


def test_gronwall_envelope_validation():
    with pytest.raises(ValueError, match="start at 0"):
        gronwall_envelope(np.array([0.5, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="increase"):
        gronwall_envelope(np.array([0.0, 1.0, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="align"):
        gronwall_envelope(np.array([0.0, 1.0]), 1.0, np.zeros(3))
    assert np.array_equal(gronwall_envelope(np.array([0.0]), 1.0, 1.0), np.zeros(1))


@pytest.mark.parametrize("rate_c", [np.nan, np.inf, -np.inf])
def test_gronwall_envelope_rejects_a_rate_that_is_not_finite(rate_c):
    with pytest.raises(ValueError, match="^rate_c must be finite, got"):
        gronwall_envelope(np.linspace(0.0, 1.0, 5), rate_c, 1.0)


@pytest.mark.parametrize("forcing", [np.nan, np.inf, [0.0, 1.0, np.nan, 1.0, 0.0]],
                         ids=["nan", "inf", "nan-sample"])
def test_gronwall_envelope_rejects_forcing_that_is_not_finite(forcing):
    with pytest.raises(ValueError, match="^forcing must be finite$"):
        gronwall_envelope(np.linspace(0.0, 1.0, 5), 1.0, forcing)


def test_fit_rate_recovers_exact_power():
    nus = np.geomspace(1e-4, 1e-1, 7)
    errors = 2.0 * nus**1.5
    fit = fit_rate(nus, errors)
    assert fit.exponent == pytest.approx(1.5, abs=1e-12)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-10)
    assert fit.residual <= 1e-12
    assert fit.n_samples == 7


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate(np.array([1e-3, 1e-2]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1e-3, 1e-2, 1e-1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1e-3, -1e-2, 1e-1]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1e-3, 1e-2, 1e-1]), np.array([1.0, 0.0, 3.0]))


@pytest.mark.parametrize("nus, errors", [
    ([1e-3, 1e-2, 1e-1], [1.0, 2.0, np.inf]),
    ([1e-3, 1e-2, np.inf], [1.0, 2.0, 3.0]),
], ids=["error=inf", "nu=inf"])
def test_fit_rate_rejects_an_infinite_sample(nus, errors):
    # not a NaN exponent, and no numpy warning ahead of the error
    with pytest.raises(ValueError, match="^rate fit needs positive, finite nus and errors$"):
        fit_rate(nus, errors)
