"""Error series, bound curves, energy budget, envelope, and rate fits."""

import dataclasses
import math

import numpy as np
import pytest

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
from ilim.criteria import MSchedule
from ilim.grid import ScalarField, VectorField, curl2d, make_channel_grid
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
    curves = theorem_bounds(series, sched, c_fit=3.0)
    assert np.allclose(curves.linear, 3.0 * 1e-3 * series.times, rtol=1e-14)
    assert np.allclose(
        curves.layered, 3.0 * (1e-3 * series.times + 0.2 * series.times), rtol=1e-14
    )
    with pytest.raises(ValueError):
        theorem_bounds(series, sched, c_fit=0.0)


def test_theorem_bounds_with_vanishing_modulus():
    # an (effectively) zero modulus collapses the layered bound onto the
    # linear one; the schedule amplitude must stay positive, so use the
    # smallest normal float
    series = ErrorSeries(nu=1e-3, times=np.array([0.0, 1.0]),
                         values=np.array([0.0, 1.0]))
    sched = MSchedule(form="constant", c=1e-300)
    curves = theorem_bounds(series, sched, c_fit=1.0)
    assert np.abs(curves.layered - curves.linear).max() <= 1e-290


def test_calibrate_bound_constant():
    sched = MSchedule(form="constant", c=0.5)
    s1 = ErrorSeries(nu=1e-2, times=np.array([0.0, 1.0]), values=np.array([0.0, 0.3]))
    s2 = ErrorSeries(nu=1e-3, times=np.array([0.0, 2.0]), values=np.array([0.0, 0.8]))
    # ratios: 0.3 / (1e-2 + 0.5) and 0.8 / (2e-3 + 1.0)
    expect = max(0.3 / 0.51, 0.8 / 1.002)
    assert calibrate_bound_constant([s1, s2], sched) == pytest.approx(expect, rel=1e-14)


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


def test_trace_provider_zero_trace_gives_zero_corrector(shear_pair):
    provider = trace_corrector_provider(shear_pair.euler, alpha=0.5)
    phi, dphi = provider(3, shear_pair.euler.times[3], shear_pair.euler.states[3])
    assert np.abs(phi.comp1).max() == 0.0 and np.abs(phi.comp2).max() == 0.0
    assert np.abs(dphi.comp1).max() == 0.0


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

    phi0, dphi0 = provider(0, 0.0, states[0])
    assert np.abs(phi0.comp1).max() == 0.0 and np.abs(dphi0.comp1).max() == 0.0

    phi, dphi = provider(1, 0.1, states[1])
    # the corrector cancels the sampled trace at the wall
    assert np.allclose(phi.comp1[:, 0], -1.05 * np.cos(grid.x), atol=1e-13)
    # the sampled amplitude is linear in t, so the second-order rate is
    # exact: at the wall d(phi_1)/dt = -dU/dt
    assert np.allclose(dphi.comp1[:, 0], -0.5 * np.cos(grid.x), atol=1e-10)


# ---------------------------------------------------------------------------
# envelope and fits


def test_gronwall_envelope_exponential_oracle():
    times = np.linspace(0.0, 1.0, 11)
    out = gronwall_envelope(times, 1.0, 1.0)
    assert np.abs(out - (np.exp(2.0 * times) - 1.0)).max() <= 1e-8


def test_gronwall_envelope_forcing_variants():
    times = np.linspace(0.0, 1.0, 6)
    expect = times**2
    # with c = 0 and f(t) = t the envelope is exactly t^2
    np.testing.assert_allclose(gronwall_envelope(times, 0.0, lambda t: t), expect,
                               atol=1e-10)
    np.testing.assert_allclose(gronwall_envelope(times, 0.0, times), expect,
                               atol=1e-10)


def test_gronwall_envelope_validation():
    with pytest.raises(ValueError, match="start at 0"):
        gronwall_envelope(np.array([0.5, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="increase"):
        gronwall_envelope(np.array([0.0, 1.0, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="align"):
        gronwall_envelope(np.array([0.0, 1.0]), 1.0, np.zeros(3))
    assert np.array_equal(gronwall_envelope(np.array([0.0]), 1.0, 1.0), np.zeros(1))


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
