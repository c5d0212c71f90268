"""Channel schemes, exact shear series, and paired runs."""

import math
import pickle
from collections import Counter
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

import ilim.harness as harness
import ilim.solvers as solvers
from ilim.grid import ScalarField, VectorField, curl2d, make_channel_grid
from ilim.initial_data import PRESETS, build_initial_data, shear_profile_exp
from ilim.solvers import (
    CFLError,
    _ChannelOperators,
    _factor_tridiagonal,
    _heat_flow,
    _outputs,
    _sine_coefficients,
    EulerIntegrator,
    FlowState,
    NavierStokesIntegrator,
    ShearFlow,
    SimulationConfig,
    Trajectory,
    kinetic_energy,
    run_simulation,
)


@pytest.fixture(scope="module")
def channel():
    return make_channel_grid(8, 97, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)


def _shear_state(grid, nu):
    u0 = build_initial_data("shear", grid, amplitude=1.0)
    return FlowState(grid=grid, t=0.0, nu=nu, velocity=u0, vorticity=curl2d(u0))


# ---------------------------------------------------------------------------
# state and trajectory validation


def test_flow_state_enforces_wall_conditions(channel):
    g = channel
    ok = np.zeros(g.shape)
    bad_u2 = ok.copy()
    bad_u2[:, 0] = 1e-16
    with pytest.raises(ValueError, match="wall-normal"):
        FlowState(
            grid=g, t=0.0, nu=1e-3,
            velocity=VectorField(g, ok, bad_u2),
            vorticity=ScalarField(g, ok),
        )
    bad_u1 = ok.copy()
    bad_u1[:, 0] = 1e-16
    with pytest.raises(ValueError, match="no-slip"):
        FlowState(
            grid=g, t=0.0, nu=1e-3,
            velocity=VectorField(g, bad_u1, ok),
            vorticity=ScalarField(g, ok),
        )
    # inviscid states may slip at the wall
    FlowState(
        grid=g, t=0.0, nu=0.0,
        velocity=VectorField(g, bad_u1, ok),
        vorticity=ScalarField(g, ok),
    )


def test_flow_state_requires_shared_grid(channel):
    other = make_channel_grid(8, 97, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    z = np.zeros(channel.shape)
    with pytest.raises(ValueError, match="state grid"):
        FlowState(
            grid=channel, t=0.0, nu=1e-3,
            velocity=VectorField(other, z, z),
            vorticity=ScalarField(other, z),
        )


def test_trajectory_validation(channel):
    s0 = _shear_state(channel, 1e-3)
    s1 = FlowState(grid=channel, t=0.5, nu=1e-3,
                   velocity=s0.velocity, vorticity=s0.vorticity)
    with pytest.raises(ValueError, match="at least one"):
        Trajectory(grid=channel, scheme="ns", nu=1e-3, dt=0.1, states=())
    with pytest.raises(ValueError, match="increase"):
        Trajectory(grid=channel, scheme="ns", nu=1e-3, dt=0.1, states=(s1, s0))
    traj = Trajectory(grid=channel, scheme="ns", nu=1e-3, dt=0.1, states=(s0, s1))
    assert np.array_equal(traj.times, np.array([0.0, 0.5]))


@pytest.mark.parametrize("times", [(0.0, np.nan, 0.2), (np.nan,), (0.0, np.inf)])
def test_trajectory_rejects_a_time_that_is_not_finite(channel, times):
    s0 = _shear_state(channel, 1e-3)
    states = tuple(FlowState(grid=channel, t=t, nu=1e-3, velocity=s0.velocity,
                             vorticity=s0.vorticity) for t in times)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(grid=channel, scheme="ns", nu=1e-3, dt=0.1, states=states)


def test_trajectory_rejects_a_state_of_another_nu(channel):
    # the criteria size the layer with the states' nu, the reports with the
    # trajectory's: the two must be one
    with pytest.raises(ValueError, match="nu 0.5 is not the trajectory's 0.001"):
        Trajectory(grid=channel, scheme="ns", nu=1e-3, dt=0.1,
                   states=(_shear_state(channel, 0.5),))


def test_states_grids_and_fields_compare_by_identity(channel):
    state = _shear_state(channel, 1e-3)
    for obj in (state, channel, state.velocity, state.vorticity):
        copy = pickle.loads(pickle.dumps(obj))
        assert (obj == copy) is False and (obj != copy) is True
        assert obj == obj
        assert len({obj, obj, copy}) == 2


def test_kinetic_energy_matches_direct_sum(channel):
    rng = np.random.default_rng(2)
    u1 = rng.normal(size=channel.shape)
    u2 = np.zeros(channel.shape)
    vel = VectorField(channel, u1, u2)
    expect = 0.5 * float(np.sum(channel.quad_weights * u1**2))
    assert kinetic_energy(vel) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# integrator contracts


def test_integrator_constructor_validation(channel):
    with pytest.raises(ValueError):
        NavierStokesIntegrator(channel, 0.0, 1e-3)
    with pytest.raises(ValueError):
        NavierStokesIntegrator(channel, 1e-3, 0.0)
    with pytest.raises(ValueError):
        EulerIntegrator(channel, -1e-3)
    # a non-finite nu or dt is refused before any operator is built
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^nu must be positive and finite$"):
            NavierStokesIntegrator(channel, bad, 1e-3)
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            NavierStokesIntegrator(channel, 1e-3, bad)
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            EulerIntegrator(channel, bad)


def test_run_validates_step_partition(channel):
    u0 = build_initial_data("shear", channel, amplitude=1.0)
    integ = NavierStokesIntegrator(channel, 1e-3, 1e-2)
    with pytest.raises(ValueError, match="integer number"):
        integ.run(u0, 0.105, 1)
    with pytest.raises(ValueError, match="divide"):
        integ.run(u0, 0.1, 3)


def test_output_times_and_labels(channel):
    u0 = build_initial_data("shear", channel, amplitude=1.0)
    traj = NavierStokesIntegrator(channel, 1e-3, 1e-2).run(u0, 0.1, 5)
    assert traj.scheme == "ns" and traj.nu == 1e-3
    assert len(traj.states) == 6
    assert np.allclose(traj.times, np.linspace(0.0, 0.1, 6), atol=1e-12)
    te = EulerIntegrator(channel, 1e-2).run(u0, 0.1, 2)
    assert te.scheme == "euler" and te.nu == 0.0 and len(te.states) == 3


def test_cfl_guard_trips(channel):
    u0 = build_initial_data("shear", channel, amplitude=1.0)
    with pytest.raises(CFLError):
        NavierStokesIntegrator(channel, 1e-3, 0.5).run(u0, 2.0, 1)


# ---------------------------------------------------------------------------
# stacked banded solves against the per-mode reference


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _poisson_band(ops, m):
    ab = np.zeros((3, ops.grid.ny))
    d2lo, d2di, d2up = ops.d2
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    ab[2, 0:-2] = d2lo
    ab[1, 1:-1] = d2di - ops.k[m] ** 2
    ab[0, 2:] = d2up
    return ab


def _cn_band(ops, nu, dt, m):
    """Mode m's Crank-Nicolson band with the mean mode's Neumann wall row in
    place: a (1, 2) band, an oracle of the operator independent of the
    eliminated (1, 1) band the stack factors."""
    ab = np.zeros((4, ops.grid.ny))
    c = 0.5 * nu * dt
    d2lo, d2di, d2up = ops.d2
    ab[3, 0:-2] = -c * d2lo
    ab[2, 1:-1] = 1.0 - c * d2di + c * ops.k[m] ** 2
    ab[1, 2:] = -c * d2up
    ab[2, -1] = 1.0
    if m == 0:
        ab[2, 0], ab[1, 1], ab[0, 2] = ops.d1_bottom
    else:
        ab[2, 0] = 1.0
    return ab


def _cn_tridiagonal(ops, nu, dt, m):
    """Mode m's Crank-Nicolson band as a (1, 1) band: Dirichlet rows at the
    wall and top, and for the mean mode the Neumann wall row eliminated from
    the row below (its wall value is recovered after the solve)."""
    ab = np.zeros((3, ops.grid.ny))
    c = -0.5 * nu * dt
    d2lo, d2di, d2up = ops.d2
    ab[2, 0:-2] = c * d2lo
    ab[1, 1:-1] = 1.0 + c * (d2di - ops.k[m] ** 2)
    ab[0, 2:] = c * d2up
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    if m == 0:
        b0, b1, b2 = ops.d1_bottom
        lead = ab[2, 0] / b0
        ab[1, 1] -= lead * b1
        ab[0, 2] -= lead * b2
        ab[2, 0] = 0.0
    return ab


def _dirichlet(rhs):
    rhs = rhs.copy()
    rhs[0] = 0.0
    rhs[-1] = 0.0
    return rhs


def _wall_slope(ops, p):
    b = ops.d1_bottom
    return b[0] * p[0] + b[1] * p[1] + b[2] * p[2]


def _reference_poisson(ops, omega_hat):
    psi = np.zeros_like(omega_hat)
    for m in range(1, ops.nk):
        psi[m] = solve_banded((1, 1), _poisson_band(ops, m), _dirichlet(-omega_hat[m]))
    return psi


def _reference_influence(ops, nu, dt, cn_solve):
    omega_h = np.zeros((ops.nk, ops.grid.ny))
    psi_h = np.zeros((ops.nk, ops.grid.ny))
    slope_h = np.zeros(ops.nk)
    e0 = np.zeros(ops.grid.ny)
    e0[0] = 1.0
    for m in range(1, ops.nk):
        omega_h[m] = cn_solve(ops, nu, dt, m, e0)
        psi_h[m] = solve_banded((1, 1), _poisson_band(ops, m), _dirichlet(-omega_h[m]))
        slope_h[m] = _wall_slope(ops, psi_h[m])
    return omega_h, psi_h, slope_h


def _tridiagonal_solve(ops, nu, dt, m, rhs):
    x = solve_banded((1, 1), _cn_tridiagonal(ops, nu, dt, m), rhs)
    if m == 0:
        x[0] = -_wall_slope(ops, x) / ops.d1_bottom[0]
    return x


def _neumann_band_solve(ops, nu, dt, m, rhs):
    return solve_banded((1, 2), _cn_band(ops, nu, dt, m), rhs)


def _reference_advance(ops, nu, dt, omega_hat, adv_hat, cn_solve=_tridiagonal_solve):
    omega_h, psi_h, slope_h = _reference_influence(ops, nu, dt, cn_solve)
    c = 0.5 * nu * dt
    rhs = (
        omega_hat
        - dt * adv_hat
        + c * (ops.apply_d2_interior(omega_hat) - (ops.k**2)[:, None] * omega_hat)
    )
    out = np.empty_like(omega_hat)
    psi = np.zeros_like(omega_hat)
    out[0] = cn_solve(ops, nu, dt, 0, _dirichlet(rhs[0]))
    for m in range(1, ops.nk):
        wp = cn_solve(ops, nu, dt, m, _dirichlet(rhs[m]))
        pp = solve_banded((1, 1), _poisson_band(ops, m), _dirichlet(-wp))
        coef = -_wall_slope(ops, pp) / slope_h[m]
        out[m] = wp + coef * omega_h[m]
        psi[m] = pp + coef * psi_h[m]
    return out, psi


@pytest.mark.parametrize("nx, ny", [(16, 33), (64, 129)])
@pytest.mark.parametrize("nu, dt", [(1e-3, 2e-3), (1.0, 0.1)])
def test_stacked_solves_match_per_mode_reference(nx, ny, nu, dt):
    g = make_channel_grid(nx, ny, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    integ = NavierStokesIntegrator(g, nu, dt)
    ops = integ.ops
    rng = np.random.default_rng(nx)

    def random_hat():
        return rng.normal(size=(ops.nk, ny)) + 1j * rng.normal(size=(ops.nk, ny))

    omega_hat = random_hat()
    assert _same_bits(ops.solve_poisson(omega_hat), _reference_poisson(ops, omega_hat))
    for diff in (integ.full, integ.half):
        omega_h, psi_h, slope_h = _reference_influence(ops, nu, diff.dt, _tridiagonal_solve)
        assert _same_bits(diff.omega_h, omega_h[1:])
        assert _same_bits(diff.psi_h, psi_h[1:])
        assert _same_bits(diff.slope_h, slope_h[1:])
        adv_hat = random_hat()
        got = diff.advance(omega_hat, adv_hat)
        want = _reference_advance(ops, nu, diff.dt, omega_hat, adv_hat)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        # the (1, 2) band with the Neumann row in place solves the same
        # operator; eliminating that row moves the step at round-off only
        oracle = _reference_advance(ops, nu, diff.dt, omega_hat, adv_hat,
                                    _neumann_band_solve)
        for a, b in zip(got, oracle):
            assert np.abs(a - b).max() <= 2e-12 * np.abs(b).max()


@pytest.mark.parametrize("nu, dt", [(1e-3, 2e-3), (1.0, 0.1)])
def test_mean_mode_wall_slope_vanishes_after_a_step(nu, dt):
    g = make_channel_grid(16, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    integ = NavierStokesIntegrator(g, nu, dt)
    ops = integ.ops
    rng = np.random.default_rng(5)
    omega_hat, adv_hat = (rng.normal(size=(2, ops.nk, 33))
                          + 1j * rng.normal(size=(2, ops.nk, 33)))
    for diff in (integ.full, integ.half):
        mean = diff.advance(omega_hat, adv_hat)[0][0]
        scale = np.abs(ops.d1_bottom).max() * np.abs(mean[:3]).max()
        assert abs(_wall_slope(ops, mean)) <= 1e-14 * scale


def test_stacked_solves_keep_input_checks():
    # a factorization checks its band; a right-hand side is the stepping
    # loop's own array, which `_check_finite` checks after each step.  The
    # constructor refuses a non-finite nu, so the band is checked directly
    with pytest.raises(ValueError, match="infs or NaNs"):
        _factor_tridiagonal(np.full((3, 2, 3), np.inf))
    with pytest.raises(LinAlgError, match="singular"):
        _factor_tridiagonal(np.zeros((3, 2, 3)))


# the banded routines stay listed, so a call to any of them fails the count
LAPACK_NAMES = ("dgttrf", "zgttrf", "zgttrs", "dgbtrf", "dgbtrs", "zgbtrf", "zgbtrs")


def _lapack_calls_per_run(monkeypatch, nx):
    """LAPACK calls made by one run of each scheme, by routine."""
    g = make_channel_grid(nx, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    u0 = build_initial_data("perturbed-shear", g, amplitude=1.0)
    calls = Counter()

    def counting(scheme, name, routine):
        def wrapper(*args, **kwargs):
            calls[scheme, name] += 1
            return routine(*args, **kwargs)
        wrapper.__name__ = name
        return wrapper

    # the solvers look each routine up on the module _lapack returns
    lapack = solvers._lapack()
    for scheme, integ in (("ns", NavierStokesIntegrator(g, 1e-3, 1e-2)),
                          ("euler", EulerIntegrator(g, 1e-2))):
        with monkeypatch.context() as mp:
            for name in LAPACK_NAMES:
                mp.setattr(lapack, name, counting(scheme, name, getattr(lapack, name)))
            integ.run(u0, 0.05, 1)
    return calls


def test_lapack_calls_do_not_grow_with_modes(monkeypatch):
    coarse = _lapack_calls_per_run(monkeypatch, 16)
    assert coarse == _lapack_calls_per_run(monkeypatch, 64)
    # the initial projection, then 5 steps, the first a two-stage bootstrap
    # (NS: one Crank-Nicolson and one streamfunction solve per stage)
    assert coarse == Counter({("ns", "zgttrs"): 13, ("euler", "zgttrs"): 7})


def _ffts_per_run(monkeypatch, n_steps):
    """numpy rfft/irfft calls made by one run of each scheme, by name."""
    g = make_channel_grid(16, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    u0 = build_initial_data("perturbed-shear", g, amplitude=1.0)
    calls = Counter()

    def counting(scheme, name, fft):
        def wrapper(*args, **kwargs):
            calls[scheme, name] += 1
            return fft(*args, **kwargs)
        return wrapper

    for scheme, integ in (("ns", NavierStokesIntegrator(g, 1e-3, 1e-2)),
                          ("euler", EulerIntegrator(g, 1e-2))):
        with monkeypatch.context() as mp:
            for name in ("rfft", "irfft"):
                mp.setattr(np.fft, name, counting(scheme, name, getattr(np.fft, name)))
            integ.run(u0, 1e-2 * n_steps, 1)
    return calls


def test_fft_calls_per_step(monkeypatch):
    five = _ffts_per_run(monkeypatch, 5)
    nine = _ffts_per_run(monkeypatch, 9)
    # a steady step on the spectral state makes 5 FFTs in both schemes:
    # the transport term's rfft and the two irffts of its derivatives, and
    # the two irffts of the velocity
    per_step = {k: (nine[k] - five[k]) / 4 for k in five}
    assert per_step == {("ns", "rfft"): 1, ("ns", "irfft"): 4,
                        ("euler", "rfft"): 1, ("euler", "irfft"): 4}
    # curl of the initial data, its transform and projection, the two-stage
    # bootstrap, 4 steady steps, then omega of the one output state
    assert five == Counter({("ns", "rfft"): 1 + 1 + 2 + 4 * 1,
                            ("ns", "irfft"): 1 + 2 + 8 + 4 * 4 + 1,
                            ("euler", "rfft"): 1 + 1 + 2 + 4 * 1,
                            ("euler", "irfft"): 1 + 2 + 8 + 4 * 4 + 1})


# both schemes stop at the step that lost finiteness, with one error
@pytest.mark.parametrize("scheme, error, match", [
    ("euler", RuntimeError, r"solution lost finiteness near t = 0\.03"),
    ("ns", RuntimeError, r"solution lost finiteness near t = 0\.03"),
])
def test_non_finite_transport_stops_the_run(monkeypatch, channel, scheme, error,
                                            match):
    integ = (NavierStokesIntegrator(channel, 1e-3, 1e-2) if scheme == "ns"
             else EulerIntegrator(channel, 1e-2))
    u0 = build_initial_data("perturbed-shear", channel, amplitude=1.0)
    advection = solvers._ChannelOperators.advection
    calls = []

    def poisoned(self, u1, u2, omega_hat):
        # the bootstrap step evaluates the transport term twice, so the
        # fourth evaluation is the one of step 3
        calls.append(None)
        n_hat = advection(self, u1, u2, omega_hat)
        return np.full_like(n_hat, np.nan) if len(calls) == 4 else n_hat

    monkeypatch.setattr(solvers._ChannelOperators, "advection", poisoned)
    with pytest.raises(error, match=match):
        integ.run(u0, 0.1, 1)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# physics checks


def test_viscous_shear_matches_exact_series(channel):
    u0 = build_initial_data("shear", channel, amplitude=1.0)
    traj = NavierStokesIntegrator(channel, 1e-3, 5e-3).run(u0, 0.25, 5)
    exact = _heat_flow(_exp_pieces(channel.y[-1]), channel.y, 1e-3, [0.25])[0][:, 0]
    last = traj.states[-1]
    assert np.abs(last.velocity.comp1 - exact[None, :]).max() <= 2e-3
    assert np.abs(last.velocity.comp2).max() <= 1e-12


def test_inviscid_shear_is_a_steady_state(channel):
    u0 = build_initial_data("shear", channel, amplitude=1.0)
    traj = EulerIntegrator(channel, 5e-3).run(u0, 0.1, 2)
    first, last = traj.states[0], traj.states[-1]
    assert np.array_equal(first.velocity.comp1, last.velocity.comp1)
    assert np.array_equal(first.velocity.comp2, last.velocity.comp2)
    assert np.array_equal(first.vorticity.values, last.vorticity.values)


def test_viscous_energy_decays_every_step():
    g = make_channel_grid(32, 49, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    u0 = build_initial_data("perturbed-shear", g, amplitude=1.0, seed=3)
    states = _outputs(NavierStokesIntegrator(g, 1e-3, 2e-3), u0, 0.1, 50)
    energies = np.array([kinetic_energy(s.velocity) for s in states])
    assert energies.size == 51
    assert np.all(np.diff(energies) <= 0.0)


def test_run_holds_the_states_its_loop_yields():
    # run is the states that _outputs streams, the same bits, for both schemes
    g = make_channel_grid(16, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    u0 = build_initial_data("perturbed-shear", g, amplitude=1.0, seed=3)
    for make in (lambda: NavierStokesIntegrator(g, 1e-3, 5e-3),
                 lambda: EulerIntegrator(g, 5e-3)):
        traj = make().run(u0, 0.05, 5)
        streamed = list(_outputs(make(), u0, 0.05, 5))
        assert len(streamed) == len(traj.states) == 6
        for a, b in zip(traj.states, streamed):
            assert a.t == b.t and a.nu == b.nu and a.grid is b.grid
            for x, y in ((a.velocity.comp1, b.velocity.comp1),
                         (a.velocity.comp2, b.velocity.comp2),
                         (a.vorticity.values, b.vorticity.values)):
                assert x.tobytes() == y.tobytes()


def test_inviscid_run_keeps_a_slipping_wall_mean():
    # the x1-mean of u1 on the wall row is conserved by the inviscid
    # dynamics, and every output reconstructs its mean mode from u0's
    g = make_channel_grid(32, 65, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    base = build_initial_data("perturbed-shear", g, amplitude=1.0, seed=3)
    u0 = VectorField(g, base.comp1 + (0.75 + 0.1 * np.cos(g.x))[:, None], base.comp2)
    wall_mean = np.mean(u0.comp1[:, 0])
    assert wall_mean == pytest.approx(0.75, abs=1e-15)
    traj = EulerIntegrator(g, 5e-3).run(u0, 0.1, 20)
    assert len(traj.states) == 21
    for s in traj.states:
        assert np.mean(s.velocity.comp1[:, 0]) == pytest.approx(wall_mean, abs=1e-15)


# ---------------------------------------------------------------------------
# exact shear series


def test_single_mode_closed_form():
    height = 2.0
    flow = ShearFlow(height=height, coeffs=[1.3])
    lam0 = 0.5 * np.pi / height
    y = np.linspace(0.0, height, 9)
    decay = np.exp(-0.01 * lam0**2 * 0.7)
    assert np.abs(flow.profile(y, 0.01, 0.7) - 1.3 * decay * np.sin(lam0 * y)).max() == 0.0
    # the wall vorticity -dw/dx2(0, t)
    assert -flow.dprofile(0.0, 0.01, 0.7) == pytest.approx(-1.3 * lam0 * decay, rel=1e-14)
    gap = 1.3 * (1.0 - decay)
    assert flow.l2_error_sq(0.01, 0.7) == pytest.approx(0.5 * height * gap**2, rel=1e-14)


def test_dprofile_is_profile_derivative():
    flow = ShearFlow(height=3.0, coeffs=[1.0, 0.0, -0.4, 0.0, 0.0, 0.1])
    y = np.linspace(0.1, 2.9, 7)
    h = 1e-6
    fd = (flow.profile(y + h, 1e-2, 0.3) - flow.profile(y - h, 1e-2, 0.3)) / (2.0 * h)
    assert np.abs(fd - flow.dprofile(y, 1e-2, 0.3)).max() <= 1e-8


def test_l2_error_matches_quadrature():
    flow = ShearFlow(height=2.0, coeffs=[0.7, 0.0, 0.0, 0.2])
    nu, t = 5e-3, 1.4
    y = np.linspace(0.0, 2.0, 20001)
    gap = flow.profile(y, nu, t) - flow.profile(y, nu, 0.0)
    direct = np.trapezoid(gap**2, y)
    assert flow.l2_error_sq(nu, t) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("flow", [
    ShearFlow(height=2.0, coeffs=[0.7, 0.0, 0.0, 0.2]),
    ShearFlow(_sine_coefficients(shear_profile_exp, 6.0, 4096), height=6.0),
], ids=["coeffs", "shear_profile_exp"])
def test_l2_error_sq_takes_an_array_of_times(flow):
    # one value per time, each the bits of the scalar call and of the sum
    # over the modes at that time alone; a scalar t gives a float
    times = np.linspace(0.0, 1.0, 21)
    for nu in (1e-2, 1e-3, 1e-4, 1e-5):
        batch = flow.l2_error_sq(nu, times)
        assert batch.shape == times.shape and batch.dtype == np.float64
        single = np.array([flow.l2_error_sq(nu, float(t)) for t in times])
        one_time = np.array([
            0.5 * flow.height * float(np.sum((flow.coeffs * (1.0 - np.exp(
                -nu * flow.lam**2 * float(t))))**2))
            for t in times])
        assert batch.tobytes() == single.tobytes() == one_time.tobytes()
    assert type(flow.l2_error_sq(1e-3, 0.5)) is float
    assert flow.l2_error_sq(1e-3, np.array([0.5])).shape == (1,)


def _longdouble_series(flow, y, nu, times, derivative):
    """The flow's truncated series at each y and time, summed in long double."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    lam = (np.arange(flow.coeffs.size) + 0.5) * pi / np.longdouble(flow.height)
    weights = flow.coeffs.astype(np.longdouble)[:, None] * np.exp(
        -np.longdouble(nu) * np.multiply.outer(lam**2, times.astype(np.longdouble)))
    angles = np.multiply.outer(y.astype(np.longdouble), lam)
    if derivative:
        return np.cos(angles) @ (lam[:, None] * weights)
    return np.sin(angles) @ weights


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("flow", [
    ShearFlow(height=3.0, coeffs=[1.0, 0.0, -0.4, 0.0, 0.0, 0.1]),
    ShearFlow(_sine_coefficients(shear_profile_exp, 6.0, 4096), height=6.0),
], ids=["coeffs", "shear_profile_exp"])
def test_profiles_match_a_long_double_sum(flow):
    # A batch of times and a scalar time both stay within 16 eps of the
    # largest entry of the same series summed in long double; they are not
    # bitwise equal, since numpy hands a batch of one to a matrix-vector
    # product.
    y = make_channel_grid(8, 97, 2.0 * np.pi, flow.height,
                          clustering="tanh", strength=2.0).y
    times = np.linspace(0.0, 1.0, 11)
    for method, derivative in ((flow.profile, False), (flow.dprofile, True)):
        ref = _longdouble_series(flow, y, 1e-3, times, derivative)
        tol = 16.0 * np.finfo(float).eps * float(np.abs(ref).max())
        batch = method(y, 1e-3, times)
        assert batch.shape == (y.size, times.size)
        assert float(np.abs(batch - ref).max()) <= tol
        for j, t in enumerate(times):
            single = method(y, 1e-3, float(t))
            assert single.shape == (y.size,)
            assert float(np.abs(single - ref[:, j]).max()) <= tol


_STUDY_REPORT_DIGEST = """
import hashlib, pathlib, sys
from ilim.harness import emit_shear_report, shear_limit_study

out = pathlib.Path(sys.argv[1])
emit_shear_report(shear_limit_study(nu_values=(1e-2, 1e-3, 1e-4), t_final=100.0), out)
digest = hashlib.sha256()
for path in sorted(out.iterdir()):
    digest.update(path.name.encode() + path.read_bytes())
print(digest.hexdigest())
"""


def test_study_profiles_do_not_depend_on_blas_threads(run_python, tmp_path):
    """At t_final = 100, nu = 1e-2 takes the eigenseries, whose matrix
    product over two or more times is one matrix-matrix product, and the
    other two nu take the closed form; the written report is the same at
    one and two BLAS threads."""
    digests = {run_python(_STUDY_REPORT_DIGEST, tmp_path / n,
                          env={"OPENBLAS_NUM_THREADS": n})
               for n in ("1", "2")}
    assert len(digests) == 1


def _profile_at(nu, t, y=(0.5,), method="profile"):
    return lambda: getattr(ShearFlow([1.0], 2.0), method)(y, nu, t)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ShearFlow([], 2.0),
                 "coeffs must be a non-empty, finite 1-D array", id="coeffs-empty"),
    pytest.param(lambda: ShearFlow([[1.0, 0.5]], 2.0),
                 "coeffs must be a non-empty, finite 1-D array", id="coeffs-2d"),
    pytest.param(lambda: ShearFlow([1.0, np.nan], 2.0),
                 "coeffs must be a non-empty, finite 1-D array", id="coeffs-nan"),
    pytest.param(lambda: ShearFlow([1.0], 0.0),
                 "height must be positive and finite", id="height-zero"),
    pytest.param(lambda: ShearFlow([1.0], -1.0),
                 "height must be positive and finite", id="height-negative"),
    pytest.param(lambda: ShearFlow([1.0], np.inf),
                 "height must be positive and finite", id="height-inf"),
    pytest.param(_profile_at(np.nan, 0.1),
                 "nu must be non-negative and finite", id="nu-nan"),
    pytest.param(_profile_at(-1e-3, 0.1, method="dprofile"),
                 "nu must be non-negative and finite", id="nu-negative"),
    pytest.param(_profile_at(np.inf, 0.1),
                 "nu must be non-negative and finite", id="nu-inf"),
    pytest.param(_profile_at(1e-3, np.inf), "t must be finite", id="t-inf"),
    pytest.param(_profile_at(1e-3, [0.1, -0.1]), "t must be non-negative", id="t-negative"),
    pytest.param(_profile_at(1e-3, np.ones((2, 2)), method="dprofile"),
                 r"t must be a scalar or 1-D, got shape \(2, 2\)", id="t-2d"),
    pytest.param(_profile_at(1e-3, 0.1, y=[0.5, np.nan]), "y must be finite", id="y-nan"),
    pytest.param(_profile_at(1e-3, 0.1, y=np.ones((2, 3))),
                 r"y must be a scalar or 1-D, got shape \(2, 3\)", id="y-2d"),
    pytest.param(lambda: ShearFlow([1.0], 2.0).l2_error_sq(np.nan, 0.1),
                 "nu must be non-negative and finite", id="l2-nu-nan"),
    pytest.param(lambda: ShearFlow([1.0], 2.0).l2_error_sq(1e-3, -1.0),
                 "t must be non-negative", id="l2-t-negative"),
    pytest.param(lambda: ShearFlow([1.0], 2.0).l2_error_sq(1e-3, np.inf),
                 "t must be finite", id="l2-t-inf"),
])
def test_shear_flow_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# exact shear flow by image sums


def _exp_pieces(height):
    """shear_profile_exp = e^(-z) - 1 on (0, height), extended oddly about 0
    and evenly about height, as the pieces (a, b, c, d, k) of c + d e^(k z)."""
    return ((-height, 0.0, 1.0, -1.0, 1.0), (0.0, height, -1.0, 1.0, -1.0),
            (height, 2.0 * height, -1.0, np.exp(-2.0 * height), 1.0))


def _reference_flow(y, nu, times, height=6.0, n_modes=65536, rows=16):
    """shear_profile_exp's heat flow and slope by its n_modes-term
    eigenseries on the closed-form sine coefficients
    b_m = -(2/H) (1 + (-1)^m e^(-H) lam_m) / (lam_m (lam_m^2 + 1)),
    `rows` rows of y at a time.  The series is summed in long double: in
    doubles its round-off reaches 5e-15 at y = H, the size of the closed
    form's own error bound.  Modes whose weight stays under 1e-40 at every
    time add nothing that shows and are left out."""
    ld = np.longdouble
    m = np.arange(n_modes)
    lam = (m + ld(0.5)) * (4 * np.arctan(ld(1))) / ld(height)
    sign = np.where(m % 2, ld(-1), ld(1))
    b = -(2 / ld(height)) * (1 + sign * np.exp(-ld(height)) * lam) / (lam * (lam**2 + 1))
    weights = b[:, None] * np.exp(-ld(nu) * np.multiply.outer(lam**2, np.asarray(times, ld)))
    keep = np.abs(weights).max(axis=1) > 1e-40
    lam, weights = lam[keep], weights[keep]
    y = np.asarray(y, ld)
    w, dw = np.empty((2, y.size, len(times)))
    for start in range(0, y.size, rows):
        angles = np.multiply.outer(y[start:start + rows], lam)
        # einsum: numpy's matmul has no fast loop for long double
        w[start:start + rows] = np.einsum("ij,jk->ik", np.sin(angles), weights)
        dw[start:start + rows] = np.einsum("ij,jk->ik", np.cos(angles), lam[:, None] * weights)
    return w, dw


_STUDY_ROWS = make_channel_grid(8, 193, 2.0 * np.pi, 6.0, clustering="tanh",
                                strength=3.0).y


@pytest.mark.parametrize("nu", [1e-2, 1e-3, 1e-4, 1e-5])
def test_heat_flow_matches_a_long_series(nu):
    # the shear study's 20 positive output times; at t = 0 the series is
    # not converged (b_m decays as 1/m^2), and the closed form is v0 itself
    times = np.linspace(0.0, 1.0, 21)[1:]
    w, dw = _heat_flow(_exp_pieces(6.0), _STUDY_ROWS, nu, times)
    ref_w, ref_dw = _reference_flow(_STUDY_ROWS, nu, times)
    assert np.abs(w - ref_w).max() <= 5e-15
    assert np.abs(dw - ref_dw).max() <= 1e-14


def test_heat_flow_is_the_data_at_time_zero():
    y = np.append(make_channel_grid(8, 97, 2.0 * np.pi, 6.0, clustering="tanh",
                                    strength=2.0).y, 6.0)
    w, dw = _heat_flow(_exp_pieces(6.0), y, 1e-3, [0.0, 0.5])
    # every row exactly, the top too, where the even extension's slope jumps
    # from -e^(-6) to e^(-6): the slope there is v0's, not the mean
    assert np.array_equal(w[:, 0], shear_profile_exp(y))
    assert np.array_equal(dw[:, 0], -np.exp(-y))
    assert dw[-1, 0] == -np.exp(-6.0)


def test_heat_flow_holds_to_the_image_bound():
    # at nu t = H^2/144 the images left out weigh erfc(6) ~ 2e-17; the
    # shear study's 4096-mode series is 2.5e-10 off there (aliased DST)
    y, nu, times = _STUDY_ROWS, 1e-2, np.array([6.0**2 / 144.0 / 1e-2])
    ref = _reference_flow(y, nu, times)
    closed = _heat_flow(_exp_pieces(6.0), y, nu, times)
    series = ShearFlow(_sine_coefficients(shear_profile_exp, 6.0, 4096), 6.0)
    for got, want in zip(closed, ref):
        assert np.abs(got - want).max() <= 1e-15
    for got, want in zip((series.profile(y, nu, times), series.dprofile(y, nu, times)), ref):
        assert np.abs(got - want).max() <= 3e-10


def test_erfc_matches_math_erfc_where_it_skips_it():
    # _erfc calls math.erfc only on (-6, 28); outside, it writes the 2.0 and
    # 0.0 that math.erfc returns there, and a NaN still goes through
    x = np.concatenate([
        np.linspace(-10.0, 40.0, 200001), np.linspace(27.0, 29.0, 200001),
        np.linspace(-6.5, -5.5, 20001),
        [np.nextafter(28.0, 0.0), 28.0, np.nextafter(28.0, 29.0),
         np.nextafter(-6.0, 0.0), -6.0, np.nextafter(-6.0, -7.0),
         0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])
    want = np.frompyfunc(math.erfc, 1, 1)(x).astype(float)
    got = solvers._erfc(x)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.isnan(got[-1])
    # _gauss_mass passes (rows, times) arrays
    rows = x[:400000].reshape(2000, 200)
    assert solvers._erfc(rows).tobytes() == want[:400000].tobytes()


def test_study_heat_flow_matches_erfc_on_every_argument(monkeypatch):
    # the four default study grids and times: the same bits as a heat flow
    # that runs math.erfc on every argument
    calls = []

    def recording(*args):
        calls.append(args)
        return _heat_flow(*args)

    monkeypatch.setattr(harness, "_heat_flow", recording)
    harness.shear_limit_study()
    assert [nu for _, _, nu, _ in calls] == [1e-2, 1e-3, 1e-4, 1e-5]
    got = [_heat_flow(*args) for args in calls]
    monkeypatch.setattr(solvers, "_erfc",
                        lambda x: np.frompyfunc(math.erfc, 1, 1)(x).astype(float))
    for args, (w, dw) in zip(calls, got):
        want_w, want_dw = _heat_flow(*args)
        assert w.tobytes() == want_w.tobytes() and dw.tobytes() == want_dw.tobytes()


def test_sine_coefficients_recover_an_eigenmode():
    # the sine transform of an eigenmode's midpoint samples is that mode
    lam0 = 0.5 * np.pi / 2.0
    b = _sine_coefficients(lambda yy: np.sin(lam0 * yy), 2.0, 9)
    assert b.shape == (9,)
    assert b[0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(b[1:]).max() <= 1e-16
    y = np.linspace(0.0, 2.0, 9)
    expect = np.exp(-0.01 * lam0**2 * 0.7) * np.sin(lam0 * y)
    assert np.abs(ShearFlow(b, 2.0).profile(y, 0.01, 0.7) - expect).max() <= 1e-13


@pytest.mark.parametrize("n", [9, 256, 4096])
def test_sine_coefficients_match_scipy_dst4(n):
    from scipy.fft import dst

    height = 6.0
    x = shear_profile_exp((np.arange(n) + 0.5) * (height / n))
    want = dst(x, type=4) / n
    got = _sine_coefficients(shear_profile_exp, height, n)
    assert np.abs(got - want).max() <= 2.0 * np.spacing(np.abs(want).max())


# ---------------------------------------------------------------------------
# paired runs


def test_simulation_config_validation():
    # every fault is raised by run_simulation before any step
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(nu=0.0))
    with pytest.raises(ValueError, match="nu must be positive"):
        run_simulation(SimulationConfig(nu=np.nan))
    # non-finite times are a ValueError, not an OverflowError or a NaN cast
    with pytest.raises(ValueError, match="finite and positive"):
        run_simulation(SimulationConfig(t_final=np.inf))
    with pytest.raises(ValueError, match="finite and positive"):
        run_simulation(SimulationConfig(dt=np.nan))
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(dt=-1e-3))
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(dt=2e-3, t_final=0.5001))
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(dt=2e-3, t_final=0.5, n_outputs=7))
    with pytest.raises(ValueError, match="unknown clustering 'foo'"):
        run_simulation(SimulationConfig(clustering="foo"))
    # the grid is checked by building it
    with pytest.raises(ValueError, match="nx must be an even integer"):
        run_simulation(SimulationConfig(nx=7))
    with pytest.raises(ValueError, match="requires strength > 0"):
        run_simulation(SimulationConfig(strength=np.nan))


def _slipping(grid, amplitude, seed):
    """Initial data that slip at the wall (comp1 = 1 everywhere)."""
    return VectorField(grid, np.ones(grid.shape), np.zeros(grid.shape))


@pytest.mark.parametrize("edit, message", [
    ({"clustering": "foo"}, "[grid] unknown clustering 'foo'"),
    ({"nx": 7}, "[grid] nx must be an even integer >= 4"),
    ({"t_final": 0.0501}, "[time] t_final must be an integer number of steps of dt"),
    ({"n_outputs": 3}, "[time] n_outputs must divide t_final/dt"),
    ({"preset": "plume"},
     "[data] preset = plume: unknown preset 'plume'; expected one of "
     "['adverse-shear', 'perturbed-shear', 'shear', 'slipping', 'vortex']"),
    ({"preset": "slipping"},
     "[data] preset = slipping: no-slip wall requires comp1 = 0 at x2 = 0"),
    # the seed and the option rules hold for library callers too
    ({"preset": "shear", "seed": -1}, "[data] seed = -1: not a non-negative integer"),
    ({"preset": "perturbed-shear", "seed": -1},
     "[data] seed = -1: not a non-negative integer"),
    ({"preset": "vortex", "preset_options": {"sigma": np.inf}},
     "[data] sigma = inf: not a finite number"),
    ({"amplitude": np.nan}, "[data] amplitude = nan: not a finite number"),
    ({"preset": "perturbed-shear", "preset_options": {"sigma": 0.5}},
     "[data] preset = perturbed-shear: unknown option 'sigma'; it takes "
     "['epsilon', 'modes', 'scale']"),
    # an option out of its range fails here, not inside the run
    ({"preset": "vortex", "preset_options": {"sigma": 0}}, "[data] sigma = 0: must be positive"),
    ({"preset": "shear", "preset_options": {"scale": 0}}, "[data] scale = 0: must be positive"),
    ({"preset": "adverse-shear", "preset_options": {"scale": -1.0}},
     "[data] scale = -1.0: must be positive"),
    ({"preset": "perturbed-shear", "preset_options": {"modes": 0}},
     "[data] modes = 0: must be a positive integer"),
    # an option the preset does not take is named as such, whatever its value
    ({"preset": "perturbed-shear", "preset_options": {"sigma": np.nan}},
     "[data] preset = perturbed-shear: unknown option 'sigma'; it takes "
     "['epsilon', 'modes', 'scale']"),
    # a bool is not a number
    ({"preset": "perturbed-shear", "seed": True}, "[data] seed = True: not a non-negative integer"),
    ({"amplitude": True}, "[data] amplitude = True: not a finite number"),
    ({"preset_options": {"scale": True}}, "[data] scale = True: must be positive"),
    ({"preset": "perturbed-shear", "preset_options": {"modes": True}},
     "[data] modes = True: must be a positive integer"),
])
def test_run_simulation_names_the_section_at_fault(monkeypatch, edit, message):
    monkeypatch.setitem(PRESETS, "slipping", _slipping)
    small = dict(nx=16, ny=33, dt=5e-3, t_final=0.05, n_outputs=5)
    with pytest.raises(ValueError) as info:
        run_simulation(SimulationConfig(**{**small, **edit}))
    assert str(info.value) == message


def test_run_simulation_pairs_runs():
    cfg = SimulationConfig(
        nx=16, ny=33, nu=1e-3, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear"
    )
    pair = run_simulation(cfg)
    assert pair.ns.scheme == "ns" and pair.euler.scheme == "euler"
    assert np.array_equal(pair.ns.times, pair.euler.times)
    assert pair.ns.times[-1] == pytest.approx(0.05)
    # both schemes start from the same shear data away from the wall row
    a = pair.ns.states[0].velocity.comp1[:, 1:]
    b = pair.euler.states[0].velocity.comp1[:, 1:]
    assert np.allclose(a, b, atol=1e-12)


def test_paired_runs_step_euler_once_after_the_first_ns_success(monkeypatch):
    cfg = SimulationConfig(
        nx=16, ny=33, nu=1e-3, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear"
    )
    real_ns, real_euler, order = (NavierStokesIntegrator.run, EulerIntegrator.run, [])

    def ns_run(self, *args, **kwargs):
        order.append(self.nu)
        return real_ns(self, *args, **kwargs)

    def euler_run(self, *args, **kwargs):
        order.append("euler")
        return real_euler(self, *args, **kwargs)

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    pair = solvers._pairer(cfg)
    first = pair(1e-2)
    with pytest.raises(ValueError, match="nu must be positive"):
        pair(-1.0)
    pairs = [first, pair(1e-3), pair(1e-2)]
    assert order == [1e-2, "euler", 1e-3, 1e-2]
    assert pairs[0].euler is pairs[1].euler is pairs[2].euler
    monkeypatch.undo()
    for nu, paired in zip((1e-2, 1e-3, 1e-2), pairs):
        alone = run_simulation(replace(cfg, nu=nu))
        for got, want in ((paired.ns, alone.ns), (paired.euler, alone.euler)):
            assert got.times.tobytes() == want.times.tobytes()
            for a, b in zip(got.states, want.states):
                assert a.velocity.comp1.tobytes() == b.velocity.comp1.tobytes()
                assert a.vorticity.values.tobytes() == b.vorticity.values.tobytes()


def test_paired_runs_raise_a_failed_euler_run_after_each_ns_run(monkeypatch):
    cfg = SimulationConfig(
        nx=16, ny=33, nu=1e-3, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear"
    )
    real_ns, euler_calls = NavierStokesIntegrator.run, []

    def ns_run(self, *args, **kwargs):
        if self.nu == 1e-2:
            raise RuntimeError("NS run failed")
        return real_ns(self, *args, **kwargs)

    def euler_run(self, *args, **kwargs):
        euler_calls.append(None)
        raise CFLError("Euler run failed")

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    pair = solvers._pairer(cfg)
    with pytest.raises(RuntimeError, match="NS run failed"):
        pair(1e-2)
    for nu in (1e-3, 1e-4):
        with pytest.raises(CFLError, match="Euler run failed"):
            pair(nu)
    assert len(euler_calls) == 1
    with pytest.raises(CFLError, match="Euler run failed"):
        run_simulation(cfg)


@pytest.mark.parametrize("euler_fails", [False, True])
def test_sweep_worker_frees_each_ns_run_before_the_next(monkeypatch, euler_fails):
    cfg = harness.SweepConfig(
        nx=16, ny=33, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear",
        nu_values=(1e-2, 1e-3, 1e-4),
    )
    real_ns, earlier = NavierStokesIntegrator.run, []

    def ns_run(self, *args, **kwargs):
        assert all(ref() is None for ref in earlier)  # freed before this NS run
        traj = real_ns(self, *args, **kwargs)
        earlier.append(weakref.ref(traj))
        return traj

    def euler_run(self, *args, **kwargs):
        raise CFLError("Euler run failed")

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    if euler_fails:
        monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    records = harness._sweep_worker((cfg, cfg.nu_values))
    assert len(earlier) == 3
    assert [r.ok for r in records] == [not euler_fails] * 3


def test_unknown_preset_rejected():
    g = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    with pytest.raises(ValueError, match="unknown preset"):
        build_initial_data("plume", g)
