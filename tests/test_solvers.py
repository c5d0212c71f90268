"""Channel schemes, exact shear series, and paired runs."""

import pickle
from collections import Counter
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

import ilim.solvers as solvers
from ilim.grid import ScalarField, VectorField, curl2d, make_channel_grid
from ilim.initial_data import PRESETS, build_initial_data, shear_profile_exp
from ilim.solvers import (
    CFLError,
    _ChannelOperators,
    _factor_band,
    EulerIntegrator,
    FlowState,
    NavierStokesIntegrator,
    ShearFlow,
    SimulationConfig,
    Trajectory,
    kinetic_energy,
    run_simulation,
    shear_exact,
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


def _reference_influence(ops, nu, dt):
    omega_h = np.zeros((ops.nk, ops.grid.ny))
    psi_h = np.zeros((ops.nk, ops.grid.ny))
    slope_h = np.zeros(ops.nk)
    e0 = np.zeros(ops.grid.ny)
    e0[0] = 1.0
    for m in range(1, ops.nk):
        omega_h[m] = solve_banded((1, 2), _cn_band(ops, nu, dt, m), e0)
        psi_h[m] = solve_banded((1, 1), _poisson_band(ops, m), _dirichlet(-omega_h[m]))
        slope_h[m] = _wall_slope(ops, psi_h[m])
    return omega_h, psi_h, slope_h


def _reference_advance(ops, nu, dt, omega_hat, adv_hat):
    omega_h, psi_h, slope_h = _reference_influence(ops, nu, dt)
    c = 0.5 * nu * dt
    rhs = (
        omega_hat
        - dt * adv_hat
        + c * (ops.apply_d2_interior(omega_hat) - (ops.k**2)[:, None] * omega_hat)
    )
    out = np.empty_like(omega_hat)
    psi = np.zeros_like(omega_hat)
    out[0] = solve_banded((1, 2), _cn_band(ops, nu, dt, 0), _dirichlet(rhs[0]))
    for m in range(1, ops.nk):
        band = _cn_band(ops, nu, dt, m)
        wp = solve_banded((1, 2), band, _dirichlet(rhs[m]))
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
        omega_h, psi_h, slope_h = _reference_influence(ops, nu, diff.dt)
        assert _same_bits(diff.omega_h, omega_h[1:])
        assert _same_bits(diff.psi_h, psi_h[1:])
        assert _same_bits(diff.slope_h, slope_h[1:])
        adv_hat = random_hat()
        got = diff.advance(omega_hat, adv_hat)
        want = _reference_advance(ops, nu, diff.dt, omega_hat, adv_hat)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_stacked_solves_keep_input_checks(channel):
    integ = NavierStokesIntegrator(channel, 1e-3, 1e-2)
    for mode in (0, 1):
        omega_hat = np.zeros((integ.ops.nk, channel.ny), dtype=complex)
        omega_hat[mode, 5] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            integ.full.advance(omega_hat, np.zeros_like(omega_hat))
    with pytest.raises(ValueError, match="infs or NaNs"):
        integ.ops.solve_poisson(omega_hat)
    with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
        NavierStokesIntegrator(channel, np.inf, 1e-2)
    with pytest.raises(LinAlgError, match="singular"):
        _factor_band(np.zeros((4, 2, 3)))


LAPACK_NAMES = ("dgttrf", "zgttrs", "dgbtrf", "dgbtrs", "zgbtrf", "zgbtrs")


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

    for scheme, integ in (("ns", NavierStokesIntegrator(g, 1e-3, 1e-2)),
                          ("euler", EulerIntegrator(g, 1e-2))):
        with monkeypatch.context() as mp:
            for name in LAPACK_NAMES:
                mp.setattr(solvers, name, counting(scheme, name, getattr(solvers, name)))
            integ.run(u0, 0.05, 1)
    return calls


def test_lapack_calls_do_not_grow_with_modes(monkeypatch):
    coarse = _lapack_calls_per_run(monkeypatch, 16)
    assert coarse == _lapack_calls_per_run(monkeypatch, 64)
    # the initial projection, then 5 steps, the first a two-stage bootstrap
    assert coarse == Counter({("ns", "zgbtrs"): 6, ("ns", "zgttrs"): 7,
                              ("euler", "zgttrs"): 7})


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


@pytest.mark.parametrize("scheme, error, match", [
    ("euler", RuntimeError, r"solution lost finiteness near t = 0\.03"),
    ("ns", ValueError, "array must not contain infs or NaNs"),
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
    exact = shear_exact(lambda y: shear_profile_exp(y, 1.0, 1.0), 1e-3, 0.25, channel.y)
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
    traj = NavierStokesIntegrator(g, 1e-3, 2e-3).run(u0, 0.1, 5, track_energy=True)
    energies = np.array(traj.step_energies)
    assert energies.size == 51
    assert np.all(np.diff(energies) <= 0.0)


# ---------------------------------------------------------------------------
# exact shear series


def test_single_mode_closed_form():
    height = 2.0
    flow = ShearFlow.from_modes(height, {0: 1.3})
    lam0 = 0.5 * np.pi / height
    y = np.linspace(0.0, height, 9)
    decay = np.exp(-0.01 * lam0**2 * 0.7)
    assert np.abs(flow.profile(y, 0.01, 0.7) - 1.3 * decay * np.sin(lam0 * y)).max() == 0.0
    assert flow.wall_vorticity(0.01, 0.7) == pytest.approx(-1.3 * lam0 * decay, rel=1e-14)
    gap = 1.3 * (1.0 - decay)
    assert flow.l2_error_sq(0.01, 0.7) == pytest.approx(0.5 * height * gap**2, rel=1e-14)


def test_dprofile_is_profile_derivative():
    flow = ShearFlow.from_modes(3.0, {0: 1.0, 2: -0.4, 5: 0.1})
    y = np.linspace(0.1, 2.9, 7)
    h = 1e-6
    fd = (flow.profile(y + h, 1e-2, 0.3) - flow.profile(y - h, 1e-2, 0.3)) / (2.0 * h)
    assert np.abs(fd - flow.dprofile(y, 1e-2, 0.3)).max() <= 1e-8


def test_l2_error_matches_quadrature():
    flow = ShearFlow.from_modes(2.0, {0: 0.7, 3: 0.2})
    nu, t = 5e-3, 1.4
    y = np.linspace(0.0, 2.0, 20001)
    gap = flow.profile(y, nu, t) - flow.profile(y, nu, 0.0)
    direct = np.trapezoid(gap**2, y)
    assert flow.l2_error_sq(nu, t) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("flow", [
    ShearFlow.from_modes(3.0, {0: 1.0, 2: -0.4, 5: 0.1}),
    ShearFlow(v0=shear_profile_exp, height=6.0),
], ids=["from_modes", "shear_profile_exp"])
def test_profiles_at_many_times_match_scalar_calls(flow):
    y = make_channel_grid(8, 97, 2.0 * np.pi, flow.height,
                          clustering="tanh", strength=2.0).y
    times = np.linspace(0.0, 1.0, 11)
    for method in (flow.profile, flow.dprofile):
        batch = method(y, 1e-3, times)
        assert batch.shape == (y.size, times.size)
        for j, t in enumerate(times):
            single = method(y, 1e-3, float(t))
            assert single.shape == (y.size,)
            assert batch[:, j].tobytes() == single.tobytes()


def test_shear_exact_on_eigenmode():
    lam0 = 0.5 * np.pi / 2.0
    y = np.linspace(0.0, 2.0, 9)
    out = shear_exact(lambda yy: np.sin(lam0 * np.asarray(yy)), 0.01, 0.7, y)
    expect = np.exp(-0.01 * lam0**2 * 0.7) * np.sin(lam0 * y)
    assert np.abs(out - expect).max() <= 1e-13


def test_shear_exact_rejects_slipping_profile():
    with pytest.raises(ValueError, match="vanish"):
        shear_exact(lambda y: np.asarray(y) + 1.0, 1e-3, 0.1, np.linspace(0.0, 1.0, 5))


def test_shear_flow_requires_profile_or_coeffs():
    with pytest.raises(ValueError):
        ShearFlow(height=1.0)


# ---------------------------------------------------------------------------
# paired runs


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(nu=0.0).validate()
    with pytest.raises(ValueError, match="nu must be positive"):
        SimulationConfig(nu=np.nan).validate()
    # non-finite times are a ValueError, not an OverflowError or a NaN cast
    with pytest.raises(ValueError, match="finite and positive"):
        SimulationConfig(t_final=np.inf).validate()
    with pytest.raises(ValueError, match="finite and positive"):
        SimulationConfig(dt=np.nan).validate()
    with pytest.raises(ValueError):
        SimulationConfig(dt=-1e-3).validate()
    with pytest.raises(ValueError):
        SimulationConfig(dt=2e-3, t_final=0.5001).validate()
    with pytest.raises(ValueError):
        SimulationConfig(dt=2e-3, t_final=0.5, n_outputs=7).validate()
    with pytest.raises(ValueError, match="unknown clustering 'foo'"):
        SimulationConfig(clustering="foo").validate()
    # the grid is checked by building it
    with pytest.raises(ValueError, match="nx must be an even integer"):
        SimulationConfig(nx=7).validate()
    with pytest.raises(ValueError, match="requires strength > 0"):
        SimulationConfig(strength=np.nan).validate()
    assert SimulationConfig().validate() is not None


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
     "['epsilon', 'modes', 'profile', 'scale']"),
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
     "['epsilon', 'modes', 'profile', 'scale']"),
])
def test_run_simulation_names_the_section_at_fault(monkeypatch, edit, message):
    # run_simulation and validate share one set-up check, so one message
    monkeypatch.setitem(PRESETS, "slipping", _slipping)
    small = dict(nx=16, ny=33, dt=5e-3, t_final=0.05, n_outputs=5)
    cfg = SimulationConfig(**{**small, **edit})
    for check in (run_simulation, SimulationConfig.validate):
        with pytest.raises(ValueError) as info:
            check(cfg)
        assert str(info.value) == message, check


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
    nus = (1e-2, -1.0, 1e-3, 1e-2)
    real_ns, real_euler, order = (NavierStokesIntegrator.run, EulerIntegrator.run, [])

    def ns_run(self, *args, **kwargs):
        order.append(self.nu)
        return real_ns(self, *args, **kwargs)

    def euler_run(self, *args, **kwargs):
        order.append("euler")
        return real_euler(self, *args, **kwargs)

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    outcomes = list(solvers._paired_runs(lambda nu: replace(cfg, nu=nu), nus))
    assert order == [1e-2, "euler", 1e-3, 1e-2]
    assert isinstance(outcomes[1], ValueError) and "nu must be positive" in str(outcomes[1])
    pairs = [outcomes[i] for i in (0, 2, 3)]
    assert pairs[0].euler is pairs[1].euler is pairs[2].euler
    monkeypatch.undo()
    for nu, pair in zip((1e-2, 1e-3, 1e-2), pairs):
        alone = run_simulation(replace(cfg, nu=nu))
        for got, want in ((pair.ns, alone.ns), (pair.euler, alone.euler)):
            assert got.times.tobytes() == want.times.tobytes()
            for a, b in zip(got.states, want.states):
                assert a.velocity.comp1.tobytes() == b.velocity.comp1.tobytes()
                assert a.vorticity.values.tobytes() == b.vorticity.values.tobytes()


def test_paired_runs_raise_a_failed_euler_run_after_each_ns_run(monkeypatch):
    cfg = SimulationConfig(
        nx=16, ny=33, nu=1e-3, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear"
    )
    real_ns = NavierStokesIntegrator.run

    def ns_run(self, *args, **kwargs):
        if self.nu == 1e-2:
            raise RuntimeError("NS run failed")
        return real_ns(self, *args, **kwargs)

    def euler_run(self, *args, **kwargs):
        raise CFLError("Euler run failed")

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    monkeypatch.setattr(EulerIntegrator, "run", euler_run)
    outcomes = list(solvers._paired_runs(lambda nu: replace(cfg, nu=nu),
                                         (1e-2, 1e-3, 1e-4)))
    assert [str(o) for o in outcomes] == ["NS run failed"] + ["Euler run failed"] * 2
    with pytest.raises(CFLError, match="Euler run failed"):
        run_simulation(cfg)


def test_paired_runs_hold_no_pair_past_its_yield(monkeypatch):
    cfg = SimulationConfig(
        nx=16, ny=33, nu=1e-3, dt=5e-3, t_final=0.05, n_outputs=5, preset="shear"
    )
    real_ns, earlier = NavierStokesIntegrator.run, []

    def ns_run(self, *args, **kwargs):
        assert all(ref() is None for ref in earlier)  # freed before this NS run
        return real_ns(self, *args, **kwargs)

    monkeypatch.setattr(NavierStokesIntegrator, "run", ns_run)
    runs = solvers._paired_runs(lambda nu: replace(cfg, nu=nu), (1e-2, 1e-3, 1e-4))
    for _ in range(3):
        earlier.append(weakref.ref(next(runs).ns))


def test_unknown_preset_rejected():
    g = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    with pytest.raises(ValueError, match="unknown preset"):
        build_initial_data("plume", g)
