"""Layer geometry, modulus schedules, and the one-sided conditions."""

import dataclasses
import math

import numpy as np
import pytest

from ilim import snapshots
from ilim.criteria import (
    CRITERIA_CSV_HEADER,
    LayerSpec,
    MSchedule,
    boundary_vorticity_condition,
    evaluate_criteria,
    kato_condition,
    layer_height,
    no_backflow_margin,
    scales_from_trace,
)
from ilim.grid import (
    ScalarField,
    VectorField,
    curl2d,
    layer_region,
    lp_norm,
    make_channel_grid,
    strength_for_min_spacing,
    y_derivative,
)
from ilim.initial_data import build_initial_data
from ilim.solvers import (
    EulerIntegrator,
    FlowState,
    NavierStokesIntegrator,
    SimulationConfig,
    run_simulation,
)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_forms_and_values():
    const = MSchedule(form="constant", c=0.3)
    assert const.value(1e-3, 0.7) == 0.3
    assert const.integral(1e-3, 0.7) == pytest.approx(0.21, rel=1e-14)
    power = MSchedule(form="power", c=2.0, a=0.5)
    assert power.value(1e-4, 5.0) == pytest.approx(2.0e-2, rel=1e-14)
    assert power.integral(1e-4, 5.0) == pytest.approx(0.1, rel=1e-14)


def test_schedule_table_interpolation_and_integral():
    sched = MSchedule(form="table", table=((0.0, 1.0, 2.0), (1.0, 2.0, 4.0)))
    assert sched.value(0.0, 1.5) == 3.0
    assert sched.integral(0.0, 0.0) == 0.0
    # trapezoid 0->1 is 1.5, then (2+3)/2 * 0.5 = 1.25
    assert sched.integral(0.0, 1.5) == pytest.approx(2.75, rel=1e-14)
    # past the table end M extends as a constant
    assert sched.integral(0.0, 3.0) == pytest.approx(4.5 + 4.0, rel=1e-14)
    assert type(sched.integral(0.0, 1.5)) is float
    assert type(sched.integral(0.0, 3.0)) is float


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(form="cubic"),
        dict(form="constant", c=0.0),
        dict(form="power", c=-1.0),
        dict(form="table"),
        dict(form="table", table=((0.0,), (1.0,))),
        dict(form="table", table=((0.5, 1.0), (1.0, 1.0))),
        dict(form="table", table=((0.0, 1.0, 0.5), (1.0, 1.0, 1.0))),
        dict(form="table", table=((0.0, 1.0), (1.0, -1.0))),
        dict(form="table", table=((0.0, np.nan), (1.0, 1.0))),
        dict(form="table", table=((0.0, 1.0), (1.0, np.nan))),
        dict(form="table", table=((0.0, 1.0), (1.0, np.inf))),
        dict(form="power", c=np.nan),
        dict(form="constant", c=np.inf),  # M = inf would clamp every layer
        dict(form="power", a=np.nan),
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        MSchedule(**kwargs)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(C=1.0)
    with pytest.raises(ValueError):
        LayerSpec(r=0.5)
    with pytest.raises(ValueError):
        LayerSpec(C=np.nan)
    with pytest.raises(ValueError):
        LayerSpec(r=np.nan)
    assert np.isinf(LayerSpec(r=np.inf).r)


# ---------------------------------------------------------------------------
# layer height


def test_layer_height_worked_example():
    sched = MSchedule(form="constant", c=1e-2)
    h = layer_height(1e-3, 1.0, sched, 10.0)
    assert h.value == pytest.approx(1e-4 * math.log(1000.0), rel=1e-14)
    assert not h.clamped


def test_layer_height_edges():
    sched = MSchedule(form="constant", c=1e-2)
    assert layer_height(1e-3, 0.0, sched, 10.0) == layer_height(1e-3, 0.0, sched, 10.0)
    zero = layer_height(1e-3, 0.0, sched, 10.0)
    assert zero.value == 0.0 and not zero.clamped
    big_m = MSchedule(form="constant", c=20.0)
    clamped = layer_height(1e-3, 1.0, big_m, 10.0)
    assert clamped.value == 0.0 and clamped.clamped
    with pytest.raises(ValueError):
        layer_height(0.0, 1.0, sched, 10.0)
    with pytest.raises(ValueError):
        layer_height(1e-3, -1.0, sched, 10.0)


def test_layer_height_caps_tau_at_one():
    sched = MSchedule(form="constant", c=1e-2)
    assert layer_height(1e-3, 1.0, sched, 10.0) == layer_height(1e-3, 7.0, sched, 10.0)


# ---------------------------------------------------------------------------
# pointwise conditions on synthetic states


def _uniform_state(nu, t, omega_value, u1=None):
    g = make_channel_grid(8, 101, 1.0, 1.0, clustering="uniform")
    zero = np.zeros(g.shape)
    vel = VectorField(g, zero if u1 is None else u1(g), zero)
    return FlowState(
        grid=g, t=t, nu=nu, velocity=vel,
        vorticity=ScalarField(g, np.full(g.shape, omega_value)),
    )


def test_no_backflow_margin_reads_wall_row():
    g = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    u1 = np.broadcast_to(np.linspace(-0.25, 0.45, 8)[:, None], g.shape).copy()
    state = FlowState(
        grid=g, t=0.0, nu=0.0,
        velocity=VectorField(g, u1, np.zeros(g.shape)),
        vorticity=ScalarField(g, np.zeros(g.shape)),
    )
    assert no_backflow_margin(state) == -0.25


def test_kato_condition_constant_vorticity_oracle():
    nu, m_val, a = 1e-2, 1e-3, -5.0
    sched = MSchedule(form="constant", c=m_val)
    state = _uniform_state(nu, 1.0, a)
    g = state.grid
    h = layer_height(nu, 1.0, sched, 2.0).value
    mask = (g.y > 0.0) & (g.y <= h)
    dy = np.diff(g.y)
    wy = np.concatenate(([0.5 * dy[0]], 0.5 * (dy[:-1] + dy[1:]), [0.5 * dy[-1]]))
    area = g.nx * (g.period / g.nx) * wy[mask].sum()
    defect = abs(a + m_val / nu)

    lhs, rhs = kato_condition(state, sched, LayerSpec(C=2.0, r=1.0))
    assert lhs == pytest.approx(defect * area, rel=1e-13)
    assert rhs == pytest.approx(m_val, rel=1e-14)

    lhs, rhs = kato_condition(state, sched, LayerSpec(C=2.0, r=2.0))
    assert lhs == pytest.approx(math.sqrt(nu) * defect * math.sqrt(area), rel=1e-13)
    assert rhs == pytest.approx(m_val, rel=1e-14)

    lhs, rhs = kato_condition(state, sched, LayerSpec(C=2.0, r=np.inf))
    assert lhs == pytest.approx(nu * defect, rel=1e-14)
    assert rhs == pytest.approx(m_val, rel=1e-14)


def test_kato_condition_positive_vorticity_passes():
    sched = MSchedule(form="constant", c=1e-3)
    state = _uniform_state(1e-2, 1.0, 3.0)
    lhs, rhs = kato_condition(state, sched, LayerSpec(C=2.0, r=2.0))
    assert lhs == 0.0 and rhs > 0.0


def test_kato_condition_empty_layer_and_validation():
    sched = MSchedule(form="constant", c=1e-3)
    state = _uniform_state(1e-2, 0.0, -5.0)
    lhs, rhs = kato_condition(state, sched, LayerSpec(C=2.0, r=2.0))
    assert lhs == 0.0 and rhs == 0.0
    g = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    z = np.zeros(g.shape)
    bad = FlowState(grid=g, t=1.0, nu=0.0, velocity=VectorField(g, z, z),
                    vorticity=ScalarField(g, z))
    with pytest.raises(ValueError):
        kato_condition(bad, sched, LayerSpec(C=2.0, r=2.0))


def test_kato_condition_du1dy_variant():
    # u1 = s * x2 has -d2 u1 = -s; the stored vorticity field is zero, so
    # only the du1dy variant sees the defect
    s = 4.0
    sched = MSchedule(form="constant", c=1e-3)
    state = _uniform_state(
        1e-2, 1.0, 0.0, u1=lambda g: np.broadcast_to(s * g.y, g.shape).copy()
    )
    lhs_omega, _ = kato_condition(state, sched, LayerSpec(C=2.0, r=np.inf))
    lhs_du, _ = kato_condition(
        state, sched, LayerSpec(C=2.0, r=np.inf, use_du1dy=True)
    )
    assert lhs_omega == 0.0
    assert lhs_du == pytest.approx(1e-2 * abs(-s + 0.1), rel=1e-11)


def test_boundary_vorticity_condition():
    sched = MSchedule(form="constant", c=1e-3)
    state = _uniform_state(1e-2, 1.0, -5.0)
    assert boundary_vorticity_condition(state, sched) == pytest.approx(-4.9, rel=1e-14)
    g = state.grid
    z = np.zeros(g.shape)
    inviscid = FlowState(grid=g, t=1.0, nu=0.0,
                         velocity=VectorField(g, z, z), vorticity=ScalarField(g, z))
    with pytest.raises(ValueError):
        boundary_vorticity_condition(inviscid, sched)


# ---------------------------------------------------------------------------
# trace scales


def test_scales_from_trace_cosine():
    x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    length, time_scale = scales_from_trace(np.cos(x)[None, :], 2.0 * np.pi)
    assert length == pytest.approx(np.pi, rel=1e-14)
    assert time_scale == pytest.approx(np.pi, rel=1e-14)
    # scaling the trace leaves L fixed and divides T by the factor
    length2, time2 = scales_from_trace(3.0 * np.cos(x)[None, :], 2.0 * np.pi)
    assert length2 == pytest.approx(length, rel=1e-14)
    assert time2 == pytest.approx(time_scale / 3.0, rel=1e-14)


def test_scales_from_trace_rejects_zero():
    with pytest.raises(ValueError):
        scales_from_trace(np.zeros((2, 16)), 1.0)


# ---------------------------------------------------------------------------
# full evaluation on paired runs


@pytest.fixture(scope="module")
def adverse_pair():
    strength = strength_for_min_spacing(97, 6.0, 8e-4)
    cfg = SimulationConfig(
        nx=32, ny=97, strength=strength, nu=1e-2, dt=2.5e-3, t_final=0.5,
        n_outputs=10, preset="adverse-shear", amplitude=25.0,
    )
    return run_simulation(cfg)


def test_adverse_shear_violates_layer_condition(adverse_pair):
    sched = MSchedule(form="power", c=1.0, a=0.5)
    report = evaluate_criteria(
        adverse_pair.ns, adverse_pair.euler, sched, LayerSpec(C=10.0, r=1.0)
    )
    assert not report.all_pass
    assert report.cond_lhs[-1] == pytest.approx(2.7100255446788784, rel=1e-6)
    assert report.cond_rhs[-1] == pytest.approx(0.05, rel=1e-12)
    assert not report.cond_pass[-1]
    assert report.wall_vort_margin[-1] == pytest.approx(-160.67072745222322, rel=1e-6)
    # the inviscid trace itself never backflows
    assert report.backflow_margin.min() >= 0.0
    assert not report.under_resolved[-1]


@pytest.mark.parametrize("r", [2.0, np.inf])
def test_adverse_shear_violation_is_r_uniform(adverse_pair, r):
    sched = MSchedule(form="power", c=1.0, a=0.5)
    report = evaluate_criteria(
        adverse_pair.ns, adverse_pair.euler, sched, LayerSpec(C=10.0, r=r)
    )
    assert not report.cond_pass[-1]
    assert report.cond_lhs[-1] > 10.0 * report.cond_rhs[-1]


def test_under_resolved_layer_is_flagged():
    # the default tanh spacing leaves fewer than two rows inside the layer:
    # the condition is then vacuous and must be flagged
    cfg = SimulationConfig(
        nx=32, ny=97, strength=2.0, nu=1e-2, dt=2.5e-3, t_final=0.5,
        n_outputs=2, preset="adverse-shear", amplitude=25.0,
    )
    pair = run_simulation(cfg)
    sched = MSchedule(form="power", c=1.0, a=0.5)
    report = evaluate_criteria(pair.ns, pair.euler, sched, LayerSpec(C=10.0, r=1.0))
    assert report.under_resolved[-1]
    assert report.cond_lhs[-1] == 0.0
    assert report.cond_pass[-1]


def test_criteria_csv_format(adverse_pair, tmp_path):
    sched = MSchedule(form="power", c=1.0, a=0.5)
    report = evaluate_criteria(
        adverse_pair.ns, adverse_pair.euler, sched, LayerSpec(C=10.0, r=1.0)
    )
    path = tmp_path / "criteria.csv"
    report.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CRITERIA_CSV_HEADER
    assert lines[0] == (
        "t,nu,layer_height,backflow_margin,cond_lhs,cond_rhs,cond_pass,"
        "wall_vort_margin,under_resolved"
    )
    assert len(lines) == 1 + len(report.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1e-2
    assert first[6] in ("True", "False")
    # a nu held as a numpy scalar is written as its Python value
    np_nu = dataclasses.replace(report, nu=np.float64(1e-3))
    np_nu.write_csv(path)
    cells = path.read_text().split("\n")[1].split(",")
    assert cells[1] == "0.001"
    assert cells[:1] + cells[2:] == first[:1] + first[2:]


@pytest.mark.parametrize("r", [1.0, 2.0, np.inf])
def test_evaluate_criteria_matches_per_state_functions(adverse_pair, r):
    sched = MSchedule(form="power", c=1.0, a=0.5)
    spec = LayerSpec(C=10.0, r=r)
    ns, euler = adverse_pair.ns, adverse_pair.euler
    report = evaluate_criteria(ns, euler, sched, spec)
    for i, (s_ns, s_e) in enumerate(zip(ns.states, euler.states)):
        h = layer_height(s_ns.nu, s_ns.t, sched, spec.C)
        lhs, rhs = kato_condition(s_ns, sched, spec)
        rows_inside = np.count_nonzero(layer_region(ns.grid, h.value).mask[0])
        assert report.times[i] == s_ns.t
        assert report.layer_heights[i] == h.value
        assert report.layer_clamped[i] == h.clamped
        assert report.backflow_margin[i] == no_backflow_margin(s_e)
        assert report.cond_lhs[i] == lhs and report.cond_rhs[i] == rhs
        assert report.cond_pass[i] == (lhs <= rhs)
        assert report.wall_vort_margin[i] == boundary_vorticity_condition(s_ns, sched)
        assert report.under_resolved[i] == (h.value > 0.0 and rows_inside < 2)
    assert report.layer_heights.dtype == np.float64
    assert report.cond_pass.dtype == bool and report.under_resolved.dtype == bool
    # the run has both resolved and under-resolved nonempty layers
    assert report.under_resolved.any() and not report.under_resolved[1:].all()


def _full_field_reference(ns, sched, spec, omega_of):
    """cond_lhs and wall_vort_margin from whole fields: the defect on every
    node, then lp_norm over layer_region."""
    lhs, wall = [], []
    for s in ns.states:
        g, m = s.grid, sched.value(s.nu, s.t)
        omega = omega_of(s)
        base = -y_derivative(g, s.velocity.comp1) if spec.use_du1dy else omega
        defect = ScalarField(g, np.abs(np.minimum(base + m / s.nu, 0.0)))
        region = layer_region(g, layer_height(s.nu, s.t, sched, spec.C).value)
        r = spec.r
        scale = s.nu if np.isinf(r) else s.nu ** ((r - 1.0) / r)
        lhs.append(float(scale * lp_norm(defect, r, region)))
        wall.append(float((omega[:, 0] + m / s.nu).min()))
    return np.array(lhs), np.array(wall)


def _save_and_load(pair, root):
    for name, traj in (("ns", pair.ns), ("euler", pair.euler)):
        snapshots.save_trajectory(traj, root / name)
    return (snapshots.load_trajectory(root / "ns"),
            snapshots.load_trajectory(root / "euler"))


@pytest.mark.parametrize("use_du1dy", [False, True])
@pytest.mark.parametrize("r", [1.0, 2.0, np.inf])
def test_criteria_bits_match_a_full_field_reference(adverse_pair, tmp_path, r, use_du1dy):
    # the stepped (stored) vorticity and a loaded pair's derived rows, on
    # resolved layers and on layers an enormous M clamps to nothing
    spec = LayerSpec(C=10.0, r=r, use_du1dy=use_du1dy)
    runs = (((adverse_pair.ns, adverse_pair.euler), lambda s: s.vorticity.values),
            (_save_and_load(adverse_pair, tmp_path), lambda s: curl2d(s.velocity).values))
    for sched, resolved in ((MSchedule(form="power", c=1.0, a=0.5), True),
                            (MSchedule(form="constant", c=1e6), False)):
        for (ns, euler), omega_of in runs:
            report = evaluate_criteria(ns, euler, sched, spec)
            lhs, wall = _full_field_reference(ns, sched, spec, omega_of)
            assert report.cond_lhs.tobytes() == lhs.tobytes()
            assert report.wall_vort_margin.tobytes() == wall.tobytes()
            assert (report.cond_lhs.max() > 0.0) == resolved
            assert (report.layer_heights.max() > 0.0) == resolved


def test_loaded_pair_criteria_derive_only_wall_rows(adverse_pair, tmp_path, monkeypatch):
    rows_asked = []

    def spy(vel, rows=None):
        rows_asked.append(rows)
        return curl2d(vel, rows=rows)

    monkeypatch.setattr(snapshots, "curl2d", spy)
    ns, euler = _save_and_load(adverse_pair, tmp_path)
    assert rows_asked == []  # loading runs no curl
    sched = MSchedule(form="power", c=1.0, a=0.5)
    for r in (1.0, 2.0, np.inf):
        evaluate_criteria(ns, euler, sched, LayerSpec(C=10.0, r=r))
    assert rows_asked and None not in rows_asked and max(rows_asked) < ns.grid.ny // 4
    states = (*ns.states, *euler.states)
    assert not any("vorticity" in vars(s) for s in states)
    for s in states:
        omega = s.vorticity
        assert omega.values.tobytes() == curl2d(s.velocity).values.tobytes()
        assert s.vorticity is omega
    assert rows_asked.count(None) == len(states)


def test_evaluate_criteria_rejects_mismatched_runs():
    g = make_channel_grid(8, 33, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    other = make_channel_grid(8, 49, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
    u0 = build_initial_data("shear", g, amplitude=1.0)
    u0_other = build_initial_data("shear", other, amplitude=1.0)
    ns = NavierStokesIntegrator(g, 1e-3, 1e-2).run(u0, 0.04, 2)
    sched = MSchedule(form="constant", c=1e-2)
    euler_other = EulerIntegrator(other, 1e-2).run(u0_other, 0.04, 2)
    with pytest.raises(ValueError, match="share a grid"):
        evaluate_criteria(ns, euler_other, sched, LayerSpec())
    euler_late = EulerIntegrator(g, 2e-2).run(u0, 0.08, 2)
    with pytest.raises(ValueError, match="output times"):
        evaluate_criteria(ns, euler_late, sched, LayerSpec())
