"""Boundary-layer correctors: mollifier, flat and curved variants, scalings."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ilim.correctors import (
    CorrectorParams,
    WallTrace,
    corrector_time_derivative,
    curved_corrector,
    curved_divergence,
    curved_gamma,
    default_eta,
    flat_corrector,
    flat_corrector_wall_gradient,
    make_curved_chart,
    make_mollifier,
    plateau_eta,
    trace_from_callable,
    verify_corrector_scalings,
)
from ilim.grid import lp_norm, make_channel_grid


def _bump_oracle(z):
    return math.exp(-1.0 / ((z - 0.5) * (4.0 - z)))


def _bump_mass_oracle():
    mass, _ = quad(_bump_oracle, 0.5, 4.0, epsabs=1e-14, epsrel=1e-13, limit=500)
    return mass


@pytest.fixture(scope="module")
def layer_grid():
    """Uniform grid tall enough to contain the mollifier support [1/2, 4]."""
    return make_channel_grid(16, 61, 2.0 * np.pi, 6.0, clustering="uniform")


# ---------------------------------------------------------------------------
# mollifier


def test_mollifier_vanishes_outside_support():
    m = make_mollifier()
    z = np.array([-1.0, 0.0, 0.5, 4.0, 5.0])
    assert np.all(m.value(z) == 0.0)
    assert np.all(m.derivative(z) == 0.0)


def test_mollifier_point_value_oracle():
    m = make_mollifier()
    expect = math.exp(-1.0 / (1.75 * 1.75)) / _bump_mass_oracle()
    assert m.value(2.25) == pytest.approx(expect, rel=1e-12)


def test_mollifier_antiderivative_clamps_exactly():
    m = make_mollifier()
    assert m.antiderivative(0.2) == 0.0
    assert m.antiderivative(0.5) == 0.0
    assert m.antiderivative(4.0) == 1.0
    assert m.antiderivative(7.5) == 1.0


@pytest.mark.parametrize("z", [0.8, 1.0, 2.0, 3.5, 3.9])
def test_mollifier_antiderivative_matches_quadrature(z):
    m = make_mollifier()
    val, _ = quad(_bump_oracle, 0.5, z, epsabs=1e-14, epsrel=1e-13, limit=500)
    assert m.antiderivative(z) == pytest.approx(val / _bump_mass_oracle(), abs=1e-12)


def test_mollifier_derivative_matches_finite_difference():
    m = make_mollifier()
    z = np.linspace(1.0, 3.0, 11)
    h = 1e-5
    fd = (m.value(z + h) - m.value(z - h)) / (2.0 * h)
    assert np.abs(fd - m.derivative(z)).max() <= 1e-6


def test_mollifier_antiderivative_scalar_and_array_agree():
    m = make_mollifier()
    z = np.array([0.3, 1.7, 4.2])
    arr = m.antiderivative(z)
    assert arr.shape == z.shape
    for zz, a in zip(z, arr):
        out = m.antiderivative(float(zz))
        assert isinstance(out, float)
        assert out == a


# ---------------------------------------------------------------------------
# traces and parameters


def test_trace_from_callable_spectral_derivative(layer_grid):
    tr = trace_from_callable(layer_grid, lambda x: np.cos(3.0 * x))
    assert np.array_equal(tr.u, np.cos(3.0 * layer_grid.x))
    assert np.abs(tr.du_dx + 3.0 * np.sin(3.0 * layer_grid.x)).max() <= 1e-12


def test_trace_from_callable_explicit_derivative(layer_grid):
    du = np.full(layer_grid.nx, 7.0)
    tr = trace_from_callable(layer_grid, np.cos, lambda x: np.full_like(x, 7.0))
    assert np.array_equal(tr.du_dx, du)


def test_wall_trace_validation():
    with pytest.raises(ValueError):
        WallTrace(np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        WallTrace(np.array([1.0, np.inf]), np.zeros(2))


def test_corrector_params_validation(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    with pytest.raises(ValueError):
        CorrectorParams(0.0, 1.0, tr)
    with pytest.raises(ValueError):
        CorrectorParams(1.5, 1.0, tr)
    with pytest.raises(ValueError):
        CorrectorParams(0.5, -0.1, tr)
    assert CorrectorParams(0.5, 0.25, tr).tau == 0.25
    assert CorrectorParams(0.5, 3.0, tr).tau == 1.0


# ---------------------------------------------------------------------------
# flat corrector


def test_flat_corrector_zero_at_initial_time(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    f = flat_corrector(CorrectorParams(0.5, 0.0, tr), layer_grid)
    assert np.all(f.comp1 == 0.0) and np.all(f.comp2 == 0.0)


def test_flat_corrector_wall_values_exact(layer_grid):
    rng = np.random.default_rng(5)
    u = rng.normal(size=layer_grid.nx)
    tr = WallTrace(u, rng.normal(size=layer_grid.nx))
    f = flat_corrector(CorrectorParams(0.3, 0.7, tr), layer_grid)
    assert np.array_equal(f.comp1[:, 0], -u)
    assert np.all(f.comp2[:, 0] == 0.0)


def test_flat_corrector_decays_above_layer(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    f = flat_corrector(CorrectorParams(0.1, 1.0, tr), layer_grid)
    far = layer_grid.y >= 4.5
    assert np.abs(f.comp1[:, far]).max() <= 1e-15
    assert np.abs(f.comp2[:, far]).max() <= 1e-15


def test_flat_corrector_rejects_foreign_trace(layer_grid):
    tr = WallTrace(np.zeros(8), np.zeros(8))
    with pytest.raises(ValueError):
        flat_corrector(CorrectorParams(0.5, 1.0, tr), layer_grid)


def test_wall_gradient_closed_form(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    p = CorrectorParams(0.25, 0.5, tr)
    grad = flat_corrector_wall_gradient(p, layer_grid)
    assert np.array_equal(grad, tr.u / (0.25 * 0.5))
    with pytest.raises(ValueError):
        flat_corrector_wall_gradient(CorrectorParams(0.25, 0.0, tr), layer_grid)


# ---------------------------------------------------------------------------
# time derivative


def _scaled_trace(grid, amp):
    return trace_from_callable(
        grid, lambda x: amp * np.cos(x), lambda x: -amp * np.sin(x)
    )


@pytest.mark.parametrize("t0", [0.6, 2.0])
def test_time_derivative_matches_finite_difference(layer_grid, t0):
    def amp(t):
        return 1.0 + 0.3 * math.sin(t)

    rate = corrector_time_derivative(
        CorrectorParams(0.5, t0, _scaled_trace(layer_grid, amp(t0))),
        layer_grid,
        0.3 * math.cos(t0) * np.cos(layer_grid.x),
    )
    eps = 1e-5
    plus = flat_corrector(
        CorrectorParams(0.5, t0 + eps, _scaled_trace(layer_grid, amp(t0 + eps))),
        layer_grid,
    )
    minus = flat_corrector(
        CorrectorParams(0.5, t0 - eps, _scaled_trace(layer_grid, amp(t0 - eps))),
        layer_grid,
    )
    fd1 = (plus.comp1 - minus.comp1) / (2.0 * eps)
    fd2 = (plus.comp2 - minus.comp2) / (2.0 * eps)
    assert np.abs(fd1 - rate.field.comp1).max() <= 1e-8
    assert np.abs(fd2 - rate.field.comp2).max() <= 1e-8
    assert not rate.one_sided_at_kink


def test_time_derivative_flags_kink_and_validates(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    du_dt = np.zeros(layer_grid.nx)
    rate = corrector_time_derivative(CorrectorParams(0.5, 1.0, tr), layer_grid, du_dt)
    assert rate.one_sided_at_kink
    with pytest.raises(ValueError):
        corrector_time_derivative(CorrectorParams(0.5, 0.0, tr), layer_grid, du_dt)
    with pytest.raises(ValueError):
        corrector_time_derivative(CorrectorParams(0.5, 0.5, tr), layer_grid, du_dt[:-1])


# ---------------------------------------------------------------------------
# L^p scalings


def test_scaling_report_validation():
    with pytest.raises(ValueError):
        verify_corrector_scalings(2.0, [1e-3, 1e-2])  # too few samples
    with pytest.raises(ValueError):
        verify_corrector_scalings(2.0, [1e-3, 2e-3, 4e-3])  # under two decades
    with pytest.raises(ValueError):
        verify_corrector_scalings(0.5, np.geomspace(1e-3, 1e-1, 5))
    with pytest.raises(ValueError):
        verify_corrector_scalings(2.0, [-1e-3, 1e-2, 1e-1])


@pytest.mark.parametrize(
    "p, expected",
    [
        (2.0, {"comp1": 0.5, "d1_comp1": 0.5, "d2_comp1": -0.5, "comp2": 1.0, "d1_comp2": 1.0}),
        (np.inf, {"comp1": 0.0, "d1_comp1": 0.0, "d2_comp1": -1.0, "comp2": 1.0, "d1_comp2": 1.0}),
    ],
)
def test_scaling_exponents_quick(p, expected):
    report = verify_corrector_scalings(p, np.geomspace(1e-3, 1e-1, 5))
    seen = {r.quantity: r for r in report.rows}
    assert set(seen) == set(expected)
    for name, row in seen.items():
        assert row.expected_exponent == expected[name]
        assert abs(row.fitted_exponent - row.expected_exponent) <= 0.05


def test_scaling_report_csv(tmp_path):
    report = verify_corrector_scalings(2.0, np.geomspace(1e-3, 1e-1, 5))
    path = tmp_path / "scalings.csv"
    report.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "quantity,p,fitted_exponent,expected_exponent,residual"
    assert len(lines) == 6
    for line in lines[1:]:
        name, pval, fitted, expect, resid = line.split(",")
        float(pval), float(fitted), float(expect), float(resid)


# ---------------------------------------------------------------------------
# curved chart pieces


def test_default_eta_shape():
    eta = default_eta(1.0)
    y = np.linspace(0.0, 0.6, 13)
    v = eta(y)
    assert v[0] == 1.0
    assert np.all(v[y >= 0.5] == 0.0)
    assert np.all(np.diff(v[y <= 0.5]) <= 0.0)
    # flat at the wall
    h = 1e-6
    assert abs(eta(np.array([h]))[0] - 1.0) <= 1e-10


def test_plateau_eta_shape():
    eta = plateau_eta(2.0)
    assert np.all(eta(np.array([0.0, 0.25, 0.5])) == 1.0)
    assert np.all(eta(np.array([1.0, 1.1, 3.0])) == 0.0)
    mid = eta(np.array([0.6, 0.7, 0.8, 0.9]))
    assert np.all((mid > 0.0) & (mid < 1.0))
    assert np.all(np.diff(eta(np.linspace(0.0, 1.2, 25))) <= 0.0)


def test_make_curved_chart_defaults_and_validation():
    with pytest.raises(ValueError):
        make_curved_chart(delta=0.0)
    chart = make_curved_chart(delta=2.0)
    assert chart.eta_support == 1.0
    h = chart.h(np.zeros((3, 4)), np.ones((3, 4)))
    assert np.all(h == 1.0)


def test_psi_delta_unit_mass_and_support():
    chart = make_curved_chart(delta=2.0)
    y = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    psi = chart.psi_delta(y)
    assert psi[y <= 1.0].max() == 0.0 and psi[y >= 2.0].max() == 0.0
    assert chart.psi_delta_antiderivative(1.0) == 0.0
    assert chart.psi_delta_antiderivative(2.0) == 1.0
    mass, _ = quad(lambda s: chart.psi_delta(np.array(s)), 1.0, 2.0,
                   epsabs=1e-13, epsrel=1e-12, limit=500)
    assert mass == pytest.approx(1.0, abs=1e-10)
    mid, _ = quad(lambda s: chart.psi_delta(np.array(s)), 1.0, 1.6,
                  epsabs=1e-13, epsrel=1e-12, limit=500)
    assert chart.psi_delta_antiderivative(1.6) == pytest.approx(mid, abs=1e-10)


def test_curved_gamma_constant_eta_closed_form():
    support = 0.43
    chart = make_curved_chart(
        delta=1.0, eta=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        eta_support=support,
    )
    at = 0.1
    expect = at * (1.0 - math.exp(-support / at))
    assert curved_gamma(0.5, 0.2, chart) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        curved_gamma(0.5, 0.0, chart)


def test_curved_gamma_cubic_defect():
    # for the default cap, alpha*tau - gamma ~ 16 (alpha*tau)^3 / delta^2
    chart = make_curved_chart(delta=1.0)
    at = 1e-2
    gap = at - curved_gamma(1.0, at, chart)
    assert gap / (16.0 * at**3) == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# curved corrector


@pytest.fixture(scope="module")
def curved_grid():
    return make_channel_grid(32, 97, 2.0 * np.pi, 1.5, clustering="uniform")


def test_curved_corrector_zero_at_tau_zero(curved_grid):
    tr = trace_from_callable(curved_grid, np.cos)
    chart = make_curved_chart(delta=1.0)
    f = curved_corrector(tr, 1.0, 0.0, chart, curved_grid)
    assert np.all(f.comp1 == 0.0) and np.all(f.comp2 == 0.0)
    with pytest.raises(ValueError):
        curved_corrector(tr, 1.0, -0.5, chart, curved_grid)


def test_curved_corrector_wall_and_support(curved_grid):
    rng = np.random.default_rng(9)
    u = rng.normal(size=curved_grid.nx)
    tr = WallTrace(u, rng.normal(size=curved_grid.nx))
    chart = make_curved_chart(delta=1.0, h=lambda x1, x2: 1.0 + x2)
    f = curved_corrector(tr, 1.0, 0.05, chart, curved_grid)
    assert np.array_equal(f.comp1[:, 0], -u)
    assert np.all(f.comp2[:, 0] == 0.0)
    beyond = curved_grid.y >= 1.0
    assert np.all(f.comp1[:, beyond] == 0.0)
    assert np.all(f.comp2[:, beyond] == 0.0)


def test_curved_corrector_validates_metric(curved_grid):
    tr = trace_from_callable(curved_grid, np.cos)
    chart = make_curved_chart(delta=1.0, h=lambda x1, x2: -np.ones(np.shape(x2)))
    with pytest.raises(ValueError, match="metric factor"):
        curved_corrector(tr, 1.0, 0.05, chart, curved_grid)
    good = make_curved_chart(delta=1.0)
    field = curved_corrector(tr, 1.0, 0.05, good, curved_grid)
    with pytest.raises(ValueError, match="metric factor"):
        curved_divergence(field, chart, curved_grid)


def test_curved_divergence_identity_refines():
    errs = []
    for ny in (97, 193):
        grid = make_channel_grid(32, ny, 2.0 * np.pi, 1.5, clustering="uniform")
        tr = trace_from_callable(grid, np.cos, lambda x: -np.sin(x))
        chart = make_curved_chart(
            delta=1.0, h=lambda x1, x2: 1.0 + 0.3 * np.sin(x1) + 0.5 * x2
        )
        f = curved_corrector(tr, 1.0, 0.05, chart, grid)
        errs.append(lp_norm(curved_divergence(f, chart, grid), 2.0))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order >= 1.8
