"""Boundary-layer correctors: mollifier, flat and curved variants, scalings."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ilim import correctors
from ilim.analysis import ErrorSeries, fit_rate, gronwall_envelope, theorem_bounds
from ilim.correctors import (
    CorrectorParams,
    Mollifier,
    WallTrace,
    corrector_time_derivative,
    curved_corrector,
    curved_divergence,
    curved_gamma,
    default_eta,
    flat_corrector,
    make_curved_chart,
    plateau_eta,
    trace_from_callable,
    verify_corrector_scalings,
)
from ilim.criteria import MSchedule, layer_height
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
    m = Mollifier()
    z = np.array([-1.0, 0.0, 0.5, 4.0, 5.0])
    assert np.all(m.value(z) == 0.0)
    assert np.all(m.derivative(z) == 0.0)


def test_mollifier_point_value_oracle():
    m = Mollifier()
    expect = math.exp(-1.0 / (1.75 * 1.75)) / _bump_mass_oracle()
    assert m.value(2.25) == pytest.approx(expect, rel=1e-12)


def test_mollifier_antiderivative_clamps_exactly():
    m = Mollifier()
    assert m.antiderivative(0.2) == 0.0
    assert m.antiderivative(0.5) == 0.0
    assert m.antiderivative(4.0) == 1.0
    assert m.antiderivative(7.5) == 1.0


@pytest.mark.parametrize("z", [0.8, 1.0, 2.0, 3.5, 3.9])
def test_mollifier_antiderivative_matches_quadrature(z):
    m = Mollifier()
    val, _ = quad(_bump_oracle, 0.5, z, epsabs=1e-14, epsrel=1e-13, limit=500)
    assert m.antiderivative(z) == pytest.approx(val / _bump_mass_oracle(), abs=1e-12)


def test_mollifier_derivative_matches_finite_difference():
    m = Mollifier()
    z = np.linspace(1.0, 3.0, 11)
    h = 1e-5
    fd = (m.value(z + h) - m.value(z - h)) / (2.0 * h)
    assert np.abs(fd - m.derivative(z)).max() <= 1e-6


def test_mollifier_antiderivative_scalar_and_array_agree():
    m = Mollifier()
    z = np.array([0.3, 1.7, 4.2])
    arr = m.antiderivative(z)
    assert arr.shape == z.shape
    for zz, a in zip(z, arr):
        out = m.antiderivative(float(zz))
        assert isinstance(out, float)
        assert out == a



def test_wall_profiles_are_the_mollifiers_and_read_only(layer_grid):
    # one evaluation is shared by every flat-corrector call on a grid, so
    # no caller may write into it
    m, y = Mollifier(), layer_grid.y
    psi, one_minus_psi = correctors._wall_profiles(y.tobytes())
    assert psi.tobytes() == m.value(y).tobytes()
    assert one_minus_psi.tobytes() == (1.0 - m.antiderivative(y)).tobytes()
    assert not psi.flags.writeable and not one_minus_psi.flags.writeable
    assert correctors._wall_profiles(y.copy().tobytes())[0] is psi

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
    assert np.abs(fd1 - rate.comp1).max() <= 1e-8
    assert np.abs(fd2 - rate.comp2).max() <= 1e-8


def test_time_derivative_at_kink_is_the_left_derivative_and_validates(layer_grid):
    tr = trace_from_callable(layer_grid, np.cos)
    du_dt = np.zeros(layer_grid.nx)
    rate = corrector_time_derivative(CorrectorParams(0.5, 1.0, tr), layer_grid, du_dt)

    # tau = min(t, 1): at t = 1 the rate is the second-order backward
    # difference, not the forward one (tau' = 0 after the kink)
    eps = 1e-5
    fields = [flat_corrector(CorrectorParams(0.5, 1.0 + k * eps, tr), layer_grid)
              for k in (-2, -1, 0, 1, 2)]
    for name in ("comp1", "comp2"):
        c = [getattr(f, name) for f in fields]
        backward = (3.0 * c[2] - 4.0 * c[1] + c[0]) / (2.0 * eps)
        forward = (-3.0 * c[2] + 4.0 * c[3] - c[4]) / (2.0 * eps)
        assert np.abs(backward - getattr(rate, name)).max() <= 1e-8
        assert np.abs(forward - getattr(rate, name)).max() > 1e-3
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
    with pytest.raises(ValueError, match="p must be >= 1"):
        verify_corrector_scalings(np.nan, np.geomspace(1e-3, 1e-1, 5))
    with pytest.raises(ValueError):
        verify_corrector_scalings(2.0, [-1e-3, 1e-2, 1e-1])
    # an infinite sample is refused before any fit (no overflow warning)
    with pytest.raises(ValueError, match=r"^alpha\*tau samples must be positive and finite$"):
        verify_corrector_scalings(2.0, [1e-4, 1e-2, np.inf])


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


def _eta_quad(chart, at, zb):
    """at * int_0^zb e^{-z} eta(z at) dz by a tight adaptive quadrature,
    with zb cut off where e^{-z} underflows, as the table is."""
    val, _ = quad(lambda z: np.exp(-z) * float(chart.eta(np.array(z * at))),
                  0.0, min(zb, correctors._EXP_CAP), limit=500, epsrel=2e-14, epsabs=0.0)
    return at * val


def test_curved_gamma_cubic_defect():
    # for the default cap, alpha*tau - gamma ~ 16 (alpha*tau)^3 / delta^2
    chart = make_curved_chart(delta=1.0)
    at = 1e-2
    gap = at - curved_gamma(1.0, at, chart)
    assert gap / (16.0 * at**3) == pytest.approx(1.0, abs=0.01)
    for at in (1e-2, 5e-2):
        assert curved_gamma(1.0, at, chart) == pytest.approx(_eta_quad(chart, at, 0.5 / at),
                                                             rel=1e-13)


@pytest.mark.parametrize("eta_args", [{}, {"eta": plateau_eta(1.0), "eta_support": 0.5}],
                         ids=["default", "plateau"])
def test_curved_gamma_and_p_match_quadrature(eta_args):
    chart = make_curved_chart(delta=1.0, **eta_args)
    y = np.linspace(0.0, 0.6, 25)
    for at in np.geomspace(1e-4, 0.5, 7):
        gamma = curved_gamma(1.0, at, chart)
        assert gamma == pytest.approx(_eta_quad(chart, at, 0.5 / at), rel=1e-13)
        p, gamma_p = correctors._weighted_eta(y, at, chart)
        # one gamma: P's own closing value is curved_gamma's
        assert gamma_p == gamma and p[0] == 0.0
        assert np.all(p[y >= 0.5] == gamma)
        expect = [_eta_quad(chart, at, yj / at) for yj in y[1:]]
        np.testing.assert_allclose(p[1:], expect, rtol=1e-13, atol=0.0)


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
    # one gamma: beyond the eta support comp1 is curved_gamma's U psi_delta
    y, at = curved_grid.y, 0.05
    gamma = curved_gamma(1.0, at, chart)
    outside = y >= chart.eta_support
    assert np.array_equal(f.comp1[:, outside],
                          (gamma * u[:, None] * chart.psi_delta(y)[None, :])[:, outside])
    p, _ = correctors._weighted_eta(y, at, chart)
    e = np.exp(-y / at)
    comp1 = -u[:, None] * (e * chart.eta(y))[None, :] + gamma * u[:, None] * chart.psi_delta(y)[None, :]
    comp2 = tr.du_dx[:, None] * (p - gamma * chart.psi_delta_antiderivative(y))[None, :] / (1.0 + y)
    assert np.array_equal(f.comp1, comp1)
    assert np.array_equal(f.comp2, comp2)


def test_curved_corrector_validates_metric(curved_grid):
    tr = trace_from_callable(curved_grid, np.cos)
    chart = make_curved_chart(delta=1.0, h=lambda x1, x2: -np.ones(np.shape(x2)))
    with pytest.raises(ValueError, match="metric factor"):
        curved_corrector(tr, 1.0, 0.05, chart, curved_grid)
    good = make_curved_chart(delta=1.0)
    field = curved_corrector(tr, 1.0, 0.05, good, curved_grid)
    with pytest.raises(ValueError, match="metric factor"):
        curved_divergence(field, chart, curved_grid)


@pytest.mark.parametrize(
    "eta_args",
    [{}, {"eta": plateau_eta(1.0), "eta_support": 0.5}],
    ids=["default", "plateau"],
)
def test_curved_divergence_identity_refines(eta_args):
    errs = []
    for ny in (97, 193):
        grid = make_channel_grid(32, ny, 2.0 * np.pi, 1.5, clustering="uniform")
        tr = trace_from_callable(grid, np.cos, lambda x: -np.sin(x))
        chart = make_curved_chart(
            delta=1.0, h=lambda x1, x2: 1.0 + 0.3 * np.sin(x1) + 0.5 * x2, **eta_args
        )
        f = curved_corrector(tr, 1.0, 0.05, chart, grid)
        errs.append(lp_norm(curved_divergence(f, chart, grid), 2.0))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order >= 1.8



# ---------------------------------------------------------------------------
# argument guards

_NAN = float("nan")
_SERIES = ErrorSeries(nu=1e-3, times=np.array([0.0, 0.5]), values=np.array([0.0, 1e-4]))
_SCHEDULE = MSchedule(form="constant", c=0.2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda g, tr: CorrectorParams(0.5, _NAN, tr), "t must be >= 0",
                 id="corrector-params-t"),
    pytest.param(lambda g, tr: curved_corrector(tr, 1.0, _NAN, make_curved_chart(1.0), g),
                 "tau must be >= 0", id="curved-corrector-tau"),
    pytest.param(lambda g, tr: curved_gamma(1.0, _NAN, make_curved_chart(1.0)),
                 r"alpha\*tau > 0", id="curved-gamma"),
    pytest.param(lambda g, tr: make_curved_chart(_NAN), "delta must be positive",
                 id="curved-chart-delta"),
    pytest.param(lambda g, tr: layer_height(1e-3, _NAN, _SCHEDULE, 10.0), "t must be >= 0",
                 id="layer-height-t"),
    pytest.param(lambda g, tr: layer_height(_NAN, 0.1, _SCHEDULE, 10.0), "nu must be positive",
                 id="layer-height-nu"),
    pytest.param(lambda g, tr: theorem_bounds(_SERIES, _SCHEDULE, _NAN),
                 "fitted constant must be positive", id="theorem-bounds-c-fit"),
    pytest.param(lambda g, tr: verify_corrector_scalings(2.0, [1e-4, 1e-2, _NAN]),
                 r"alpha\*tau samples must be positive", id="scaling-samples"),
    pytest.param(lambda g, tr: gronwall_envelope([0.0, _NAN, 1.0], 1.0, 0.0),
                 "times must increase strictly", id="gronwall-steps"),
    pytest.param(lambda g, tr: fit_rate([1e-2, 1e-3, 1e-4], [1e-3, _NAN, 1e-5]),
                 "rate fit needs positive, finite nus and errors", id="fit-rate-errors"),
])
def test_guards_reject_nan(layer_grid, call, message):
    # each guard is written so that a NaN fails its comparison
    with pytest.raises(ValueError, match=message):
        call(layer_grid, trace_from_callable(layer_grid, np.cos))
