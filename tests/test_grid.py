"""Grid construction, regions, norms, and the discrete operators."""

import math

import numpy as np
import pytest

from ilim import grid as grid_module
from ilim.grid import (
    _apply_d1,
    _d1_stencils,
    _tanh_points,
    Region,
    ScalarField,
    VectorField,
    curl2d,
    divergence2d,
    grids_compatible,
    layer_region,
    lp_norm,
    make_channel_grid,
    strength_for_min_spacing,
    x_derivative,
    y_derivative,
)


# ---------------------------------------------------------------------------
# construction


def test_uniform_grid_coordinates_and_weight_sum():
    g = make_channel_grid(8, 5, 2.0 * np.pi, 1.0, clustering="uniform")
    assert np.array_equal(g.y, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert g.x[0] == 0.0
    assert abs(g.quad_weights.sum() - 2.0 * np.pi) <= 1e-12 * 2.0 * np.pi


def test_unit_area_weight_sum():
    g = make_channel_grid(8, 5, 1.0, 1.0, clustering="uniform")
    assert abs(g.quad_weights.sum() - 1.0) <= 1e-12


def test_tanh_grid_clusters_near_wall():
    g = make_channel_grid(64, 65, 2.0 * np.pi, 2.0, clustering="tanh", strength=2.0)
    uniform_gap = 2.0 / 64
    assert g.dy_min < uniform_gap
    assert g.dy_min == g.y[1] - g.y[0]
    assert g.y[0] == 0.0 and g.y[-1] == 2.0
    assert np.all(np.diff(g.y) > 0.0)
    assert abs(g.quad_weights.sum() - 4.0 * np.pi) <= 1e-12 * 4.0 * np.pi


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nx=7, ny=5, period=1.0, height=1.0),
        dict(nx=2, ny=5, period=1.0, height=1.0),
        dict(nx=8, ny=2, period=1.0, height=1.0),
        dict(nx=8, ny=5, period=0.0, height=1.0),
        dict(nx=8, ny=5, period=1.0, height=-1.0),
        dict(nx=8, ny=5, period=1.0, height=1.0, clustering="spline"),
        dict(nx=8, ny=5, period=1.0, height=1.0, clustering="tanh", strength=0.0),
        dict(nx=8, ny=5, period=np.inf, height=1.0),
    ],
)
def test_grid_validation_errors(kwargs):
    with pytest.raises(ValueError):
        make_channel_grid(**kwargs)


@pytest.mark.parametrize("height", [1e300, 1e-300])
def test_grid_rejects_spacings_that_break_the_stencils(height):
    # found before any stencil is used, and without an overflow warning
    with pytest.raises(ValueError, match="derivative stencils overflow or vanish"):
        make_channel_grid(16, 33, 1.0, height)


def test_strength_for_min_spacing_hits_target():
    target = 1e-3
    s = strength_for_min_spacing(65, 2.0, target)
    g = make_channel_grid(8, 65, 1.0, 2.0, clustering="tanh", strength=s)
    assert abs((g.y[1] - g.y[0]) - target) <= 1e-10 * target


def test_strength_for_min_spacing_rejects_coarse_target():
    with pytest.raises(ValueError):
        strength_for_min_spacing(65, 2.0, 2.0 / 64)


@pytest.mark.parametrize("ny", [0, 1, 2])
def test_strength_for_min_spacing_applies_the_grid_ny_rule(ny):
    with pytest.raises(ValueError, match=r"^ny must be >= 3$"):
        strength_for_min_spacing(ny, 2.0, 1e-3)


@pytest.mark.parametrize("height", [np.inf, np.nan, 0.0, -2.0])
def test_strength_for_min_spacing_rejects_a_bad_height(height):
    # checked before any arithmetic on it (warnings are errors here)
    with pytest.raises(ValueError, match=r"^height must be positive and finite, got "):
        strength_for_min_spacing(65, height, 1e-3)


def test_strength_for_min_spacing_meets_its_target(monkeypatch):
    # the shear study's own targets, then a grid of fractions of the gap
    from ilim import harness

    cases = []

    def recording(ny, height, target):
        cases.append((ny, height, target))
        return strength_for_min_spacing(ny, height, target)

    monkeypatch.setattr(harness, "strength_for_min_spacing", recording)
    harness.shear_limit_study(n_modes=64)
    assert len(cases) == 4
    for ny in (33, 65, 193, 1025):
        for height in (1.0, 6.0):
            cases += [(ny, height, f * height / (ny - 1))
                      for f in np.geomspace(1e-6, 0.999, 25)]
    cases.append((1025, 1.0, 8.357835686588258e-05))
    # y_1(s) cancels against the height, so round-off is relative to it
    eps = np.finfo(float).eps
    for ny, height, target in cases:
        s = strength_for_min_spacing(ny, height, target)
        assert 1e-8 <= s <= 60.0, (ny, height, target)
        y1 = _tanh_points(ny, height, s)[1]
        assert abs(y1 - target) <= 32 * eps * height, (ny, height, target)


def _full_grid_strength(ny, height, target):
    """The bisection on y_1 taken from the whole tanh grid at each step."""
    lo, hi = 1e-8, 60.0
    while hi - lo > 1e-12 + 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        gap = _tanh_points(ny, height, mid)[1] - target
        lo, hi = (mid, hi) if gap > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_strength_for_min_spacing_maps_y1_alone_to_the_full_grid_bits(monkeypatch):
    # the bisection maps only t_1, and builds whole grids for the row check
    # and the study's grid: two per nu
    from ilim import harness

    cases, built = [], []
    full_grid = grid_module._tanh_points

    def counting(*args):
        built.append(args)
        return full_grid(*args)

    def recording(ny, height, target):
        cases.append((ny, height, target))
        return strength_for_min_spacing(ny, height, target)

    monkeypatch.setattr(grid_module, "_tanh_points", counting)
    monkeypatch.setattr(harness, "strength_for_min_spacing", recording)
    harness.shear_limit_study()
    assert len(cases) == 4 and len(built) <= 8
    monkeypatch.undo()
    cases += [(ny, 6.0, f * 6.0 / (ny - 1)) for ny in (3, 33, 193, 1025)
              for f in np.geomspace(1e-9, 0.9, 12)]
    cases.append((1025, 1.0, 8.357835686588258e-05))
    for case in cases:
        assert strength_for_min_spacing(*case) == _full_grid_strength(*case), case


@pytest.mark.parametrize("target", [6.447633535826951e-19, 5.488223080412765e-16, 3e-16])
def test_strength_for_min_spacing_rejects_a_target_below_the_rounding_step(target):
    # the shear study's targets at --T 1e-12 and 1e-10: y_1 rounds to
    # 6.66e-16 at best, and rows near the wall repeat
    with pytest.raises(ValueError, match=(
            rf"^no tanh strength gives target spacing {target!r} at ny = 193 ")):
        strength_for_min_spacing(193, 6.0, target)


def test_strength_for_min_spacing_needs_a_bracket(monkeypatch):
    # a finite height always brackets: y_1 is the uniform gap at s = 1e-8
    # and 0 at s = 60; a gap that never changes sign does not
    monkeypatch.setattr(grid_module, "_tanh_rows", lambda t, height, s: 1.0)
    with pytest.raises(ValueError, match="do not bracket the target spacing"):
        strength_for_min_spacing(65, 2.0, 1e-3)


def test_grids_compatible_on_rebuild():
    a = make_channel_grid(16, 17, 1.0, 2.0, clustering="tanh", strength=3.0)
    b = make_channel_grid(16, 17, 1.0, 2.0, clustering="tanh", strength=3.0)
    c = make_channel_grid(16, 33, 1.0, 2.0, clustering="tanh", strength=3.0)
    assert a is not b
    assert grids_compatible(a, b)
    assert not grids_compatible(a, c)


# ---------------------------------------------------------------------------
# fields and regions


def test_scalar_field_rejects_bad_values(unit_grid):
    with pytest.raises(ValueError):
        ScalarField(unit_grid, np.zeros((3, 3)))
    bad = np.zeros(unit_grid.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(unit_grid, bad)


def test_fields_are_immutable(unit_grid):
    f = ScalarField(unit_grid, np.ones(unit_grid.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    v = VectorField(unit_grid, np.ones(unit_grid.shape), np.zeros(unit_grid.shape))
    with pytest.raises(ValueError):
        v.comp1[0, 0] = 2.0


def test_region_mask_validation(unit_grid):
    with pytest.raises(ValueError):
        Region(unit_grid, np.zeros(unit_grid.shape))  # not boolean


def test_layer_region_empty_and_full(unit_grid):
    assert not layer_region(unit_grid, 0.0).mask.any()
    full = layer_region(unit_grid, unit_grid.height)
    assert full.mask.sum() == unit_grid.nx * (unit_grid.ny - 1)
    with pytest.raises(ValueError):
        layer_region(unit_grid, -0.1)


def test_layer_region_two_rows_on_uniform_grid():
    g = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    region = layer_region(g, g.y[2])
    assert region.mask.sum() == 2 * g.nx
    rows = np.unique(np.nonzero(region.mask)[1])
    assert np.array_equal(rows, np.array([1, 2]))


# ---------------------------------------------------------------------------
# norms and quadrature


def test_lp_norm_constant_field_unit_area(unit_grid):
    f = ScalarField(unit_grid, np.ones(unit_grid.shape))
    assert lp_norm(f, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_constant_on_region_is_area_times_c(unit_grid):
    region = layer_region(unit_grid, unit_grid.y[2])
    area = np.sum(unit_grid.quad_weights[region.mask])
    c = -3.5
    f = ScalarField(unit_grid, np.full(unit_grid.shape, c))
    assert lp_norm(f, 1.0, region) == pytest.approx(abs(c) * area, rel=1e-14)


def test_lp_norm_validation_and_empty_region(unit_grid):
    f = ScalarField(unit_grid, np.ones(unit_grid.shape))
    for p in (0.5, -np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^p must be >= 1$"):
            lp_norm(f, p)
    assert lp_norm(f, 2.0, layer_region(unit_grid, 0.0)) == 0.0
    other = make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")
    with pytest.raises(ValueError):
        lp_norm(f, 2.0, layer_region(other, 0.5))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_lp_norm_against_brute_force(p):
    g = make_channel_grid(16, 21, 2.0 * np.pi, 3.0, clustering="tanh", strength=2.0)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=g.shape)
    f = ScalarField(g, vals)
    region = layer_region(g, 1.2)

    # independent quadrature: rebuild trapezoid weights from coordinates
    dy = np.diff(g.y)
    wy = np.concatenate(([0.5 * dy[0]], 0.5 * (dy[:-1] + dy[1:]), [0.5 * dy[-1]]))
    dx = g.period / g.nx
    mask = (g.y > 0.0) & (g.y <= 1.2)
    if np.isinf(p):
        expected = np.abs(vals[:, mask]).max()
    else:
        terms = [
            dx * wy[j] * abs(vals[i, j]) ** p
            for i in range(g.nx)
            for j in range(g.ny)
            if mask[j]
        ]
        expected = math.fsum(terms) ** (1.0 / p)
    assert lp_norm(f, p, region) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_region_monotone_and_homogeneous(unit_grid):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=unit_grid.shape)
    f = ScalarField(unit_grid, vals)
    inner = layer_region(unit_grid, 0.3)
    outer = layer_region(unit_grid, 0.8)
    for p in (1.0, 2.0, np.inf):
        assert lp_norm(f, p, inner) <= lp_norm(f, p, outer)
    g = ScalarField(unit_grid, -2.5 * vals)
    assert lp_norm(g, np.inf) == 2.5 * lp_norm(f, np.inf)
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(g, p) == pytest.approx(2.5 * lp_norm(f, p), rel=1e-13)


def test_lp_norm_inf_is_region_max(unit_grid):
    rng = np.random.default_rng(11)
    vals = rng.normal(size=unit_grid.shape)
    f = ScalarField(unit_grid, vals)
    region = layer_region(unit_grid, 0.5)
    assert lp_norm(f, np.inf, region) == np.abs(vals[region.mask]).max()


# ---------------------------------------------------------------------------
# derivatives


def test_x_derivative_exact_on_band_limited(small_grid):
    g = small_grid
    vals = np.sin(3.0 * g.x)[:, None] * np.ones(g.ny)[None, :]
    expect = 3.0 * np.cos(3.0 * g.x)[:, None] * np.ones(g.ny)[None, :]
    assert np.abs(x_derivative(g, vals) - expect).max() <= 1e-12


def test_y_derivative_exact_on_quadratics():
    g = make_channel_grid(8, 17, 1.0, 2.0, clustering="tanh", strength=1.5)
    vals = np.broadcast_to(1.0 + 2.0 * g.y - 3.0 * g.y**2, g.shape).copy()
    expect = np.broadcast_to(2.0 - 6.0 * g.y, g.shape)
    assert np.abs(y_derivative(g, vals) - expect).max() <= 1e-11


def test_y_derivative_second_order():
    errs = []
    for ny in (33, 65, 129):
        g = make_channel_grid(8, ny, 1.0, 2.0, clustering="uniform")
        vals = np.broadcast_to(np.sin(2.0 * g.y), g.shape).copy()
        expect = 2.0 * np.cos(2.0 * g.y)
        errs.append(np.abs(y_derivative(g, vals) - expect).max())
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(2.0)
    assert np.all(orders > 1.9)


def test_y_derivative_reuses_the_grid_stencil():
    g = make_channel_grid(8, 17, 1.0, 2.0, clustering="tanh", strength=1.5)
    vals = np.random.default_rng(0).normal(size=g.shape)
    first = y_derivative(g, vals)
    assert g._d1 is g._d1
    assert y_derivative(g, vals).tobytes() == first.tobytes()
    assert first.tobytes() == _apply_d1(_d1_stencils(g.y), vals).tobytes()
    with pytest.raises(ValueError):  # a cached stencil still checks the width
        y_derivative(g, vals[:, :10])


def _apply_d1_reference(stencils, vals):
    """`_apply_d1` as three-product expressions, the reference for its bits."""
    lo, di, up, bottom, top = stencils
    out = np.empty_like(vals)
    out[..., 1:-1] = lo * vals[..., :-2] + di * vals[..., 1:-1] + up * vals[..., 2:]
    out[..., 0] = bottom[0] * vals[..., 0] + bottom[1] * vals[..., 1] + bottom[2] * vals[..., 2]
    out[..., -1] = top[0] * vals[..., -1] + top[1] * vals[..., -2] + top[2] * vals[..., -3]
    return out


@pytest.mark.parametrize("clustering", ["uniform", "tanh"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_apply_d1_keeps_the_bits_of_the_three_product_sum(clustering, dtype):
    g = make_channel_grid(8, 17, 1.0, 2.0, clustering=clustering, strength=1.5)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=g.shape) * rng.uniform(0.1, 10.0, g.ny)
    if dtype is complex:
        vals = vals + 1j * rng.normal(size=g.shape)
    vals[:, 4] = 0.0     # zeros of both signs on a row, to catch a sign flip
    vals[::2, 5] = -0.0
    for v in (vals, vals[0]):    # (nx, ny) samples and one (ny,) row
        want = _apply_d1_reference(g._d1, v).tobytes()
        assert _apply_d1(g._d1, v).tobytes() == want


def test_apply_d1_rejects_a_wrong_width():
    g = make_channel_grid(8, 17, 1.0, 2.0, clustering="tanh", strength=1.5)
    vals = np.random.default_rng(2).normal(size=g.shape)
    for bad in (vals[:, :10], vals[:, :3]):
        with pytest.raises(ValueError):
            _apply_d1(g._d1, bad)


def test_x_derivative_and_the_stepper_share_one_wavenumber_rule(small_grid):
    from ilim.solvers import _ChannelOperators

    g = small_grid
    k = g.wavenumbers()
    k[-1] = 0.0   # the Nyquist mode is dropped
    assert g._ik.tobytes() == (1j * k).tobytes() and not g._ik.flags.writeable
    assert _ChannelOperators(g).ik is g._ik
    vals = np.random.default_rng(3).normal(size=g.shape)
    want = np.fft.irfft(np.fft.rfft(vals, axis=0) * (1j * k)[:, None], n=g.nx, axis=0)
    assert x_derivative(g, vals).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# curl and divergence


def test_curl_of_linear_shear_is_minus_one(small_grid):
    g = small_grid
    u = VectorField(g, np.broadcast_to(g.y, g.shape).copy(), np.zeros(g.shape))
    assert np.abs(curl2d(u).values + 1.0).max() <= 1e-12


def test_curl_of_rest_state_is_zero(small_grid):
    g = small_grid
    u = VectorField(g, np.zeros(g.shape), np.zeros(g.shape))
    assert np.all(curl2d(u).values == 0.0)


def test_curl_second_order_against_analytic():
    errs = []
    for ny in (33, 65, 129):
        g = make_channel_grid(32, ny, 2.0 * np.pi, 2.0, clustering="uniform")
        gy = np.exp(-g.y) * np.sin(g.y)
        dgy = np.exp(-g.y) * (np.cos(g.y) - np.sin(g.y))
        u = VectorField(g, np.sin(g.x)[:, None] * gy[None, :], np.zeros(g.shape))
        expect = -np.sin(g.x)[:, None] * dgy[None, :]
        errs.append(np.abs(curl2d(u).values - expect).max())
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(2.0)
    assert np.all(orders > 1.9)


@pytest.mark.parametrize("clustering", ["uniform", "tanh"])
def test_curl_rows_are_the_first_rows_of_the_full_curl(clustering):
    g = make_channel_grid(16, 41, 2.0 * np.pi, 2.0, clustering=clustering, strength=2.5)
    rng = np.random.default_rng(5)
    vel = VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    full = curl2d(vel).values
    for m in (1, 2, 3, 20, g.ny - 1, g.ny, np.int64(4)):
        part = curl2d(vel, rows=m)
        assert part.shape == (g.nx, m)
        assert part.tobytes() == full[:, :m].tobytes()
    for bad in (0, -1, g.ny + 1, 1.5, "2"):
        with pytest.raises(ValueError, match="rows"):
            curl2d(vel, rows=bad)


def test_divergence_of_shear_is_zero(small_grid):
    g = small_grid
    u = VectorField(g, np.broadcast_to(g.y, g.shape).copy(), np.zeros(g.shape))
    assert np.abs(divergence2d(u).values).max() <= 1e-12


def test_divergence_patch_cancellation(small_grid):
    # periodic analogue of the (x1, -x2) patch test: d1(sin x1) cancels
    # d2(-x2 cos x1) exactly (spectral derivative exact, FD exact on linear y)
    g = small_grid
    u = VectorField(
        g,
        np.broadcast_to(np.sin(g.x)[:, None], g.shape).copy(),
        -np.cos(g.x)[:, None] * g.y[None, :],
    )
    assert np.abs(divergence2d(u).values).max() <= 1e-12


def test_operators_are_linear(small_grid):
    g = small_grid
    rng = np.random.default_rng(0)
    a = VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    b = VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    ab = VectorField(g, a.comp1 + b.comp1, a.comp2 + b.comp2)
    for op in (curl2d, divergence2d):
        combined = op(ab).values
        split = op(a).values + op(b).values
        assert np.abs(combined - split).max() <= 1e-10 * max(1.0, np.abs(split).max())
