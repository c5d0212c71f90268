"""Channel grids, discrete fields, regions, and the basic operators on them.

The domain is a channel [0, Lx) x [0, Ly], periodic in x1, with the solid
wall at x2 = 0 and the top at x2 = Ly.  Derivatives in x1 are
Fourier-spectral; derivatives in x2 are second-order finite differences on
a (possibly nonuniform) grid, one-sided at the wall and the top.
Quadrature is uniform-in-x1 times trapezoidal-in-x2.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "Region",
    "make_channel_grid",
    "strength_for_min_spacing",
    "grids_compatible",
    "layer_region",
    "lp_norm",
    "x_derivative",
    "y_derivative",
    "gradient",
    "curl2d",
    "divergence2d",
]


def _locked(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor-product channel grid with per-node quadrature weights.  Grids,
    fields and regions compare by identity (`grids_compatible` compares
    discretizations)."""

    nx: int
    ny: int
    period: float
    height: float
    clustering: str
    strength: float
    x: np.ndarray
    y: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        if self.y[0] != 0.0:
            raise ValueError("y grid must start exactly at the wall x2 = 0")
        if not np.all(np.diff(self.y) > 0.0):
            raise ValueError("y coordinates must be strictly increasing")
        _check_stencils(self.y)
        total = float(self.quad_weights.sum())
        target = self.period * self.height
        if abs(total - target) > 1e-12 * target:
            raise ValueError(
                f"quadrature weights sum to {total!r}, expected {target!r}"
            )

    @property
    def dx(self) -> float:
        return self.period / self.nx

    @property
    def dy_min(self) -> float:
        return float(np.min(np.diff(self.y)))

    @property
    def shape(self):
        return (self.nx, self.ny)

    @cached_property
    def _d1(self):
        """`_d1_stencils` of `y`, built on first use."""
        return _d1_stencils(self.y)

    @cached_property
    def _ik(self):
        """The d/dx1 multiplier i*k on the rfft modes, Nyquist mode dropped."""
        k = self.wavenumbers()
        if self.nx % 2 == 0:
            k[-1] = 0.0
        ik = 1j * k
        ik.setflags(write=False)
        return ik

    def wavenumbers(self) -> np.ndarray:
        """rfft wavenumbers 2*pi*m/Lx, m = 0..nx//2."""
        return 2.0 * np.pi / self.period * np.arange(self.nx // 2 + 1)


def _tanh_rows(t, height: float, strength: float):
    """The tanh clustering map of t in [0, 1] onto [0, height]."""
    return height * (1.0 - np.tanh(strength * (1.0 - t)) / np.tanh(strength))


def _tanh_points(ny: int, height: float, strength: float) -> np.ndarray:
    y = _tanh_rows(np.linspace(0.0, 1.0, ny), height, strength)
    y[0] = 0.0
    y[-1] = height
    return y


def _check_ny(ny):
    if ny < 3:
        raise ValueError("ny must be >= 3")


def make_channel_grid(nx, ny, period, height, clustering="uniform", strength=2.0):
    """Build a channel grid.

    Parameters
    ----------
    nx, ny : int
        Node counts; nx must be even (Fourier in x1), ny >= 3.
    period, height : float
        Domain extents Lx, Ly.
    clustering : {"uniform", "tanh"}
        Wall-normal node placement.  "tanh" clusters nodes toward the wall,
        y = Ly * (1 - tanh(s*(1 - t))/tanh(s)) for t uniform on [0, 1].
    strength : float
        Clustering strength s (> 0), ignored for uniform grids.
    """
    if nx < 4 or nx % 2 != 0:
        raise ValueError("nx must be an even integer >= 4")
    _check_ny(ny)
    if not (0.0 < period < np.inf and 0.0 < height < np.inf):
        raise ValueError("period and height must be finite and positive")
    if clustering == "uniform":
        y = np.linspace(0.0, height, ny)
        strength = 0.0
    elif clustering == "tanh":
        if not strength > 0.0:
            raise ValueError("tanh clustering requires strength > 0")
        y = _tanh_points(ny, height, strength)
    else:
        raise ValueError(f"unknown clustering {clustering!r}")

    dx = period / nx
    x = dx * np.arange(nx)
    dy = np.diff(y)
    wy = np.empty(ny)
    wy[0] = 0.5 * dy[0]
    wy[-1] = 0.5 * dy[-1]
    wy[1:-1] = 0.5 * (dy[:-1] + dy[1:])
    quad = dx * np.broadcast_to(wy, (nx, ny))
    return Grid(
        nx=nx,
        ny=ny,
        period=float(period),
        height=float(height),
        clustering=clustering,
        strength=float(strength),
        x=_locked(x),
        y=_locked(y),
        quad_weights=_locked(quad),
    )


def strength_for_min_spacing(ny, height, target):
    """Tanh strength whose first wall-normal spacing is `target`.

    Solves y_1(s) = target for s in [1e-8, 60] by bisection; used to match
    a grid's near-wall resolution to a known layer thickness.  Raises
    ValueError when the strength found puts y_1 more than a factor 2 from
    the target or repeats a row: y_1 rounds in steps of about
    height * 1.1e-16, so a target near or below that step is out of reach.
    """
    _check_ny(ny)
    if not 0.0 < height < np.inf:
        raise ValueError(f"height must be positive and finite, got {height!r}")
    if not 0.0 < target < height / (ny - 1):
        raise ValueError("target spacing must be below the uniform spacing")

    t1 = np.linspace(0.0, 1.0, ny)[1]

    def first_gap(s):  # y_1 alone, the bits of _tanh_points(ny, height, s)[1]
        return _tanh_rows(t1, height, s) - target

    # y_1 falls as s grows.  The width tolerance exceeds the spacing of
    # doubles below 60 (7e-15), so halving always reaches it.
    lo, hi = 1e-8, 60.0
    if not first_gap(lo) > 0.0 >= first_gap(hi):
        raise ValueError("strengths 1e-8 to 60 do not bracket the target spacing")
    while hi - lo > 1e-12 + 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if first_gap(mid) > 0.0 else (lo, mid)
    s = 0.5 * (lo + hi)
    y = _tanh_points(ny, height, s)
    if not (np.all(np.diff(y) > 0.0) and 0.5 * target <= y[1] <= 2.0 * target):
        raise ValueError(f"no tanh strength gives target spacing {target!r} at ny = {ny} "
                         f"on strictly increasing rows (strength {s!r} gives {float(y[1])!r})")
    return s


def grids_compatible(a: "Grid", b: "Grid") -> bool:
    """Same discretization, not necessarily the same object (e.g. one of
    the two was rebuilt from a manifest)."""
    return a is b or (
        a.shape == b.shape
        and a.period == b.period
        and a.height == b.height
        and np.array_equal(a.y, b.y)
    )


@contextmanager
def _in_section(prefix):
    """Put `prefix` (the config section or key at fault) before the cause of
    a ValueError or TypeError raised inside the block."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{prefix} {exc}") from None


def _paired_times(a, b) -> np.ndarray:
    """Output times of trajectory a, once a and b are checked to be a pair:
    a shared grid and output times equal to within 1e-12."""
    if not grids_compatible(a.grid, b.grid):
        raise ValueError("paired trajectories must share a grid")
    t_a, t_b = a.times, b.times
    if len(t_a) != len(t_b) or np.max(np.abs(t_a - t_b)) > 1e-12:
        raise ValueError("paired trajectories must share output times")
    return t_a


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar samples on a grid, immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _locked(v))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Velocity-like pair of scalar components on a shared grid."""

    grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        for name in ("comp1", "comp2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != self.grid.shape:
                raise ValueError(f"{name} shape {v.shape} != grid shape {self.grid.shape}")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, _locked(v))


@dataclass(frozen=True, eq=False)
class Region:
    """Boolean node mask over a grid."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.dtype != np.bool_ or m.shape != self.grid.shape:
            raise ValueError("mask must be boolean with the grid's shape")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def _strip_rows(grid: Grid, h: float) -> int:
    """The number k of grid rows in the strip 0 < x2 <= h: rows 1..k, as y
    rises from the wall row y = 0."""
    if h < 0.0:
        raise ValueError("layer height must be >= 0")
    return int(np.count_nonzero((grid.y > 0.0) & (grid.y <= h)))


def layer_region(grid: Grid, h: float) -> Region:
    """Near-wall strip 0 < x2 <= h (wall nodes themselves excluded)."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[:, 1:_strip_rows(grid, h) + 1] = True
    return Region(grid, mask)


def lp_norm(field: ScalarField, p, region: Region | None = None) -> float:
    """L^p norm over a region (whole domain if region is None).

    Finite p uses the grid quadrature weights; p = inf is the nodewise max
    of |values| over the region.  An empty region has norm 0.
    """
    if region is not None and region.grid is not field.grid:
        raise ValueError("region and field live on different grids")
    v, w = field.values, field.grid.quad_weights
    if region is not None:
        v, w = v[region.mask], w[region.mask]
    return _lp_sum(v, w, p)


def _lp_sum(v, w, p) -> float:
    """(sum of w |v|^p)^(1/p) in the order of v's elements, or max |v| for
    p = inf; 0 when v is empty.  `lp_norm` passes the region's nodes in C
    order."""
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    if np.isinf(p):
        return float(np.abs(v).max()) if v.size else 0.0
    p = float(p)
    if v.size == 0:
        return 0.0
    return float(np.sum(w * np.abs(v) ** p) ** (1.0 / p))


def x_derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral d/dx1 along axis 0 (Nyquist mode dropped)."""
    vhat = np.fft.rfft(values, axis=0)
    vhat *= grid._ik.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(vhat, n=grid.nx, axis=0)


def _d1_stencils(y: np.ndarray):
    """Interior + one-sided boundary coefficients for d/dy, 2nd order."""
    h1 = y[1:-1] - y[:-2]
    h2 = y[2:] - y[1:-1]
    lo = -h2 / (h1 * (h1 + h2))
    di = (h2 - h1) / (h1 * h2)
    up = h1 / (h2 * (h1 + h2))
    a, b = y[1] - y[0], y[2] - y[1]
    bottom = (
        -(2 * a + b) / (a * (a + b)),
        (a + b) / (a * b),
        -a / (b * (a + b)),
    )
    c, d = y[-1] - y[-2], y[-2] - y[-3]
    top = (
        (2 * c + d) / (c * (c + d)),
        -(c + d) / (c * d),
        c / (d * (c + d)),
    )
    return lo, di, up, bottom, top


def _check_stencils(y: np.ndarray) -> None:
    """Raise ValueError unless the d/dy and d2/dy2 coefficients on `y` are
    finite and, bar the d/dy diagonal (zero on uniform rows), nonzero;
    spacings too large or too small overflow or flush them."""
    with np.errstate(all="ignore"):
        lo, di, up, bottom, top = _d1_stencils(y)
        nonzero = np.concatenate([lo, up, bottom, top, *_d2_interior(y)])
    if not (np.all(np.isfinite(di)) and np.all(np.isfinite(nonzero) & (nonzero != 0.0))):
        raise ValueError("height and ny give wall-normal spacings whose derivative stencils overflow or vanish")


def _apply_d1(stencils, vals):
    """Apply `_d1_stencils` coefficients along the last axis of `vals`, into
    a new array."""
    lo, di, up, _, top = stencils
    out = np.empty_like(vals)
    out[..., 1:-1] = lo * vals[..., :-2] + di * vals[..., 1:-1] + up * vals[..., 2:]
    out[..., 0] = _wall_d1(stencils, vals)
    out[..., -1] = top[0] * vals[..., -1] + top[1] * vals[..., -2] + top[2] * vals[..., -3]
    return out


def _wall_d1(stencils, vals):
    """The one-sided first entry of `_apply_d1` alone."""
    b = stencils[3]
    return b[0] * vals[..., 0] + b[1] * vals[..., 1] + b[2] * vals[..., 2]


def _d2_interior(y: np.ndarray):
    """Interior three-point coefficients for d2/dy2 on a nonuniform grid."""
    h1 = y[1:-1] - y[:-2]
    h2 = y[2:] - y[1:-1]
    lo = 2.0 / (h1 * (h1 + h2))
    di = -2.0 / (h1 * h2)
    up = 2.0 / (h2 * (h1 + h2))
    return lo, di, up


def y_derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Finite-difference d/dx2 along axis 1 (works on real or complex data)."""
    return _apply_d1(grid._d1, values)


def _y_derivative_rows(grid: Grid, values: np.ndarray, m: int) -> np.ndarray:
    """The first m rows of `y_derivative(grid, values)`, bit for bit, from
    rows [0, max(m + 1, 3)) of `values` and the matching stencil rows (the
    last row of that block is differentiated one-sided and dropped)."""
    n = min(max(m + 1, 3), grid.ny)
    lo, di, up, bottom, top = grid._d1
    stencils = (lo[:n - 2], di[:n - 2], up[:n - 2], bottom, top)
    return _apply_d1(stencils, values[..., :n])[..., :m]


def gradient(grid: Grid, values: np.ndarray):
    """(d/dx1, d/dx2) of a nodal sample array."""
    return x_derivative(grid, values), y_derivative(grid, values)


def curl2d(vel: VectorField, rows: int | None = None) -> ScalarField | np.ndarray:
    """Scalar vorticity d1(comp2) - d2(comp1).

    With `rows=m` (1 <= m <= ny) only the first m wall-normal rows are
    computed, and returned as an (nx, m) array equal bit for bit to
    `curl2d(vel).values[:, :m]`.
    """
    g = vel.grid
    if rows is None:
        return ScalarField(g, x_derivative(g, vel.comp2) - y_derivative(g, vel.comp1))
    if not (isinstance(rows, (int, np.integer)) and 1 <= rows <= g.ny):
        raise ValueError(f"rows must be an integer in [1, {g.ny}], got {rows!r}")
    return x_derivative(g, vel.comp2[:, :rows]) - _y_derivative_rows(g, vel.comp1, rows)


def divergence2d(vel: VectorField) -> ScalarField:
    """Discrete divergence d1(comp1) + d2(comp2)."""
    g = vel.grid
    return ScalarField(g, x_derivative(g, vel.comp1) + y_derivative(g, vel.comp2))
