"""Boundary-layer velocity correctors.

A corrector is a divergence-free field, concentrated in a thin strip at
the wall, that cancels the tangential trace U of an inviscid flow.  The
tangential component interpolates between -U at the wall and 0 in the
bulk through the profile e^{-x2/(alpha*tau)}, with a mollifier term that
restores exact incompressibility; the wall-normal component follows from
the streamfunction.  A curved variant works in wall-fitted coordinates
(xi1, xi2) with metric factor h and compactly supported profiles.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from .criteria import _write_csv
from .grid import Grid, ScalarField, VectorField, x_derivative, y_derivative

__all__ = [
    "Mollifier",
    "WallTrace",
    "trace_from_callable",
    "CorrectorParams",
    "flat_corrector",
    "corrector_time_derivative",
    "ScalingRow",
    "ScalingReport",
    "verify_corrector_scalings",
    "CurvedChart",
    "make_curved_chart",
    "default_eta",
    "plateau_eta",
    "curved_gamma",
    "curved_corrector",
    "curved_divergence",
]

# Exponents below ~ -700 underflow in f64; treat the bump as exactly zero
# once 1/w would exceed that, and cut e^{-z} integrals off there.
_EXP_CAP = 700.0
_W_FLOOR = 1.0 / _EXP_CAP


def _exp_bump(w, dw=None):
    """exp(-1/w) where w > _W_FLOOR, exactly zero elsewhere; given dw = w',
    the derivative exp(-1/w) w'/w^2 instead."""
    out = np.zeros_like(w)
    inside = w > _W_FLOOR
    wi = w[inside]
    e = np.exp(-1.0 / wi)
    out[inside] = e if dw is None else e * dw[inside] / (wi * wi)
    return out


def _bump_raw(z):
    """exp(-1/((z - 1/2)(4 - z))) on (1/2, 4), exactly zero outside."""
    return _exp_bump((z - 0.5) * (4.0 - z))


def _unit_bump_raw(v):
    """exp(-1/(v(1 - v))) on (0, 1), exactly zero outside."""
    return _exp_bump(v * (1.0 - v))


# Composite 10-point Gauss-Legendre cumulative integration on a fixed knot
# grid.  For the C-infinity bumps below the per-segment rule is exact to
# machine precision, and evaluation stays smooth in the query points (no
# interpolation kinks), so finite-difference convergence studies against
# these antiderivatives see only the bump itself.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _cumulative_table(func, lo: float, hi: float, n: int = 2048):
    """Knots on [lo, hi] plus cumulative integrals of func at each knot."""
    knots = np.linspace(lo, hi, n + 1)
    half = 0.5 * (knots[1] - knots[0])
    mids = 0.5 * (knots[:-1] + knots[1:])
    pts = mids[:, None] + half * _GL_NODES
    segs = half * (func(pts) * _GL_WEIGHTS).sum(axis=1)
    return knots, np.concatenate(([0.0], np.cumsum(segs)))


def _cumulative_eval(knots, cum, func, z):
    """Integral of func from knots[0] to each z; z must lie within the knots."""
    idx = np.clip(np.searchsorted(knots, z, side="right") - 1, 0, len(knots) - 2)
    a = knots[idx]
    half = 0.5 * (z - a)
    pts = 0.5 * (z + a)[..., None] + half[..., None] * _GL_NODES
    return cum[idx] + half * (func(pts) * _GL_WEIGHTS).sum(axis=-1)


class _Bump:
    """Unit-mass bump kernel((z - shift)/scale) / (mass * scale) on the image
    of the kernel's support [lo, hi], with its exactly clamped antiderivative.
    The defaults shift 0 and scale 1 leave z and the mass bit-exact."""

    def __init__(self, kernel, lo: float, hi: float, shift=0.0, scale=1.0):
        self._kernel, self._shift, self._scale = kernel, shift, scale
        self._knots, self._cum = _cumulative_table(kernel, lo, hi)
        self._mass = float(self._cum[-1])
        self._ends = (shift + scale * lo, shift + scale * hi)

    def _local(self, z):
        return (np.asarray(z, dtype=float) - self._shift) / self._scale

    def value(self, z):
        return self._kernel(self._local(z)) / (self._mass * self._scale)

    def antiderivative(self, z):
        """Cumulative mass: exactly 0 below the support, 1 above."""
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        lo, hi = self._ends
        out = np.empty_like(z)
        out[z <= lo] = 0.0
        out[z >= hi] = 1.0
        mid = (z > lo) & (z < hi)
        if mid.any():
            v = self._local(z[mid])
            out[mid] = _cumulative_eval(self._knots, self._cum, self._kernel, v) / self._mass
        return float(out[0]) if scalar else out


class Mollifier(_Bump):
    """Unit-mass bump supported on [1/2, 4]."""

    support = (0.5, 4.0)

    def __init__(self):
        super().__init__(_bump_raw, *self.support)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        return _exp_bump((z - 0.5) * (4.0 - z), 4.5 - 2.0 * z) / self._mass


@dataclass(frozen=True)
class WallTrace:
    """Tangential wall trace U and its tangential derivative, sampled on grid.x."""

    u: np.ndarray
    du_dx: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        du = np.asarray(self.du_dx, dtype=float)
        if u.ndim != 1 or du.shape != u.shape:
            raise ValueError("trace arrays must be matching 1-d samples")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du))):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "du_dx", du)


def trace_from_callable(grid: Grid, u_func, du_func=None) -> WallTrace:
    """Sample a trace on grid.x; derivative is spectral when not supplied."""
    u = np.asarray(u_func(grid.x), dtype=float)
    if du_func is not None:
        du = np.asarray(du_func(grid.x), dtype=float)
    else:
        du = x_derivative(grid, u)
    return WallTrace(u=u, du_dx=du)


@dataclass(frozen=True)
class CorrectorParams:
    """Layer thickness parameter alpha, time t, and the trace to cancel."""

    alpha: float
    t: float
    trace: WallTrace

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not self.t >= 0.0:
            raise ValueError("t must be >= 0")

    @property
    def tau(self) -> float:
        return min(self.t, 1.0)


@lru_cache(maxsize=2)  # one pair of 1-D profiles per recent grid
def _wall_profiles(y_bytes):
    """psi(y) and 1 - Psi(y) of the mollifier on the float64 y-grid whose
    bytes are `y_bytes`, read-only: the factors of the flat corrector that
    do not depend on time."""
    y = np.frombuffer(y_bytes)
    moll = Mollifier()
    profiles = moll.value(y), 1.0 - moll.antiderivative(y)
    for p in profiles:
        p.setflags(write=False)
    return profiles


class _FlatFactors:
    """The 1-D factors of the flat corrector at one time t > 0: the trace,
    at = alpha*tau and the y-profiles E = e^{-x2/at}, f1 = E - at psi and
    f2 = (1 - Psi) - E.  Each method writes its outer products into `out`,
    whose rows are (nx, ny) arrays."""

    def __init__(self, params: CorrectorParams, grid: Grid):
        self.params, self.grid = params, grid
        self.psi, one_minus_psi = _wall_profiles(np.asarray(grid.y, dtype=float).tobytes())
        self.at = params.alpha * params.tau
        self.e = np.exp(-grid.y / self.at)
        self.f1 = self.e - self.at * self.psi
        self.f2 = one_minus_psi - self.e

    def fields(self, out):
        """(comp1, comp2) = (-U f1, at U' f2)."""
        tr = self.params.trace
        np.multiply(-tr.u[:, None], self.f1, out=out[0])
        np.multiply(self.at * tr.du_dx[:, None], self.f2, out=out[1])

    def rate(self, du_dt, out):
        """d/dt of (comp1, comp2), given the trace's rate du_dt.  tau' is 1
        up to t = 1 (the left derivative at the kink) and 0 after."""
        tr, grid = self.params.trace, self.grid
        alpha, t, tau = self.params.alpha, self.params.t, self.params.tau
        tau_dot = 0.0 if t > 1.0 else 1.0
        # d/dt e^{-y/at} = e * y tau'/(alpha tau^2)
        de_dt = self.e * grid.y * tau_dot / (alpha * tau * tau)
        df1_dt = de_dt - alpha * tau_dot * self.psi
        df2_dt = -de_dt
        d_du_dt_dx = x_derivative(grid, du_dt)
        out[0] = -du_dt[:, None] * self.f1 - tr.u[:, None] * df1_dt
        out[1] = (alpha * tau_dot * tr.du_dx[:, None] * self.f2
                  + self.at * d_du_dt_dx[:, None] * self.f2
                  + self.at * tr.du_dx[:, None] * df2_dt)
        return out

    def gradient(self, out):
        """grad of (comp1, comp2) from the 1-D factors, ordered as
        (d1 comp1, d2 comp1, d1 comp2, d2 comp2) = (-U' f1, -U D f1,
        at U'' f2, at U' D f2).  U'' is spectral and D is the d/dx2 stencil,
        the derivatives `gradient` takes, so the result equals `gradient`
        of each component at round-off, with no 2-D transform."""
        tr, grid, at = self.params.trace, self.grid, self.at
        d2u = x_derivative(grid, tr.du_dx)
        np.multiply(-tr.du_dx[:, None], self.f1, out=out[0])
        np.multiply(-tr.u[:, None], y_derivative(grid, self.f1), out=out[1])
        np.multiply(at * d2u[:, None], self.f2, out=out[2])
        np.multiply(at * tr.du_dx[:, None], y_derivative(grid, self.f2), out=out[3])


def _pair_out(grid: Grid, out):
    """`out` checked to be a (2, nx, ny) array, or a new one if None."""
    if out is None:
        return np.empty((2, *grid.shape))
    if out.shape != (2, *grid.shape):
        raise ValueError("out must have shape (2, nx, ny)")
    return out


def flat_corrector(params: CorrectorParams, grid: Grid, out=None) -> VectorField:
    """Flat-wall corrector (comp1, comp2) on the grid.

    comp1 = -U(x1) (e^{-x2/at} - at psi(x2)), at = alpha*tau;
    comp2 =  at dU/dx1 ((1 - int_0^{x2} psi) - e^{-x2/at}).
    At t = 0 the corrector is the zero field.  At wall nodes
    comp1 = -U and comp2 = 0 exactly.  `out`, if given, is a (2, nx, ny)
    array that receives (comp1, comp2); the field's components view it.
    """
    tr = params.trace
    if tr.u.shape != (grid.nx,):
        raise ValueError("trace length must equal grid.nx")
    out = _pair_out(grid, out)
    if params.t == 0.0:
        out.fill(0.0)
    else:
        _FlatFactors(params, grid).fields(out)
    return VectorField(grid, *out)


def corrector_time_derivative(
    params: CorrectorParams, grid: Grid, du_dt: np.ndarray, out=None
) -> VectorField:
    """Analytic d/dt of the flat corrector.

    du_dt holds the time derivative of the trace samples.  tau = min(t, 1)
    is not differentiable at t = 1; there the left derivative (tau' = 1)
    is returned.  `out` is as for `flat_corrector`.
    """
    if params.t <= 0.0:
        raise ValueError("time derivative requires t > 0")
    du_dt = np.asarray(du_dt, dtype=float)
    if du_dt.shape != (grid.nx,):
        raise ValueError("du_dt length must equal grid.nx")
    out = _FlatFactors(params, grid).rate(du_dt, _pair_out(grid, out))
    return VectorField(grid, *out)


# ---------------------------------------------------------------------------
# L^p scaling verification


@dataclass(frozen=True)
class ScalingRow:
    quantity: str
    p: float
    fitted_exponent: float
    expected_exponent: float
    residual: float


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple

    def write_csv(self, path) -> None:
        """One column per ScalingRow field, in field order."""
        _write_csv(path, ",".join(f.name for f in fields(ScalingRow)),
                   map(astuple, self.rows))


def _lp_samples(v, x, p):
    """L^p norm of samples v at nodes x: trapezoid rule, or the max for p = inf."""
    v = np.abs(v)
    if np.isinf(p):
        return float(v.max())
    return float(np.trapezoid(v**p, x) ** (1.0 / p))


def _strip_norm(profile, at, p, n=30001):
    """L^p(0, inf) of a wall profile via quadrature on a two-scale grid."""
    y = np.unique(
        np.concatenate(
            [at * np.linspace(0.0, 60.0, n), np.linspace(0.0, max(4.5, 60.0 * at), n)]
        )
    )
    return _lp_samples(profile(y), y, p)


def verify_corrector_scalings(p, alpha_tau):
    """Measure L^p norms of the corrector against the predicted powers of
    alpha*tau, for the wall trace U = cos x1 over one period 2 pi.

    Norms are computed by numerical quadrature of the closed-form profiles
    (the x1 and x2 factors separate); exponents come from a log-log least
    squares fit.  Expected exponents: comp1 and d1(comp1) go like
    (alpha*tau)^{1/p}, d2(comp1) like (alpha*tau)^{1/p - 1}, comp2 and
    d1(comp2) like alpha*tau.

    Parameters
    ----------
    p : float
        Norm index (>= 1, inf allowed).
    alpha_tau : array_like
        At least 3 samples spanning >= 2 decades.
    """
    from .analysis import fit_rate

    at = np.sort(np.asarray(alpha_tau, dtype=float))
    if at.size < 3:
        raise ValueError("need at least 3 alpha*tau samples")
    if not np.all((0.0 < at) & (at < np.inf)):
        raise ValueError("alpha*tau samples must be positive and finite")
    if at[-1] / at[0] < 100.0:
        raise ValueError("alpha*tau samples must span at least 2 decades")
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    inv_p = 0.0 if np.isinf(p) else 1.0 / p

    # |dU| = |sin x1| and |d2U| = |U|
    x = np.linspace(0.0, 2.0 * np.pi, 20001)
    xnorm_u, xnorm_du = (_lp_samples(f(x), x, p) for f in (np.cos, np.sin))

    moll = Mollifier()

    def strip_norms(profile):
        return np.array([_strip_norm(lambda y: profile(y, a), a, p) for a in at])

    # comp1 and d1(comp1) share the x2 profile f1, comp2 and d1(comp2) f2
    f1 = strip_norms(lambda y, a: np.exp(-y / a) - a * moll.value(y))
    d2_f1 = strip_norms(lambda y, a: np.exp(-y / a) / a + a * moll.derivative(y))
    f2 = strip_norms(lambda y, a: a * ((1.0 - moll.antiderivative(y)) - np.exp(-y / a)))
    quantities = (
        ("comp1", xnorm_u * f1, inv_p),
        ("d1_comp1", xnorm_du * f1, inv_p),
        ("d2_comp1", xnorm_u * d2_f1, inv_p - 1.0),
        ("comp2", xnorm_du * f2, 1.0),
        ("d1_comp2", xnorm_u * f2, 1.0),
    )
    rows = []
    for name, norms, expected in quantities:
        fit = fit_rate(at, norms)
        rows.append(
            ScalingRow(
                quantity=name,
                p=float(p),
                fitted_exponent=fit.exponent,
                expected_exponent=float(expected),
                residual=fit.residual,
            )
        )
    return ScalingReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Curved (wall-fitted coordinate) variant


def default_eta(delta: float):
    """Smooth cap on [0, delta/2): eta(0) = 1, eta'(0) = 0, eta''(0) != 0."""
    half = 0.5 * delta

    def eta(y):
        y = np.asarray(y, dtype=float)
        u2 = (y / half) ** 2
        out = np.zeros_like(u2)
        inside = u2 < 1.0 - 1e-12
        out[inside] = np.exp(-2.0 * u2[inside] / (1.0 - u2[inside]))
        return out

    return eta


def plateau_eta(delta: float):
    """Plateau variant: exactly 1 on [0, delta/4], 0 beyond delta/2."""
    a, b = 0.25 * delta, 0.5 * delta

    def eta(y):
        y = np.asarray(y, dtype=float)
        s = np.clip((y - a) / (b - a), 0.0, 1.0)
        lo, hi = _exp_bump(1.0 - s), _exp_bump(s)
        out = np.asarray(lo / (lo + hi))  # an array at 0-d y as well
        out[y <= a] = 1.0
        out[y >= b] = 0.0
        return out

    return eta


@dataclass(frozen=True)
class CurvedChart:
    """Wall-fitted chart: strip height delta, metric factor h(xi1, xi2),
    near-wall profile eta (support [0, eta_support]), and the unit-mass
    bump psi_delta on (delta/2, delta) with its antiderivative."""

    delta: float
    h: object
    eta: object
    eta_support: float
    psi_delta: object
    psi_delta_antiderivative: object


def make_curved_chart(delta: float = 1.0, h=None, eta=None, eta_support=None) -> CurvedChart:
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if h is None:
        h = lambda xi1, xi2: np.ones(np.broadcast_shapes(np.shape(xi1), np.shape(xi2)))
    if eta is None:
        eta = default_eta(delta)
        eta_support = 0.5 * delta
    elif eta_support is None:
        eta_support = 0.5 * delta
    psi = _Bump(_unit_bump_raw, 0.0, 1.0, shift=0.5 * delta, scale=0.5 * delta)
    return CurvedChart(
        delta=float(delta),
        h=h,
        eta=eta,
        eta_support=float(eta_support),
        psi_delta=psi.value,
        psi_delta_antiderivative=psi.antiderivative,
    )


def _weighted_eta(y, at, chart: CurvedChart):
    """P(y) = int_0^y e^{-s/at} eta(s) ds at each y, and gamma, its value at
    the eta support, from one cumulative table of e^{-z} eta(z at) in
    z = s/at on [0, min(eta_support/at, _EXP_CAP)]: gamma is the table's
    last entry, and every y at or beyond the table's end gets gamma itself,
    so P - gamma Q is exactly gamma (1 - Q) beyond the eta support."""
    func = lambda z: np.exp(-z) * chart.eta(z * at)
    knots, cum = _cumulative_table(func, 0.0, min(chart.eta_support / at, _EXP_CAP))
    gamma = at * float(cum[-1])
    z = np.asarray(y, dtype=float) / at
    inside = z < knots[-1]
    p = np.full_like(z, gamma)
    p[inside] = at * _cumulative_eval(knots, cum, func, z[inside])
    return p, gamma


def curved_gamma(alpha: float, tau: float, chart: CurvedChart) -> float:
    """gamma = int_0^delta e^{-y/(alpha tau)} eta(y) dy (= alpha*tau up to
    O((alpha*tau)^3) for eta with unit value and flat slope at the wall)."""
    at = alpha * tau
    if not at > 0.0:
        raise ValueError("curved_gamma requires alpha*tau > 0")
    return _weighted_eta((), at, chart)[1]


def _chart_metric(chart: CurvedChart, grid: Grid) -> np.ndarray:
    """The metric factor h at the grid nodes, checked positive and finite."""
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    hvals = np.asarray(chart.h(xx, yy), dtype=float)
    if not np.all(np.isfinite(hvals)) or hvals.min() <= 0.0:
        raise ValueError("chart metric factor must be positive and finite")
    return hvals


def curved_corrector(
    trace: WallTrace, alpha: float, tau: float, chart: CurvedChart, grid: Grid
) -> VectorField:
    """Curved-wall corrector from the streamfunction U(xi1) (gamma Q - P).

    comp1 = -U e^{-xi2/at} eta + gamma U psi_delta,
    comp2 = (1/h) dU (P - gamma Q), with P the cumulative weighted eta and
    Q the psi_delta antiderivative.  The curved divergence
    (1/h)(d1 comp1 + d2(h comp2)) vanishes identically; both components
    are exactly zero for xi2 >= delta.
    """
    if trace.u.shape != (grid.nx,):
        raise ValueError("trace length must equal grid.nx")
    if not tau >= 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:  # the layer has no thickness yet
        z = np.zeros(grid.shape)
        return VectorField(grid, z, z)
    at = alpha * tau
    hvals = _chart_metric(chart, grid)
    y = grid.y
    e = np.exp(-y / at)
    eta_v = chart.eta(y)
    psi_v = chart.psi_delta(y)
    q_v = chart.psi_delta_antiderivative(y)
    p_v, gamma = _weighted_eta(y, at, chart)
    comp1 = -trace.u[:, None] * (e * eta_v)[None, :] + gamma * trace.u[:, None] * psi_v[None, :]
    comp2 = trace.du_dx[:, None] * (p_v - gamma * q_v)[None, :] / hvals
    return VectorField(grid, comp1, comp2)


def curved_divergence(field: VectorField, chart: CurvedChart, grid: Grid):
    """Discrete curved divergence (1/h)(d1 comp1 + d2(h comp2))."""
    hvals = _chart_metric(chart, grid)
    val = (x_derivative(grid, field.comp1) + y_derivative(grid, hvals * field.comp2)) / hvals
    return ScalarField(grid, val)
