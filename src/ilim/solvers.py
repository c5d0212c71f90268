"""Paired viscous/inviscid channel solvers in vorticity-streamfunction form.

Both schemes share a Fourier-in-x1 / second-order finite-difference-in-x2
discretization on the channel [0, Lx) x [0, Ly]:

* viscous ("ns"): no-slip wall at x2 = 0, stress-free top (omega = 0);
  2nd-order IMEX stepping, Adams-Bashforth for advection and
  Crank-Nicolson for diffusion, with the wall vorticity of each nonzero
  mode closed by an influence-matrix condition that enforces the discrete
  no-slip constraint exactly.
* inviscid ("euler"): impermeable wall and top, tangential slip;
  Adams-Bashforth transport of vorticity.

One time loop (`_outputs`) serves both; each scheme supplies only its wall
closure.  The loop carries the vorticity as its rfft along x1, so a step
makes five FFTs.

Velocity is reconstructed from vorticity through banded streamfunction
solves, so the discrete divergence vanishes by construction.  Each banded
operator (streamfunction, and Crank-Nicolson per (nu, dt)) is one Dirichlet
tridiagonal stack over the Fourier modes, from one builder, LU-factored once
by zgttrf; every mode is then solved in a single zgttrs call.  The mean
mode's Neumann wall row is eliminated when its operator is built and its
wall value recovered after each solve.  The first factorization loads
scipy's f2py LAPACK extension (`_lapack`) and not the `scipy.linalg`
package, so no command imports `scipy.linalg`, and one that steps no solver
imports no scipy module at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _apply_d1,
    _d2_interior,
    _in_section,
    _wall_d1,
    curl2d,
    make_channel_grid,
)
from .initial_data import build_initial_data

__all__ = [
    "CFLError",
    "FlowState",
    "Trajectory",
    "PairedRun",
    "SimulationConfig",
    "NavierStokesIntegrator",
    "EulerIntegrator",
    "kinetic_energy",
    "ShearFlow",
    "run_simulation",
]

CFL_SAFETY = 0.4


class CFLError(RuntimeError):
    """Raised when the fixed step exceeds the advective CFL limit."""


@dataclass(frozen=True, eq=False)
class FlowState:
    """One velocity/vorticity snapshot; wall conditions hold exactly.

    `velocity` is given either as a field or as a reader, a callable
    `read(check)` that returns the field after calling `check` on it (a
    loaded snapshot's, which reads its payload and names its file in any
    error).  A reader runs on the first access of `velocity`, and the field
    it returns is kept; every velocity meets the same grid and wall checks
    before it is used.

    `vorticity` is either a stored field (the steppers' omega is stepped,
    not the curl of their velocity) or None, which stands for the curl of
    the velocity: `curl2d` computes it on the first read of `vorticity`, and
    the field is kept; `_vorticity_rows` reads the wall rows without
    building it.
    """

    grid: Grid
    t: float
    nu: float
    velocity: VectorField
    vorticity: ScalarField | None

    def __post_init__(self):
        # until their first read, the reader's velocity and the derived
        # vorticity resolve through __getattr__
        if callable(self.velocity):
            object.__setattr__(self, "_read", vars(self).pop("velocity"))
        else:
            self._check_velocity(self.velocity)
        if self.vorticity is None:
            del vars(self)["vorticity"]
        elif self.vorticity.grid is not self.grid:
            raise ValueError("state fields must live on the state grid")

    def __getattr__(self, name):
        known = vars(self)
        if name == "velocity" and "_read" in known:
            value = known["_read"](self._check_velocity)
        elif name == "vorticity":  # None at construction
            value = curl2d(self.velocity)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def _check_velocity(self, velocity: VectorField) -> None:
        if velocity.grid is not self.grid:
            raise ValueError("state fields must live on the state grid")
        _check_walls(velocity, no_slip=self.nu > 0.0)

    def _vorticity_rows(self, m: int) -> np.ndarray:
        """The first m wall-normal rows of the vorticity, (nx, m): a slice of
        the field when it is stored or derived, else derived for those rows
        alone."""
        omega = vars(self).get("vorticity")
        if omega is None:
            return curl2d(self.velocity, rows=m)
        return omega.values[:, :m]


def _check_walls(velocity: VectorField, no_slip: bool) -> None:
    """Raise ValueError unless the velocity meets the wall conditions."""
    if velocity.comp2[:, 0].any() or velocity.comp2[:, -1].any():
        raise ValueError("wall-normal velocity must vanish exactly at walls")
    if no_slip and velocity.comp1[:, 0].any():
        raise ValueError("no-slip wall requires comp1 = 0 at x2 = 0")


@dataclass(frozen=True)
class Trajectory:
    """The output states of one run, in time order, on one grid.

    `states` is a sequence: a tuple for a stepped run, or a loaded run's
    snapshots (`snapshots.load_trajectory`), which hold one state at a time.
    The checks here read only each state's grid, time and nu, so they read
    no snapshot payload; `times` returns the times they checked.
    """

    grid: Grid
    scheme: str
    nu: float
    dt: float
    states: Sequence

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        ts = []
        for s in self.states:
            if s.grid is not self.grid:
                raise ValueError("all states must share the trajectory grid")
            if s.nu != self.nu:
                raise ValueError(f"a state's nu {s.nu!r} is not the trajectory's {self.nu!r}")
            ts.append(s.t)
        if not (np.isfinite(ts).all() and all(a < b for a, b in zip(ts, ts[1:]))):
            raise ValueError("state times must be finite and increase strictly")
        object.__setattr__(self, "_times", tuple(ts))

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times)


@dataclass(frozen=True)
class PairedRun:
    """Viscous and inviscid runs from identical initial data."""

    ns: Trajectory
    euler: Trajectory


def kinetic_energy(vel: VectorField) -> float:
    """0.5 * the quadrature of |u|^2.  Kept public for the bench, whose
    energy fingerprint reads it."""
    return 0.5 * float(np.sum(vel.grid.quad_weights * (vel.comp1**2 + vel.comp2**2)))


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension, `scipy.linalg._flapack`, loaded by the
    first factorization or solve without the `scipy.linalg` package (about
    300 more modules and 25 MB).  Its routines are the objects that
    `scipy.linalg.lapack` re-exports, and it is registered under its own
    name, so a later `import scipy.linalg` reuses this module rather than
    loading it again."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    where = f"{scipy.__path__[0]}/linalg"
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"no _flapack extension module in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _check_info(info, routine):
    if info > 0:
        # numpy's class, which scipy.linalg re-exports as its own
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _factor_tridiagonal(ab):
    """LU-factor a (3, modes, ny) tridiagonal stack with zgttrf, as one
    block-diagonal matrix: rows super, diagonal and sub-diagonal, laid out
    (row, mode, ny).  Flattened, the unused corners of each mode's band are
    the couplings between blocks, which are zero, so partial pivoting never
    crosses a block boundary."""
    up, di, lo = _finite(ab).astype(complex).reshape(3, -1)
    *lu, info = _lapack().zgttrf(lo[:-1], di, up[1:])
    _check_info(info, "zgttrf")
    return lu


def _solve_tridiagonal(lu, rhs):
    """Solve every block of a `_factor_tridiagonal` factorization in one
    zgttrs call; `rhs` is a complex (modes, ny) array."""
    x, info = _lapack().zgttrs(*lu, rhs.reshape(-1, 1))
    _check_info(info, "zgttrs")
    return x.reshape(rhs.shape)


class _ChannelOperators:
    """Grid-bound spectral/banded machinery shared by both schemes."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nx = grid.nx
        self.nk = nx // 2 + 1
        k = grid.wavenumbers()
        self.k = k
        self.ik = grid._ik
        self.dealias = np.arange(self.nk) <= nx // 3
        self.d1 = grid._d1
        self.d1_bottom = self.d1[3]
        self.d2 = _d2_interior(grid.y)
        self.dy = np.diff(grid.y)
        self.poisson_lu = _factor_tridiagonal(self.band(k[1:], 0.0, 1.0))

    def band(self, k, shift, scale):
        """The tridiagonal stack of shift + scale (d2/dy2 - k^2), one mode per
        wavenumber of `k`, with Dirichlet rows 1.0 at the wall and the top."""
        d2lo, d2di, d2up = self.d2
        ab = np.zeros((3, k.size, self.grid.ny))
        ab[1, :, 0] = 1.0
        ab[1, :, -1] = 1.0
        ab[2, :, 0:-2] = scale * d2lo
        ab[1, :, 1:-1] = shift + scale * (d2di - k[:, None] ** 2)
        ab[0, :, 2:] = scale * d2up
        return ab

    def apply_d2_interior(self, vals):
        lo, di, up = self.d2
        out = np.zeros_like(vals)
        out[:, 1:-1] = lo * vals[:, :-2] + di * vals[:, 1:-1] + up * vals[:, 2:]
        return out

    def poisson_modes(self, rhs):
        """(d2/dy2 - k^2) x = rhs for the modes >= 1, x = 0 at wall and top.

        `rhs` is a complex (nk - 1, ny) array; its wall and top rows are
        overwritten.
        """
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
        return _solve_tridiagonal(self.poisson_lu, rhs)

    def solve_poisson(self, omega_hat):
        """(d2/dy2 - k^2) psi_hat = -omega_hat, psi_hat = 0 at wall and top."""
        psi = np.zeros_like(omega_hat)
        psi[1:] = self.poisson_modes(-omega_hat[1:])
        return psi

    def velocity_from_omega_hat(self, omega_hat, psi_hat, wall_mean, slip):
        nx = self.grid.nx
        u1_hat = _apply_d1(self.d1, psi_hat)
        u2_hat = -self.ik[:, None] * psi_hat
        # mean tangential profile: wall_mean - trapezoidal x2-integral of mean omega
        mean_omega = omega_hat[0].real / nx
        cum = np.zeros_like(mean_omega)
        np.cumsum(0.5 * (mean_omega[1:] + mean_omega[:-1]) * self.dy, out=cum[1:])
        u1_hat[0, :] = nx * (wall_mean - cum)
        u2_hat[0, :] = 0.0
        u1 = np.fft.irfft(u1_hat, n=nx, axis=0)
        u2 = np.fft.irfft(u2_hat, n=nx, axis=0)
        if not slip:
            u1[:, 0] = 0.0
        u2[:, 0] = 0.0
        u2[:, -1] = 0.0
        return u1, u2

    def advection(self, u1, u2, omega_hat):
        """rfft along x1 of the transport term u . grad(omega), 2/3-rule
        dealiased.  Both derivatives are taken on `omega_hat` and brought to
        physical space (two irffts); their product with u is transformed
        once."""
        nx = self.grid.nx
        om_x = np.fft.irfft(self.ik[:, None] * omega_hat, n=nx, axis=0)
        om_y = np.fft.irfft(_apply_d1(self.d1, omega_hat), n=nx, axis=0)
        n_hat = np.fft.rfft(u1 * om_x + u2 * om_y, axis=0)
        n_hat[~self.dealias] = 0.0
        return n_hat

    def check_cfl(self, u1, u2, dt):
        vmax1 = float(np.max(np.abs(u1)))
        vmax2 = float(np.max(np.abs(u2)))
        limit = CFL_SAFETY * min(
            self.grid.dx / vmax1 if vmax1 > 0.0 else np.inf,
            self.grid.dy_min / vmax2 if vmax2 > 0.0 else np.inf,
        )
        if dt > limit:
            raise CFLError(
                f"dt = {dt!r} exceeds advective limit {limit!r} "
                f"(|u1| = {vmax1:.3g}, |u2| = {vmax2:.3g})"
            )


class _ImplicitDiffusion:
    """Crank-Nicolson operators for one (nu, dt) pair, with the wall
    closure of each nonzero mode precomputed (influence responses)."""

    def __init__(self, ops: _ChannelOperators, nu: float, dt: float):
        self.ops = ops
        self.nu = nu
        self.dt = dt
        # I - c (d2/dy2 - k^2); top: omega = 0, wall: a Dirichlet placeholder
        # for the closure of the modes >= 1
        ab = ops.band(ops.k, 1.0, -0.5 * nu * dt)
        # Mean-mode wall row: d(omega)/dy = 0, eliminated from the row below
        # (pivot b0), so the stack stays tridiagonal; `advance` recovers the
        # wall value.
        b0, b1, b2 = ops.d1_bottom
        lead = ab[2, 0, 0] / b0
        ab[1, 0, 1] -= lead * b1
        ab[0, 0, 2] -= lead * b2
        ab[2, 0, 0] = 0.0
        self.lu = _factor_tridiagonal(ab)
        # Influence responses: wall-unit vorticity per mode >= 1 (the zero
        # imaginary parts do not touch the real ones; copied out so that
        # `advance`'s closure reads a contiguous array), and its
        # streamfunction wall-flux
        e0 = np.zeros((ops.nk, ops.grid.ny), dtype=complex)
        e0[:, 0] = 1.0
        self.omega_h = _solve_tridiagonal(self.lu, e0)[1:].real.copy()
        self.psi_h = ops.poisson_modes(-self.omega_h.astype(complex)).real
        self.slope_h = _wall_d1(ops.d1, self.psi_h)

    def advance(self, omega_hat, adv_hat):
        """One CN step: returns (omega_hat_new, psi_hat_new)."""
        ops = self.ops
        c = 0.5 * self.nu * self.dt
        d2 = ops.apply_d2_interior(omega_hat)
        rhs = (
            omega_hat
            - self.dt * adv_hat
            + c * (d2 - (ops.k**2)[:, None] * omega_hat)
        )
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
        out = _solve_tridiagonal(self.lu, rhs)
        out[0, 0] = -_wall_d1(ops.d1, out[0]) / ops.d1_bottom[0]
        psi = np.zeros_like(omega_hat)
        wp = out[1:]
        pp = ops.poisson_modes(-wp)
        coef = (-_wall_d1(ops.d1, pp) / self.slope_h)[:, None]
        psi[1:] = pp + coef * self.psi_h
        out[1:] = wp + coef * self.omega_h
        return out, psi


def _state(grid, t, nu, u1, u2, omega) -> FlowState:
    return FlowState(
        grid=grid,
        t=float(t),
        nu=float(nu),
        velocity=VectorField(grid, u1, u2),
        vorticity=ScalarField(grid, omega),
    )


def _check_finite(omega_hat, t):
    if not np.all(np.isfinite(omega_hat)):
        raise RuntimeError(f"solution lost finiteness near t = {t!r}")


def _step_count(dt: float, t_final: float, n_outputs: int) -> int:
    """The number of steps of size dt to t_final.  Raises ValueError unless
    dt and t_final are finite and positive, t_final is a whole number (>= 1)
    of steps, and n_outputs divides that number."""
    if not (0.0 < dt < np.inf and 0.0 < t_final < np.inf):
        raise ValueError("dt and t_final must be finite and positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps of dt")
    if n_outputs < 1 or n_steps % n_outputs != 0:
        raise ValueError("n_outputs must divide t_final/dt")
    return n_steps


def _march(integ, u0: VectorField, t_final: float, n_outputs: int) -> Trajectory:
    """The trajectory of `_outputs`' states."""
    return Trajectory(grid=integ.grid, scheme=integ.scheme, nu=integ.nu, dt=integ.dt,
                      states=tuple(_outputs(integ, u0, t_final, n_outputs)))


def _outputs(integ, u0: VectorField, t_final: float, n_outputs: int):
    """Yield the output states, from t = 0, of the AB2 loop both schemes share.

    The state is omega_hat, the rfft of omega along x1, and the transport
    term is combined in that space too; omega is transformed back only for
    the output states.  A steady step thus makes five FFTs: one rfft and two
    irffts in `advection`, and two irffts for the velocity.

    `integ._advance(omega_hat, adv_hat, h)` steps omega_hat over h under the
    transport term `adv_hat` and returns (omega_hat_new, psi_hat), where
    psi_hat is its streamfunction; `integ.slip` picks the wall condition of
    the velocity.  A NaN passes through the solves, and `_check_finite`, the
    loop's only finiteness check, raises before anything is built from it.
    """
    grid, ops, dt, nu = integ.grid, integ.ops, integ.dt, integ.nu
    n_steps = _step_count(dt, t_final, n_outputs)
    every = n_steps // n_outputs
    # The x1-averaged tangential wall velocity is conserved by the inviscid
    # dynamics; it anchors the mean-mode reconstruction.
    wall_mean = float(np.mean(u0.comp1[:, 0])) if integ.slip else 0.0

    def project(omega_hat, psi_hat):
        return ops.velocity_from_omega_hat(omega_hat, psi_hat, wall_mean, integ.slip)

    # Project the initial data through the same omega -> psi -> velocity
    # reconstruction used for every later output, so all states live in one
    # discrete representation.
    omega = curl2d(u0).values
    omega_hat = np.fft.rfft(omega, axis=0)
    u1, u2 = project(omega_hat, ops.solve_poisson(omega_hat))
    yield _state(grid, 0.0, nu, u1, u2, omega)
    n_prev = None
    for n in range(1, n_steps + 1):
        ops.check_cfl(u1, u2, dt)
        n_cur = ops.advection(u1, u2, omega_hat)
        if n_prev is None:
            # bootstrap: midpoint rule (half step, re-evaluate, full step)
            oh_half, psi_half = integ._advance(omega_hat, n_cur, 0.5 * dt)
            adv = ops.advection(*project(oh_half, psi_half), oh_half)
            del oh_half, psi_half  # held to the run's end, they raise its peak RSS
        else:
            adv = 1.5 * n_cur - 0.5 * n_prev
        n_prev = n_cur
        omega_hat, psi_hat = integ._advance(omega_hat, adv, dt)
        _check_finite(omega_hat, n * dt)
        u1, u2 = project(omega_hat, psi_hat)
        if n % every == 0:
            omega = np.fft.irfft(omega_hat, n=grid.nx, axis=0)
            yield _state(grid, n * dt, nu, u1, u2, omega)


class NavierStokesIntegrator:
    """No-slip channel scheme at fixed (grid, nu, dt)."""

    scheme = "ns"
    slip = False

    def __init__(self, grid: Grid, nu: float, dt: float):
        if not 0.0 < nu < np.inf:
            raise ValueError("nu must be positive and finite")
        if not 0.0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        self.grid = grid
        self.nu = nu
        self.dt = dt
        self.ops = _ChannelOperators(grid)
        self.full = _ImplicitDiffusion(self.ops, nu, dt)
        self.half = _ImplicitDiffusion(self.ops, nu, 0.5 * dt)

    def run(self, u0: VectorField, t_final: float, n_outputs: int) -> Trajectory:
        return _march(self, u0, t_final, n_outputs)

    def _advance(self, omega_hat, adv_hat, h):
        """Crank-Nicolson over h with the influence-matrix wall closure."""
        return (self.full if h == self.dt else self.half).advance(omega_hat, adv_hat)


class EulerIntegrator:
    """Slip-wall transport scheme at fixed (grid, dt)."""

    scheme = "euler"
    slip = True
    nu = 0.0

    def __init__(self, grid: Grid, dt: float):
        if not 0.0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        self.grid = grid
        self.dt = dt
        self.ops = _ChannelOperators(grid)

    def run(self, u0: VectorField, t_final: float, n_outputs: int) -> Trajectory:
        return _march(self, u0, t_final, n_outputs)

    def _advance(self, omega_hat, adv_hat, h):
        """Explicit transport over h."""
        omega_hat = omega_hat - h * adv_hat
        return omega_hat, self.ops.solve_poisson(omega_hat)


# ---------------------------------------------------------------------------
# Exact shear solution


def _sine_coefficients(v0, height, n_modes):
    """The first n = `n_modes` sine coefficients of the profile `v0` on
    (0, height): the type-4 DST of its midpoint samples x_k, over n (exact
    for band-limited profiles).  As lam_m y_k = pi (2m+1)(2k+1) / 4n, b_m
    is 16 Im of entry 2m+1 of the 8n-point inverse FFT of x at entries 2k+1."""
    n = int(n_modes)
    z = np.zeros(8 * n, dtype=complex)
    z[1:2 * n:2] = v0((np.arange(n) + 0.5) * (height / n))
    return 16.0 * np.fft.ifft(z)[1:2 * n:2].imag


def _checked(nu, t, y=()):
    """y and the times t as 1-D float arrays, checked for the heat flow:
    each a scalar or 1-D and finite, t non-negative, nu non-negative and
    finite; a ValueError names the argument at fault."""
    y, ts = np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    for name, values in (("y", y), ("t", ts)):
        if values.ndim > 1:
            raise ValueError(f"{name} must be a scalar or 1-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if (ts < 0.0).any():
        raise ValueError("t must be non-negative")
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"nu must be non-negative and finite, got {nu!r}")
    return np.atleast_1d(y), np.atleast_1d(ts)


_math_erfc = np.frompyfunc(math.erfc, 1, 1)  # scipy-free


def _erfc(x):
    """math.erfc of each element of the array x.  math.erfc is exactly 0.0
    for x >= 28 and exactly 2.0 for x <= -6: fdlibm's erfc (glibc's) returns
    those by explicit branches, and they are the correctly rounded values.
    So math.erfc runs only on the rest, which holds any NaN."""
    low = x <= -6.0
    out = np.where(low, 2.0, 0.0)
    rest = ~(low | (x >= 28.0))
    out[rest] = _math_erfc(x[rest])
    return out


def _gauss_mass(a, b, mean, sigma):
    """The mass on (a, b) of the density exp(-((z - mean)/sigma)^2) / (sqrt(pi)
    sigma): erfc on the side of the midpoint away from the mean, never near 2."""
    lo, hi = (a - mean) / sigma, (b - mean) / sigma
    side = np.where(lo + hi < 0.0, -1.0, 1.0)
    return 0.5 * side * (_erfc(side * lo) - _erfc(side * hi))


def _heat_flow(pieces, y, nu, times):
    """The heat flow on the line of data c + d e^(k z) on each piece
    (a, b, c, d, k), and its slope, each as (rows of y, times).  With sigma
    = 2 sqrt(nu t), a piece adds c times the mass on (a, b) of the density
    about y, plus d e^(k y + k^2 nu t) times that about y + 2 k nu t; to the
    slope, k times the latter, plus the data at a times the density about y
    at a, minus the same at b (Carslaw & Jaeger, Conduction of Heat in
    Solids, 1959, ch. 2).  At t = 0 each row takes the data of the piece
    with a < y <= b."""
    y, ts = _checked(nu, times, y)
    y, tau = y[:, None], nu * ts
    now = tau > 0.0
    tau, sigma = tau[now], 2.0 * np.sqrt(tau[now])
    w, dw = np.zeros((2, y.size, now.size))
    for a, b, c, d, k in pieces:
        tilted = d * np.exp(k * y + k * k * tau) * _gauss_mass(a, b, y + 2.0 * k * tau, sigma)
        w[:, now] += c * _gauss_mass(a, b, y, sigma) + tilted
        dw[:, now] += k * tilted + sum(
            sign * (c + d * np.exp(k * z)) * np.exp(-((y - z) / sigma) ** 2)
            for sign, z in ((1.0, a), (-1.0, b))) / (np.sqrt(np.pi) * sigma)
        inside = (a < y) & (y <= b)
        w[:, ~now] += np.where(inside, c + d * np.exp(k * y), 0.0)
        dw[:, ~now] += np.where(inside, d * k * np.exp(k * y), 0.0)
    return w, dw


class ShearFlow:
    """Parallel shear flow (w(x2, t), 0) by mixed sine eigenseries.

    The profile solves the heat equation with w = 0 at the wall and
    dw/dx2 = 0 at the top, matching the channel scheme's wall/top
    conditions; eigenmodes are sin(lam_m x2), lam_m = (m + 1/2) pi / Ly,
    and `coeffs` are the profile's coefficients on them at t = 0.
    `profile` and `dprofile` take a scalar time, which gives the 1-D
    profile on `y`, or a 1-D array of times, which gives one column per
    time.
    """

    def __init__(self, coeffs, height=1.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if not (self.coeffs.ndim == 1 and self.coeffs.size
                and np.isfinite(self.coeffs).all()):
            raise ValueError("coeffs must be a non-empty, finite 1-D array")
        self.height = float(height)
        if not 0.0 < self.height < np.inf:
            raise ValueError(f"height must be positive and finite, got {height!r}")
        self.lam = (np.arange(self.coeffs.size) + 0.5) * np.pi / self.height

    def _series(self, y, nu, t, derivative):
        """sum_m sin(lam_m y) coeffs_m e^(-nu lam_m^2 t) at each y and each
        time of `t`, or its y-derivative (cos, and a factor lam_m)."""
        y, ts = _checked(nu, t, y)
        weights = self.coeffs[:, None] * np.exp(np.multiply.outer(-nu * self.lam**2, ts))
        basis, scale = (np.cos, self.lam[:, None]) if derivative else (np.sin, 1.0)
        out = basis(np.multiply.outer(y, self.lam)) @ (scale * weights)
        return out if np.ndim(t) else out[:, 0]

    def profile(self, y, nu, t):
        return self._series(y, nu, t, derivative=False)

    def dprofile(self, y, nu, t):
        return self._series(y, nu, t, derivative=True)

    def l2_error_sq(self, nu, t):
        """||w(., t) - w(., 0)||^2 on (0, Ly), per unit x1 length (exact
        in the truncated series by eigenmode orthogonality): a float for a
        scalar t, one value per time for a 1-D array, each the same bits as
        the scalar call (a row per time, summed along the modes)."""
        _, ts = _checked(nu, t)
        gap = self.coeffs * (1.0 - np.exp(np.multiply.outer(ts, -nu * self.lam**2)))
        out = 0.5 * self.height * np.sum(gap**2, axis=1)
        return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# Paired runs


@dataclass
class _RunFields:
    """The fields of a paired run that do not depend on nu: grid, time
    partition and initial data.  A single run adds nu (SimulationConfig), a
    sweep its nu list and criteria (harness.SweepConfig)."""

    nx: int = 128
    ny: int = 193
    period: float = 2.0 * np.pi
    height: float = 6.0
    clustering: str = "tanh"
    strength: float = 2.0
    dt: float = 2e-3
    t_final: float = 0.5
    n_outputs: int = 10
    preset: str = "shear"
    amplitude: float = 1.0
    seed: int = 0
    preset_options: dict = field(default_factory=dict)


@dataclass
class SimulationConfig(_RunFields):
    """One paired (viscous, inviscid) run specification."""

    nu: float = 1e-3


def _initial_velocity(config: _RunFields) -> VectorField:
    """`config`'s initial velocity on its grid.  Every rule that joins run
    fields is checked here, each ValueError naming its config section: the
    grid, the time partition, and the preset data with both wall conditions
    (no-slip and impermeability), so the two runs genuinely share them."""
    with _in_section("[grid]"):
        grid = make_channel_grid(config.nx, config.ny, config.period, config.height,
                                 clustering=config.clustering, strength=config.strength)
    with _in_section("[time]"):
        _step_count(config.dt, config.t_final, config.n_outputs)
    with _in_section("[data]"):
        u0 = build_initial_data(config.preset, grid, amplitude=config.amplitude,
                                seed=config.seed, **config.preset_options)
    with _in_section(f"[data] preset = {config.preset}:"):
        _check_walls(u0, no_slip=True)
    return u0


def _pairer(config: _RunFields):
    """`pair(nu)`: what `run_simulation` of `config` at nu returns or raises.

    One `_initial_velocity` serves every call; nu's own rule is
    NavierStokesIntegrator's.  The Euler run has no nu in it, so it is
    stepped once, after the first Navier-Stokes run that succeeds, and
    paired with every NS run; if it fails, each NS run that succeeds raises
    its exception.  The closure keeps no NS run, so the caller alone decides
    when a pair is freed.
    """
    u0 = euler = failure = None

    def pair(nu) -> PairedRun:
        nonlocal u0, euler, failure
        if u0 is None:
            u0 = _initial_velocity(config)
        ns = NavierStokesIntegrator(u0.grid, nu, config.dt).run(
            u0, config.t_final, config.n_outputs)
        if euler is None and failure is None:
            try:
                euler = EulerIntegrator(u0.grid, config.dt).run(
                    u0, config.t_final, config.n_outputs)
            except Exception as exc:  # noqa: BLE001 - raised after each NS run
                failure = exc
        if failure is not None:
            del ns  # the kept exception's traceback holds this frame
            raise failure
        return PairedRun(ns=ns, euler=euler)

    return pair


def run_simulation(config: SimulationConfig) -> PairedRun:
    """Run the viscous and inviscid schemes from identical initial data.

    A config that breaks a grid, time or data rule raises the ValueError
    of `_initial_velocity`, which names the config section at fault.
    """
    return _pairer(config)(config.nu)
