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

One time loop (`_march`) serves both; each scheme supplies only its wall
closure.  The loop carries the vorticity as its rfft along x1, so a step
makes five FFTs.

Velocity is reconstructed from vorticity through banded streamfunction
solves, so the discrete divergence vanishes by construction.  Each banded
operator (streamfunction, and Crank-Nicolson per (nu, dt)) is stacked over
the Fourier modes as one block-diagonal band and LU-factored once; every
mode is then solved in a single LAPACK call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, zgbtrf, zgbtrs, zgttrs

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
    "shear_exact",
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

    `vorticity` is given either as a stored field (the steppers' omega is
    stepped, not the curl of their velocity) or as its derivation from the
    velocity, a callable `f(velocity, rows=None)` such as `curl2d`.  A
    derived field is computed on the first read of `vorticity` and kept;
    `_vorticity_rows` reads the wall rows without building it.
    """

    grid: Grid
    t: float
    nu: float
    velocity: VectorField
    vorticity: ScalarField

    def __post_init__(self):
        # until their first read, callable fields resolve through __getattr__
        if callable(self.velocity):
            object.__setattr__(self, "_read", vars(self).pop("velocity"))
        else:
            self._check_velocity(self.velocity)
        if callable(self.vorticity):
            object.__setattr__(self, "_derive", vars(self).pop("vorticity"))
        elif self.vorticity.grid is not self.grid:
            raise ValueError("state fields must live on the state grid")

    def __getattr__(self, name):
        known = vars(self)
        if name == "velocity" and "_read" in known:
            value = known["_read"](self._check_velocity)
        elif name == "vorticity" and "_derive" in known:
            value = known["_derive"](self.velocity)
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
            return self._derive(self.velocity, rows=m)
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
    The checks here read only each state's grid and time, so they read no
    snapshot payload; `times` returns the times they checked.
    """

    grid: Grid
    scheme: str
    nu: float
    dt: float
    states: Sequence
    step_energies: tuple | None = None

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        ts = []
        for s in self.states:
            if s.grid is not self.grid:
                raise ValueError("all states must share the trajectory grid")
            ts.append(s.t)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("state times must increase strictly")
        object.__setattr__(self, "_times", tuple(ts))

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times)


@dataclass(frozen=True)
class PairedRun:
    """Viscous and inviscid runs from identical initial data."""

    ns: Trajectory
    euler: Trajectory


def _energy(grid: Grid, u1, u2) -> float:
    return 0.5 * float(np.sum(grid.quad_weights * (u1**2 + u2**2)))


def kinetic_energy(vel: VectorField) -> float:
    return _energy(vel.grid, vel.comp1, vel.comp2)


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _check_info(info, routine):
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _factor_band(band):
    """LU-factor a (1, 2) band of shape (4, modes, ny) with ?gbtrf, as one
    block-diagonal matrix; its dtype picks the routine family the
    right-hand sides will be solved with."""
    ab = np.zeros((5, band.shape[1] * band.shape[2]), dtype=band.dtype)
    ab[1:] = _finite(band).reshape(4, -1)  # ?gbtrf needs kl fill-in rows on top
    trf = zgbtrf if np.iscomplexobj(ab) else dgbtrf
    lu, piv, info = trf(ab, 1, 2, overwrite_ab=1)
    _check_info(info, trf.__name__)
    return lu, piv


def _solve_band(lu, piv, rhs):
    """Solve every block of a `_factor_band` factorization in one ?gbtrs
    call; `rhs` is (modes, ny) in the factorization's dtype."""
    trs = zgbtrs if np.iscomplexobj(lu) else dgbtrs
    x, info = trs(lu, 1, 2, _finite(rhs).reshape(-1, 1), piv)
    _check_info(info, trs.__name__)
    return x.reshape(rhs.shape)


class _ChannelOperators:
    """Grid-bound spectral/banded machinery shared by both schemes."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        self.nk = nx // 2 + 1
        k = grid.wavenumbers()
        self.k = k
        self.ik = grid._ik
        self.dealias = np.arange(self.nk) <= nx // 3
        self.d1 = grid._d1
        self.d1_bottom = self.d1[3]
        self.d2 = _d2_interior(grid.y)
        self.dy = np.diff(grid.y)
        # Banded (1,1) streamfunction operators (d2/dy2 - k^2) with Dirichlet
        # rows for the modes >= 1, factored once as one ?gttrf stack.  Bands
        # are laid out (row, mode, ny): flattened, the unused corners of
        # each mode's band are the couplings between blocks, which are zero,
        # so partial pivoting never crosses a block boundary.
        d2lo, d2di, d2up = self.d2
        ab = np.zeros((3, self.nk - 1, ny))
        ab[1, :, 0] = 1.0
        ab[1, :, -1] = 1.0
        ab[2, :, 0:-2] = d2lo
        ab[1, :, 1:-1] = d2di - k[1:, None] ** 2
        ab[0, :, 2:] = d2up
        up, di, lo = _finite(ab).reshape(3, -1)
        *factors, ipiv, info = dgttrf(lo[:-1], di, up[1:])
        _check_info(info, "dgttrf")
        self.poisson_lu = (*(f.astype(complex) for f in factors), ipiv)

    def apply_d2_interior(self, vals):
        lo, di, up = self.d2
        out = np.zeros_like(vals)
        out[:, 1:-1] = lo * vals[:, :-2] + di * vals[:, 1:-1] + up * vals[:, 2:]
        return out

    def poisson_modes(self, rhs):
        """(d2/dy2 - k^2) x = rhs for the modes >= 1, x = 0 at wall and top.

        `rhs` is a complex (nk - 1, ny) array; its wall and top rows are
        overwritten.  Every mode goes to one zgttrs call on the complex-cast
        dgttrf factors, which rounds as the real solve of each part would.
        """
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
        x, info = zgttrs(*self.poisson_lu, _finite(rhs).reshape(-1, 1))
        _check_info(info, "zgttrs")
        return x.reshape(rhs.shape)

    def solve_poisson(self, omega_hat):
        """(d2/dy2 - k^2) psi_hat = -omega_hat, psi_hat = 0 at wall and top."""
        psi = np.zeros_like(omega_hat)
        psi[1:] = self.poisson_modes(-omega_hat[1:])
        return psi

    def cumtrapz_y(self, row):
        out = np.empty_like(row)
        out[0] = 0.0
        np.cumsum(0.5 * (row[1:] + row[:-1]) * self.dy, out=out[1:])
        return out

    def mean_mode_u1(self, omega_hat0, wall_mean):
        """Mean tangential profile from the mean vorticity row."""
        mean_omega = omega_hat0.real / self.grid.nx
        return wall_mean - self.cumtrapz_y(mean_omega)

    def velocity_from_omega_hat(self, omega_hat, wall_mean, slip, psi_hat=None):
        nx = self.grid.nx
        if psi_hat is None:
            psi_hat = self.solve_poisson(omega_hat)
        u1_hat = _apply_d1(self.d1, psi_hat)
        u2_hat = -self.ik[:, None] * psi_hat
        u1_hat[0, :] = nx * self.mean_mode_u1(omega_hat[0], wall_mean)
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
        ny = ops.grid.ny
        c = 0.5 * nu * dt
        d2lo, d2di, d2up = ops.d2
        ab = np.zeros((4, ops.nk, ny))  # (row, mode, ny), as the Poisson stack
        # interior rows: I - c (d2/dy2 - k^2)
        ab[3, :, 0:-2] = -c * d2lo
        ab[2, :, 1:-1] = 1.0 - c * d2di + c * ops.k[:, None] ** 2
        ab[1, :, 2:] = -c * d2up
        ab[2, :, -1] = 1.0  # top: omega = 0
        ab[2, 1:, 0] = 1.0  # wall: Dirichlet placeholder for the closure
        # wall: d(omega)/dy = 0 for the mean mode
        ab[2, 0, 0], ab[1, 0, 1], ab[0, 0, 2] = ops.d1_bottom
        # Complex right-hand sides are solved with the complex routines on
        # the complex-cast band (what ?gbsv did mode by mode): splitting
        # them into real columns changes the rounding.
        self.lu, self.piv = _factor_band(ab.astype(complex))
        # Influence responses: wall-unit vorticity per mode >= 1 from real
        # right-hand sides, and its streamfunction wall-flux (the zero
        # imaginary column does not touch the real one).
        e0 = np.zeros((ops.nk - 1, ny))
        e0[:, 0] = 1.0
        self.omega_h = _solve_band(*_factor_band(ab[:, 1:]), e0)
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
        out = _solve_band(self.lu, self.piv, rhs)
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


def _march(integ, u0: VectorField, t_final: float, n_outputs: int,
           track_energy: bool, wall_mean: float = 0.0) -> Trajectory:
    """The AB2 time loop both schemes share; `integ` brings the wall closure.

    The state is omega_hat, the rfft of omega along x1, and the transport
    term is combined in that space too; omega is transformed back only for
    the output states.  A steady step thus makes five FFTs: one rfft and two
    irffts in `advection`, and two irffts for the velocity.

    `integ._advance(omega_hat, adv_hat, h)` steps omega_hat over h under the
    transport term `adv_hat` and returns (omega_hat_new, psi_hat), where
    psi_hat is the streamfunction the step solved for, or None to have
    `project` solve for it; `integ.slip` and `wall_mean` pick the wall
    condition of the velocity.
    """
    grid, ops, dt, nu = integ.grid, integ.ops, integ.dt, integ.nu
    n_steps = _step_count(dt, t_final, n_outputs)
    every = n_steps // n_outputs

    def project(omega_hat, psi_hat):
        return ops.velocity_from_omega_hat(omega_hat, wall_mean, integ.slip, psi_hat)

    # Project the initial data through the same omega -> psi -> velocity
    # reconstruction used for every later output, so all states (and the
    # per-step energies) live in one discrete representation.
    omega = curl2d(u0).values
    omega_hat = np.fft.rfft(omega, axis=0)
    u1, u2 = project(omega_hat, None)
    states = [_state(grid, 0.0, nu, u1, u2, omega)]
    energies = [_energy(grid, u1, u2)] if track_energy else None
    n_prev = None
    for n in range(1, n_steps + 1):
        ops.check_cfl(u1, u2, dt)
        n_cur = ops.advection(u1, u2, omega_hat)
        if n_prev is None:
            # bootstrap: midpoint rule (half step, re-evaluate, full step)
            oh_half, psi_half = integ._advance(omega_hat, n_cur, 0.5 * dt)
            adv = ops.advection(*project(oh_half, psi_half), oh_half)
        else:
            adv = 1.5 * n_cur - 0.5 * n_prev
        n_prev = n_cur
        omega_hat, psi_hat = integ._advance(omega_hat, adv, dt)
        _check_finite(omega_hat, n * dt)
        u1, u2 = project(omega_hat, psi_hat)
        if track_energy:
            energies.append(_energy(grid, u1, u2))
        if n % every == 0:
            omega = np.fft.irfft(omega_hat, n=grid.nx, axis=0)
            states.append(_state(grid, n * dt, nu, u1, u2, omega))
    return Trajectory(
        grid=grid,
        scheme=integ.scheme,
        nu=nu,
        dt=dt,
        states=tuple(states),
        step_energies=None if energies is None else tuple(energies),
    )


class NavierStokesIntegrator:
    """No-slip channel scheme at fixed (grid, nu, dt)."""

    scheme = "ns"
    slip = False

    def __init__(self, grid: Grid, nu: float, dt: float):
        if not nu > 0.0:
            raise ValueError("nu must be positive")
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.nu = nu
        self.dt = dt
        self.ops = _ChannelOperators(grid)
        self.full = _ImplicitDiffusion(self.ops, nu, dt)
        self.half = _ImplicitDiffusion(self.ops, nu, 0.5 * dt)

    def run(self, u0: VectorField, t_final: float, n_outputs: int,
            track_energy: bool = False) -> Trajectory:
        return _march(self, u0, t_final, n_outputs, track_energy)

    def _advance(self, omega_hat, adv_hat, h):
        """Crank-Nicolson over h with the influence-matrix wall closure."""
        return (self.full if h == self.dt else self.half).advance(omega_hat, adv_hat)


class EulerIntegrator:
    """Slip-wall transport scheme at fixed (grid, dt)."""

    scheme = "euler"
    slip = True
    nu = 0.0

    def __init__(self, grid: Grid, dt: float):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = dt
        self.ops = _ChannelOperators(grid)

    def run(self, u0: VectorField, t_final: float, n_outputs: int,
            track_energy: bool = False) -> Trajectory:
        # The x1-averaged tangential wall velocity is conserved by the
        # inviscid dynamics; it anchors the mean-mode reconstruction.
        wall_mean = float(np.mean(u0.comp1[:, 0]))
        return _march(self, u0, t_final, n_outputs, track_energy, wall_mean)

    def _advance(self, omega_hat, adv_hat, h):
        """Explicit transport over h."""
        return omega_hat - h * adv_hat, None


# ---------------------------------------------------------------------------
# Exact shear solution


class ShearFlow:
    """Parallel shear flow (w(x2, t), 0) by mixed sine eigenseries.

    The profile solves the heat equation with w = 0 at the wall and
    dw/dx2 = 0 at the top, matching the channel scheme's wall/top
    conditions; eigenmodes are sin(lam_m x2), lam_m = (m + 1/2) pi / Ly.
    Coefficients of an arbitrary profile come from a type-4 discrete sine
    transform of midpoint samples (exact for band-limited profiles,
    aliasing-level error otherwise).

    `profile` and `dprofile` take a scalar time, which gives the 1-D
    profile on `y`, or a 1-D array of times, which gives one column per
    time.  Each call builds its (y, modes) sin or cos basis once and keeps
    none of it afterwards; every column is the same basis-vector product
    a scalar call makes, so both forms agree bit for bit.
    """

    def __init__(self, v0=None, height=1.0, n_modes=4096, coeffs=None):
        self.height = float(height)
        if coeffs is not None:
            b = np.asarray(coeffs, dtype=float)
        else:
            if v0 is None:
                raise ValueError("provide a profile callable or coefficients")
            from scipy.fft import dst

            n = int(n_modes)
            y_mid = (np.arange(n) + 0.5) * (self.height / n)
            b = dst(np.asarray(v0(y_mid), dtype=float), type=4) / n
        self.coeffs = b
        self.lam = (np.arange(b.size) + 0.5) * np.pi / self.height

    @classmethod
    def from_modes(cls, height, amplitudes: dict):
        """Exact finite series: {mode index m: amplitude}."""
        n = max(amplitudes) + 1
        b = np.zeros(n)
        for m, a in amplitudes.items():
            b[m] = a
        return cls(height=height, coeffs=b)

    def _decay(self, nu, t):
        return self.coeffs * np.exp(-nu * self.lam**2 * t)

    def _series(self, basis_fn, y, t, weights):
        """sum_m basis_fn(lam_m y) weights(t)_m at each time of `t`."""
        basis = np.outer(np.asarray(y, dtype=float), self.lam)
        basis_fn(basis, out=basis)
        ts = np.asarray(t, dtype=float)
        cols = [basis @ weights(float(ti)) for ti in ts.ravel()]
        return cols[0] if ts.ndim == 0 else np.stack(cols, axis=-1)

    def profile(self, y, nu, t):
        return self._series(np.sin, y, t, lambda ti: self._decay(nu, ti))

    def dprofile(self, y, nu, t):
        return self._series(
            np.cos, y, t, lambda ti: self.lam * self._decay(nu, ti)
        )

    def wall_vorticity(self, nu, t) -> float:
        """omega(x2 = 0, t) = -dw/dx2(0, t)."""
        return -float(np.sum(self.lam * self._decay(nu, t)))

    def l2_error_sq(self, nu, t) -> float:
        """||w(., t) - w(., 0)||^2 on (0, Ly), per unit x1 length (exact
        in the truncated series by eigenmode orthogonality)."""
        gap = self.coeffs * (1.0 - np.exp(-nu * self.lam**2 * t))
        return 0.5 * self.height * float(np.sum(gap**2))


def shear_exact(v0, nu: float, t: float, grid_y, n_modes: int = 4096) -> np.ndarray:
    """Exact shear profile w(grid_y, t) from initial profile v0 (v0(0) = 0)."""
    y = np.asarray(grid_y, dtype=float)
    if abs(float(np.asarray(v0(np.zeros(1))).ravel()[0])) > 1e-13:
        raise ValueError("shear profile must vanish at the wall")
    flow = ShearFlow(v0=v0, height=float(y[-1]), n_modes=n_modes)
    return flow.profile(y, nu, t)


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

    def validate(self):
        """Raise ValueError unless nu is positive and `_initial_velocity`
        accepts the config; returns self."""
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        _initial_velocity(self)
        return self


def _initial_velocity(config: _RunFields) -> VectorField:
    """`config`'s initial velocity on its grid.  Every rule that joins run
    fields is checked here, each ValueError naming its config section: the
    grid, the time partition, and the preset data with both wall conditions
    (no-slip and impermeability), so the two runs genuinely share them."""
    from .initial_data import build_initial_data

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


def _paired_runs(config_of, nu_values):
    """Yield, for each nu in turn, what `run_simulation(config_of(nu))`
    gives: its PairedRun, or the exception it raises.

    The configs may differ only in nu, so one `_initial_velocity` serves
    them all; nu's own rule is NavierStokesIntegrator's.  The Euler run has
    no nu in it, so it is stepped once, after the first Navier-Stokes run
    that succeeds, and paired with every NS run; if it fails, each NS run
    that succeeds gets its exception, as `run_simulation` would raise it.
    Nothing the generator holds outlives a yield, so the caller alone
    decides when a pair is freed.
    """
    u0 = euler = None
    for nu in nu_values:
        try:
            config = config_of(nu)
            if u0 is None:
                u0 = _initial_velocity(config)
            ns = NavierStokesIntegrator(u0.grid, config.nu, config.dt).run(
                u0, config.t_final, config.n_outputs
            )
            if euler is None:
                try:
                    euler = EulerIntegrator(u0.grid, config.dt).run(
                        u0, config.t_final, config.n_outputs
                    )
                except Exception as exc:  # noqa: BLE001 - raised after each NS run
                    euler = exc
            if isinstance(euler, Exception):
                raise euler
            outcome = PairedRun(ns=ns, euler=euler)
        except Exception as exc:  # noqa: BLE001 - handed to the caller, per nu
            outcome = exc
        ns = None
        yield outcome
        outcome = None


def run_simulation(config: SimulationConfig) -> PairedRun:
    """Run the viscous and inviscid schemes from identical initial data.

    A config that breaks a grid, time or data rule raises the ValueError
    of `_initial_velocity`, which names the config section at fault.
    """
    (outcome,) = _paired_runs(lambda nu: config, [config.nu])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
