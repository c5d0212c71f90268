"""Initial-data presets for the paired channel runs.

Every preset returns an analytic velocity field that satisfies both wall
condition sets exactly (no-slip for the viscous run, impermeability for
the inviscid run), so a single field can seed the pair.
"""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from .grid import Grid, VectorField, _in_section

__all__ = [
    "PRESETS",
    "shear_profile_exp",
    "adverse_shear_profile",
    "build_initial_data",
]


def shear_profile_exp(y, amplitude=1.0, scale=1.0):
    """Monotone shear -A(1 - e^{-x2/scale}): rest at the wall, uniform
    stream in the bulk, single-signed vorticity."""
    y = np.asarray(y, dtype=float)
    return -amplitude * (1.0 - np.exp(-y / scale))


def adverse_shear_profile(y, amplitude=1.0, scale=0.1):
    """Wall jet A (x2/scale) e^{1 - x2/scale}: rest at the wall, peak
    speed A at x2 = scale, strongly negative vorticity -A e/scale at the
    wall (useful for exercising criterion violations)."""
    y = np.asarray(y, dtype=float)
    return amplitude * (y / scale) * np.exp(1.0 - y / scale)


def _poly_window(y, height):
    """C^2 window 64 u^3 (1-u)^3: vanishes with two derivatives at both
    walls, peaks at 1 mid-channel."""
    u = np.asarray(y, dtype=float) / height
    return 64.0 * u**3 * (1.0 - u) ** 3


def _poly_window_d(y, height):
    u = np.asarray(y, dtype=float) / height
    return 64.0 * 3.0 * u**2 * (1.0 - u) ** 2 * (1.0 - 2.0 * u) / height


def _shear(grid, amplitude, seed, scale=1.0):
    v = shear_profile_exp(grid.y, amplitude, scale)
    u1 = np.broadcast_to(v, grid.shape).copy()
    return VectorField(grid, u1, np.zeros(grid.shape))


def _adverse_shear(grid, amplitude, seed, scale=0.1):
    v = adverse_shear_profile(grid.y, amplitude, scale)
    u1 = np.broadcast_to(v, grid.shape).copy()
    return VectorField(grid, u1, np.zeros(grid.shape))


def _perturbed_shear(grid, amplitude, seed, scale=1.0, epsilon=0.05, modes=3):
    """Shear plus the analytic curl of a windowed random-phase stream."""
    base = _shear(grid, amplitude, seed, scale=scale)
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.0, size=modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    x, y = grid.x, grid.y
    w = _poly_window(y, grid.height)
    dw = _poly_window_d(y, grid.height)
    u1 = base.comp1.copy()
    u2 = np.zeros(grid.shape)
    for k in range(1, modes + 1):
        kx = 2.0 * np.pi * k / grid.period
        phase = np.cos(kx * x + phases[k - 1])
        dphase = -kx * np.sin(kx * x + phases[k - 1])
        coef = epsilon * amps[k - 1] / k
        u1 += coef * phase[:, None] * dw[None, :]
        u2 -= coef * dphase[:, None] * w[None, :]
    return VectorField(grid, u1, u2)


def _vortex(grid, amplitude, seed, y0=None, sigma=None, x0=0.0):
    """Isolated patch: stream A P(x1) G(x2) W(x2) with periodic bump P,
    Gaussian G, and the polynomial wall window W; velocity is the
    analytic curl, normalized to peak speed = amplitude."""
    if y0 is None:
        y0 = 0.5 * grid.height
    if sigma is None:
        sigma = grid.height / 8.0
    kappa = (grid.period / (2.0 * np.pi * sigma)) ** 2
    x, y = grid.x, grid.y
    theta = 2.0 * np.pi * (x - x0) / grid.period
    p = np.exp(kappa * (np.cos(theta) - 1.0))
    dp = -kappa * (2.0 * np.pi / grid.period) * np.sin(theta) * p
    g = np.exp(-((y - y0) ** 2) / (2.0 * sigma**2))
    dg = -(y - y0) / sigma**2 * g
    w = _poly_window(y, grid.height)
    dw = _poly_window_d(y, grid.height)
    u1 = p[:, None] * (dg * w + g * dw)[None, :]
    u2 = -dp[:, None] * (g * w)[None, :]
    speed = np.sqrt(u1**2 + u2**2).max()
    if speed == 0.0:
        raise ValueError("degenerate vortex parameters")
    u1 *= amplitude / speed
    u2 *= amplitude / speed
    return VectorField(grid, u1, u2)


PRESETS = {
    "shear": _shear,
    "adverse-shear": _adverse_shear,
    "perturbed-shear": _perturbed_shear,
    "vortex": _vortex,
}


def _number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a number of `kind`; a bool is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value):
    """`value`, if it is a finite number: the rule of the amplitude and of
    every preset option without a range rule."""
    if not (_number(value) and np.isfinite(value)):
        raise ValueError("not a finite number")
    return value


def _seed(value):
    """`value`, if it is a non-negative integer: the rule of the seed,
    checked under every preset, whether it draws random numbers or not."""
    if not (_number(value, numbers.Integral) and value >= 0):
        raise ValueError("not a non-negative integer")
    return value


def _positive(value):
    """`value`, if it is a finite positive number: the rule of the scale and
    sigma options."""
    if not (_number(value) and _finite(value) > 0):
        raise ValueError("must be positive")
    return value


def _non_negative(value):
    """`value`, if it is a finite number >= 0: the rule of a stored run's nu."""
    if not (_number(value) and _finite(value) >= 0):
        raise ValueError("must be a non-negative number")
    return value


def _positive_integer(value):
    """`value`, if it is a positive integer: the rule of the modes option."""
    if not (_number(value, numbers.Integral) and value > 0):
        raise ValueError("must be a positive integer")
    return value


# The range rule of each preset option that has one, under every preset
# that takes it; any other numeric option need only be finite.
_OPTION_RULES = {"scale": _positive, "sigma": _positive, "modes": _positive_integer}


def build_initial_data(preset: str, grid: Grid, amplitude: float = 1.0,
                       seed: int = 0, **options) -> VectorField:
    """`preset`'s velocity on `grid`; `options` are the preset's own keyword
    parameters.  Each ValueError names the argument at fault, as in
    `seed = -1: not a non-negative integer` or `preset = vortex: ...`."""
    for key, value, rule in (("amplitude", amplitude, _finite), ("seed", seed, _seed)):
        with _in_section(f"{key} = {value}:"):
            rule(value)
    with _in_section(f"preset = {preset}:"):
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        builder = PRESETS[preset]
        # every builder is called as builder(grid, amplitude, seed, **options)
        takes = sorted(list(inspect.signature(builder).parameters)[3:])
        for key in options:
            if key not in takes:
                raise ValueError(f"unknown option {key!r}; it takes {takes}")
    for key, value in options.items():
        with _in_section(f"{key} = {value}:"):
            _OPTION_RULES.get(key, _finite)(value)
    with _in_section(f"preset = {preset}:"):
        return builder(grid, amplitude, seed, **options)
