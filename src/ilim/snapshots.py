"""Binary snapshot format and on-disk trajectories.

A snapshot file is: an 8-byte magic "ILIM1\\x00\\x00\\x00", little-endian
u64 nx, ny, little-endian f64 Lx, Ly, t, nu, then the two velocity
components as row-major little-endian f64 arrays (u1 then u2).  Values
round-trip bit-exactly.

A trajectory directory holds numbered snapshot files plus a manifest.json
describing the grid, the scheme, and the output times.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, VectorField, curl2d, make_channel_grid

__all__ = [
    "MAGIC",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
    "save_trajectory",
    "load_trajectory",
]

MAGIC = b"ILIM1\x00\x00\x00"
_HEADER = struct.Struct("<8sQQdddd")


@dataclass(frozen=True)
class Snapshot:
    nx: int
    ny: int
    period: float
    height: float
    t: float
    nu: float
    u1: np.ndarray
    u2: np.ndarray


def write_snapshot(path, grid: Grid, t: float, nu: float, u1, u2) -> None:
    """Write one velocity snapshot in the ILIM1 layout."""
    u1 = np.asarray(u1, dtype="<f8")
    u2 = np.asarray(u2, dtype="<f8")
    if u1.shape != grid.shape or u2.shape != grid.shape:
        raise ValueError("velocity arrays must match the grid shape")
    header = _HEADER.pack(
        MAGIC, grid.nx, grid.ny, grid.period, grid.height, float(t), float(nu)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u1).tobytes())
        fh.write(np.ascontiguousarray(u2).tobytes())


def read_snapshot(path) -> Snapshot:
    """Read an ILIM1 snapshot, rejecting bad magic or truncated payloads."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, nx, ny, period, height, t, nu = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    n = int(nx) * int(ny)
    expected = _HEADER.size + 2 * 8 * n
    if len(raw) != expected:
        raise ValueError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f8", count=2 * n, offset=_HEADER.size)
    u1 = flat[:n].reshape(nx, ny).copy()
    u2 = flat[n:].reshape(nx, ny).copy()
    return Snapshot(int(nx), int(ny), period, height, t, nu, u1, u2)


def save_trajectory(traj, directory) -> None:
    """Write a trajectory as numbered ILIM1 snapshots plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, state in enumerate(traj.states):
        name = f"snap_{i:04d}.bin"
        write_snapshot(
            directory / name,
            traj.grid,
            state.t,
            state.nu,
            state.velocity.comp1,
            state.velocity.comp2,
        )
        names.append(name)
    manifest = {
        "format": "ILIM1",
        "scheme": traj.scheme,
        "nu": traj.nu,
        "dt": traj.dt,
        "times": [float(s.t) for s in traj.states],
        "grid": {
            "nx": traj.grid.nx,
            "ny": traj.grid.ny,
            "period": traj.grid.period,
            "height": traj.grid.height,
            "clustering": traj.grid.clustering,
            "strength": traj.grid.strength,
        },
        "snapshots": names,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(directory):
    """Rebuild a trajectory from a snapshot directory.

    Velocities are restored bit-exactly; the vorticity of each state is
    recomputed with the discrete curl (the format stores velocity only).
    """
    from .solvers import FlowState, Trajectory

    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "ILIM1":
        raise ValueError(f"{directory}: not an ILIM1 trajectory")
    g = manifest["grid"]
    grid = make_channel_grid(g["nx"], g["ny"], g["period"], g["height"],
                             clustering=g["clustering"], strength=g["strength"])
    states = []
    for name, t in zip(manifest["snapshots"], manifest["times"]):
        snap = read_snapshot(directory / name)
        if (snap.nx, snap.ny) != grid.shape:
            raise ValueError(f"{name}: snapshot shape disagrees with manifest grid")
        vel = VectorField(grid, snap.u1, snap.u2)
        states.append(
            FlowState(grid=grid, t=snap.t, nu=snap.nu, velocity=vel, vorticity=curl2d(vel))
        )
    return Trajectory(
        grid=grid,
        scheme=manifest["scheme"],
        nu=manifest["nu"],
        dt=manifest["dt"],
        states=tuple(states),
    )
