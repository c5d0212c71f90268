"""Binary snapshot format and on-disk trajectories.

A snapshot file is: an 8-byte magic "ILIM1\\x00\\x00\\x00", little-endian
u64 nx, ny, little-endian f64 Lx, Ly, t, nu, then the two velocity
components as row-major little-endian f64 arrays (u1 then u2).  Values
round-trip bit-exactly.

A trajectory directory holds numbered snapshot files plus a manifest.json
describing the grid, the scheme, the viscosity and the output times.  A
loaded state keeps its velocity only; its vorticity is derived from it
where it is read.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import partial
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
        fh.write(np.ascontiguousarray(u1))
        fh.write(np.ascontiguousarray(u2))


def read_snapshot(path) -> Snapshot:
    """Read an ILIM1 snapshot, rejecting bad magic or truncated payloads.
    The payload is read straight into the two velocity arrays."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, nx, ny, period, height, t, nu = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 2 * 8 * int(nx) * int(ny)
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
        u1, u2 = (np.empty((nx, ny), dtype="<f8") for _ in range(2))
        if fh.readinto(u1) + fh.readinto(u2) != expected - _HEADER.size:
            raise ValueError(f"{path}: payload shrank while it was read")
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
    _write_json(directory / "manifest.json", manifest)


def _write_json(path, obj) -> None:
    """Write `obj` as JSON, as every manifest and report is: sorted keys, indent 2."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(directory):
    """Rebuild a trajectory from a snapshot directory.

    Velocities are restored bit-exactly.  The format stores velocity only,
    so each state's vorticity is derived with the discrete curl
    (`partial(curl2d, velocity)`): on the first read of `state.vorticity`,
    or row by row for the criteria; loading runs no curl.  A snapshot whose
    grid, time or viscosity disagrees with the manifest is rejected.
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
    names, times = manifest["snapshots"], manifest["times"]
    if len(names) != len(times):
        raise ValueError(f"{directory / 'manifest.json'}: {len(names)} snapshots "
                         f"but {len(times)} times")
    states = []
    for name, t in zip(names, times):
        snap = read_snapshot(directory / name)
        got = (snap.nx, snap.ny, snap.period, snap.height, snap.t, snap.nu)
        want = (grid.nx, grid.ny, grid.period, grid.height, t, manifest["nu"])
        if got != want:
            raise ValueError(f"{directory / name}: (nx, ny, period, height, t, nu) = "
                             f"{got!r} disagrees with the manifest's {want!r}")
        vel = VectorField(grid, snap.u1, snap.u2)
        states.append(FlowState(grid=grid, t=snap.t, nu=snap.nu, velocity=vel,
                                vorticity=partial(curl2d, vel)))
    return Trajectory(
        grid=grid,
        scheme=manifest["scheme"],
        nu=manifest["nu"],
        dt=manifest["dt"],
        states=tuple(states),
    )
