"""Binary snapshot format and trajectory round-trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilim.grid import VectorField, curl2d, grids_compatible, make_channel_grid
from ilim.snapshots import (
    MAGIC,
    load_trajectory,
    read_snapshot,
    save_trajectory,
    write_snapshot,
)
from ilim.solvers import FlowState, Trajectory


def _grid():
    return make_channel_grid(8, 9, 2.0 * np.pi, 2.0, clustering="uniform")


def _state(grid, t, nu, seed):
    rng = np.random.default_rng(seed)
    profile = np.sin(np.pi * grid.y / grid.height) ** 2
    u1 = rng.normal(size=grid.nx)[:, None] * profile[None, :]
    u2 = np.zeros(grid.shape)
    vel = VectorField(grid, u1, u2)
    return FlowState(grid=grid, t=t, nu=nu, velocity=vel, vorticity=curl2d(vel))


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    g = _grid()
    rng = np.random.default_rng(42)
    u1 = rng.normal(size=g.shape)
    u2 = rng.normal(size=g.shape)
    path = tmp_path / "one.bin"
    write_snapshot(path, g, t=0.125, nu=1e-3, u1=u1, u2=u2)
    snap = read_snapshot(path)
    assert (snap.nx, snap.ny) == g.shape
    assert snap.period == g.period and snap.height == g.height
    assert snap.t == 0.125 and snap.nu == 1e-3
    assert np.array_equal(snap.u1, u1)
    assert np.array_equal(snap.u2, u2)


# -0.0, the smallest subnormal, a mid-range subnormal and the largest finite
# double, in both signs; arrays hold them beside arbitrary doubles
_EDGE = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308,
                         -1.7976931348623157e308])
_DOUBLE = st.one_of(_EDGE, st.floats())


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), nx=st.integers(2, 12).map(lambda h: 2 * h),
       ny=st.integers(3, 20), period=st.floats(1e-150, 1e150),
       height=st.floats(1e-150, 1e150), t=_DOUBLE, nu=_DOUBLE)
def test_snapshot_round_trip_is_bit_exact_for_any_values(tmp_path_factory, data, nx,
                                                        ny, period, height, t, nu):
    g = make_channel_grid(nx, ny, period, height, clustering="uniform")
    u1, u2 = (data.draw(arrays(np.float64, g.shape, elements=_DOUBLE))
              for _ in range(2))
    path = tmp_path_factory.mktemp("snap") / "one.bin"
    write_snapshot(path, g, t=t, nu=nu, u1=u1, u2=u2)
    snap = read_snapshot(path)
    assert (snap.nx, snap.ny) == (nx, ny)
    assert [_bits(v) for v in (snap.period, snap.height, snap.t, snap.nu)] == [
        _bits(v) for v in (period, height, t, nu)]
    assert snap.u1.tobytes() == u1.tobytes() and snap.u2.tobytes() == u2.tobytes()


def test_write_snapshot_rejects_wrong_shape(tmp_path):
    g = _grid()
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "bad.bin", g, 0.0, 1e-3, np.zeros((3, 3)), np.zeros((3, 3)))


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"ILIM1")
    with pytest.raises(ValueError, match="truncated header"):
        read_snapshot(path)


def test_read_rejects_bad_magic(tmp_path):
    g = _grid()
    path = tmp_path / "magic.bin"
    write_snapshot(path, g, 0.0, 1e-3, np.zeros(g.shape), np.zeros(g.shape))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTILIM\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_snapshot(path)


def test_read_rejects_truncated_payload(tmp_path):
    g = _grid()
    path = tmp_path / "payload.bin"
    write_snapshot(path, g, 0.0, 1e-3, np.zeros(g.shape), np.zeros(g.shape))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="expected"):
        read_snapshot(path)


def test_trajectory_round_trip(tmp_path):
    g = _grid()
    states = tuple(_state(g, t, 1e-3, seed) for seed, t in enumerate((0.0, 0.1, 0.2)))
    traj = Trajectory(grid=g, scheme="ns", nu=1e-3, dt=0.05, states=states)
    save_trajectory(traj, tmp_path / "run")
    loaded = load_trajectory(tmp_path / "run")

    assert loaded.scheme == "ns" and loaded.nu == 1e-3 and loaded.dt == 0.05
    assert grids_compatible(loaded.grid, g)
    assert len(loaded.states) == 3
    for orig, back in zip(states, loaded.states):
        assert back.t == orig.t and back.nu == orig.nu
        assert np.array_equal(back.velocity.comp1, orig.velocity.comp1)
        assert np.array_equal(back.velocity.comp2, orig.velocity.comp2)
        # vorticity is recomputed from the stored velocity
        expect = curl2d(VectorField(loaded.grid, back.velocity.comp1, back.velocity.comp2))
        assert np.array_equal(back.vorticity.values, expect.values)


def test_manifest_contents(tmp_path):
    g = _grid()
    traj = Trajectory(
        grid=g, scheme="euler", nu=0.0, dt=0.1, states=(_state(g, 0.0, 0.0, 1),)
    )
    save_trajectory(traj, tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["format"] == "ILIM1"
    assert manifest["scheme"] == "euler"
    assert manifest["snapshots"] == ["snap_0000.bin"]
    assert manifest["times"] == [0.0]
    assert manifest["grid"]["nx"] == g.nx and manifest["grid"]["ny"] == g.ny
    # header bytes of the snapshot itself carry the magic
    raw = (tmp_path / "run" / "snap_0000.bin").read_bytes()
    assert raw[:8] == MAGIC


def test_load_rejects_foreign_manifest(tmp_path):
    g = _grid()
    traj = Trajectory(
        grid=g, scheme="ns", nu=1e-3, dt=0.1, states=(_state(g, 0.0, 1e-3, 1),)
    )
    save_trajectory(traj, tmp_path / "run")
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["format"] = "OTHER"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="ILIM1"):
        load_trajectory(tmp_path / "run")


def _edit_manifest(key, change):
    def corrupt(run):
        path = run / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = change(manifest[key])
        path.write_text(json.dumps(manifest))
    return corrupt


def _rewrite_snapshot(**grid_args):
    def rewrite(run):
        other = make_channel_grid(**{"nx": 8, "ny": 9, "period": 2.0 * np.pi,
                                     "height": 2.0, "clustering": "uniform",
                                     **grid_args})
        zeros = np.zeros(other.shape)
        write_snapshot(run / "snap_0001.bin", other, 0.05, 1e-3, zeros, zeros)
    return rewrite


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_rewrite_snapshot(nx=4, ny=5), r"snap_0001\.bin: .* disagrees"),
        (_edit_manifest("times", lambda ts: ts[:1]),
         r"manifest\.json: 2 snapshots but 1 times"),
        (_edit_manifest("times", lambda ts: [9.0 + t for t in ts]),
         r"snap_0000\.bin: .* disagrees"),
        (_rewrite_snapshot(period=1.0), r"snap_0001\.bin: .* disagrees"),
        (_rewrite_snapshot(height=3.0), r"snap_0001\.bin: .* disagrees"),
        (_edit_manifest("nu", lambda nu: 0.5), r"snap_0000\.bin: .* disagrees"),
    ],
    ids=["shape", "count", "times", "period", "height", "nu"],
)
def test_load_rejects_shape_mismatch(tmp_path, corrupt, match):
    g = _grid()
    states = (_state(g, 0.0, 1e-3, 1), _state(g, 0.05, 1e-3, 2))
    save_trajectory(Trajectory(grid=g, scheme="ns", nu=1e-3, dt=0.05, states=states),
                    tmp_path / "run")
    corrupt(tmp_path / "run")
    with pytest.raises(ValueError, match=match):
        load_trajectory(tmp_path / "run")
