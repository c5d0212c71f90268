"""Binary snapshot format and trajectory round-trips."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilim import snapshots
from ilim.criteria import LayerSpec, MSchedule, evaluate_criteria
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


def _rewrite_snapshot(t=0.05, u1=None, **grid_args):
    def rewrite(run):
        other = make_channel_grid(**{"nx": 8, "ny": 9, "period": 2.0 * np.pi,
                                     "height": 2.0, "clustering": "uniform",
                                     **grid_args})
        zeros = np.zeros(other.shape)
        write_snapshot(run / "snap_0001.bin", other, t, 1e-3,
                       zeros if u1 is None else u1, zeros)
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


# ---------------------------------------------------------------------------
# a loaded trajectory holds one state at a time


def _saved_run(root, n, grid=None, nu=1e-3):
    g = grid or _grid()
    states = tuple(_state(g, 0.05 * i, nu, i) for i in range(n))
    save_trajectory(Trajectory(grid=g, scheme="ns", nu=nu, dt=0.05, states=states), root)
    return states


def _count_payload_reads(monkeypatch):
    """Spy on both payload readers: a loaded state's and `read_snapshot`."""
    reads = []
    for name in ("_read_velocity", "read_snapshot"):
        def spy(path, *args, _read=getattr(snapshots, name)):
            reads.append(path.name)
            return _read(path, *args)
        monkeypatch.setattr(snapshots, name, spy)
    return reads


def test_load_and_trajectory_checks_read_no_payload(tmp_path, monkeypatch):
    _saved_run(tmp_path / "run", 4)
    reads = _count_payload_reads(monkeypatch)
    traj = load_trajectory(tmp_path / "run")
    times = [0.05 * i for i in range(4)]
    assert traj.times.tolist() == times
    Trajectory(grid=traj.grid, scheme=traj.scheme, nu=traj.nu, dt=traj.dt,
               states=traj.states)  # the time-order and grid checks
    tail = traj.states[1:]
    assert len(tail) == 3 and [s.t for s in tail] == times[1:]
    assert [s.t for s in traj.states[::-2]] == times[::-2]
    assert reads == []
    state = traj.states[-1]
    state.velocity.comp1
    state.velocity.comp2
    assert reads == ["snap_0003.bin"]  # read once, then kept by the state


def test_a_state_read_twice_gives_equal_bits_in_its_own_arrays(tmp_path):
    saved = _saved_run(tmp_path / "run", 2)
    traj = load_trajectory(tmp_path / "run")
    a, b = traj.states[1], traj.states[1]
    assert a is not b
    for name in ("comp1", "comp2"):
        x, y = getattr(a.velocity, name), getattr(b.velocity, name)
        assert x.tobytes() == y.tobytes() == getattr(saved[1].velocity, name).tobytes()
        assert not np.shares_memory(x, y)
        assert not x.flags.writeable


def _paired_run(root, n, grid):
    """A hand-made NS/Euler pair of n outputs (no stepping), saved under root."""
    rng = np.random.default_rng(n)
    profile = np.sin(np.pi * grid.y / grid.height) ** 2
    for scheme, nu in (("ns", 1e-3), ("euler", 0.0)):
        states = []
        for i in range(n):
            u1 = (1.0 + 0.1 * rng.normal(size=grid.nx))[:, None] * profile[None, :]
            if nu == 0.0:
                u1 = u1 + 1.0  # the inviscid run slips at the wall
            vel = VectorField(grid, u1, np.zeros(grid.shape))
            states.append(FlowState(grid=grid, t=0.01 * i, nu=nu, velocity=vel,
                                    vorticity=None))
        save_trajectory(Trajectory(grid=grid, scheme=scheme, nu=nu, dt=0.01,
                                   states=tuple(states)), root / scheme)


def _criteria_peak_bytes(root):
    """tracemalloc's peak over evaluating the criteria of a loaded pair."""
    ns, euler = load_trajectory(root / "ns"), load_trajectory(root / "euler")
    tracemalloc.start()
    try:
        evaluate_criteria(ns, euler, MSchedule(form="power", c=1.0, a=0.5),
                          LayerSpec(C=10.0, r=2.0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaded_criteria_peak_is_a_few_states_whatever_the_output_count(tmp_path):
    g = make_channel_grid(64, 97, 2.0 * np.pi, 2.0, clustering="tanh", strength=2.0)
    state_bytes = 2 * g.nx * g.ny * 8
    peaks = {}
    for n in (20, 60):
        _paired_run(tmp_path / str(n), n, g)
        peaks[n] = _criteria_peak_bytes(tmp_path / str(n))
    assert peaks[60] < 4 * state_bytes
    assert peaks[60] - peaks[20] < state_bytes / 4


def _u1_with(node, value):
    u1 = np.zeros(_grid().shape)
    u1[node] = value
    return u1


def _resized(change):
    def resize(run):
        path = run / "snap_0001.bin"
        path.write_bytes(change(path.read_bytes()))
    return resize


def _deleted(run):
    (run / "snap_0001.bin").unlink()


# a snapshot whose header matches the manifest but whose payload breaks a
# state's checks, or that changes after load: reading its state names it
@pytest.mark.parametrize("fault, when, match", [
    (_rewrite_snapshot(u1=_u1_with((3, 4), np.nan)), "before",
     r"snap_0001\.bin: comp1 must be finite"),
    (_rewrite_snapshot(u1=_u1_with((2, 0), 1e-3)), "before", r"snap_0001\.bin: no-slip wall"),
    (_rewrite_snapshot(t=0.07), "after", r"snap_0001\.bin: changed since"),
    (_resized(lambda raw: raw[:-8]), "after", r"snap_0001\.bin: changed since"),
    (_resized(lambda raw: raw + bytes(8)), "after", r"snap_0001\.bin: changed since"),
    (_deleted, "after", r"snap_0001\.bin: cannot be read"),
], ids=["nan", "wall-slip", "rewritten", "truncated", "grown", "deleted"])
def test_reading_a_faulty_state_names_its_file(tmp_path, fault, when, match):
    _saved_run(tmp_path / "run", 3)
    if when == "before":
        fault(tmp_path / "run")
    traj = load_trajectory(tmp_path / "run")  # reads headers only
    if when == "after":
        fault(tmp_path / "run")
    traj.states[0].velocity
    with pytest.raises(ValueError, match=match):
        traj.states[1].velocity
    with pytest.raises(ValueError, match=match):  # derived through the same read
        traj.states[1].vorticity
