"""Each output check must register a wrong output as a failed operation.

The workloads run here on tiny grids; their references are taken from a
clean run, so each test changes exactly one thing and expects the
operation to count as failed.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import ilim
import numpy as np
import pytest

import run
import tracing
import workloads


class TinyPaired(workloads.Paired):
    def setup(self, seed):
        return dataclasses.replace(super().setup(seed), nx=16, ny=33,
                                   t_final=0.02, n_outputs=2)


class TinyReplay(workloads.Replay):
    def setup(self, seed):
        return ilim.run_simulation(dataclasses.replace(
            workloads._paired_config(seed, 10), nx=16, ny=33, t_final=0.02))


class TinySweep(workloads.Sweep):
    jobs = 1
    nu_values = (1e-2, 1e-3, 1e-4)

    def setup(self, seed):
        cfg = super().setup(seed)
        cfg.nx, cfg.ny, cfg.t_final, cfg.n_outputs = 16, 33, 0.02, 2
        cfg.nu_values = self.nu_values
        return cfg


def _calibrated(cls, tmp_path, seed=0):
    """A workload whose reference is its own clean output."""
    wl = cls(references={})
    inputs = wl.setup(seed)
    out = wl.run(inputs, tmp_path / "ref")
    wl.references = {wl.reference_key(seed): json.loads(json.dumps(wl.fingerprint(out)))}
    if hasattr(wl, "first_digest"):
        wl.first_digest = None
    return wl, inputs


def _run_ops(wl, inputs, tmp_path, monkeypatch, n=1, seed=0):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    runner = run.Runner(wl, seed, inputs)
    for i in range(n):
        runner.run_op(i, traced=False)
    return runner


@pytest.mark.parametrize("cls", [TinyPaired, TinyReplay, TinySweep])
def test_clean_operations_pass(cls, tmp_path, monkeypatch):
    wl, inputs = _calibrated(cls, tmp_path)
    runner = _run_ops(wl, inputs, tmp_path, monkeypatch, n=2)
    assert (runner.attempted, runner.failed) == (2, 0)
    assert not any((tmp_path / "out").iterdir())  # per-op directories removed


def test_compare_tolerance():
    ref = {"x": 1.0, "flags": [True, False], "none": None}
    drift = {"x": 1.0 + 1e-12, "flags": [True, False], "none": None}
    assert workloads.compare(drift, ref) == []
    assert workloads.compare({**drift, "x": 1.0 + 1e-6}, ref)
    assert workloads.compare({**drift, "flags": [True, True]}, ref)
    assert workloads.compare({**drift, "flags": [True]}, ref)
    assert workloads.compare({**drift, "none": 0.0}, ref)


def test_perturbed_fingerprint_is_a_failed_operation(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinyPaired, tmp_path)
    ref = wl.references["0"]
    ref["sup_err_sq"] *= 1.0 + 1e-6
    runner = _run_ops(wl, inputs, tmp_path, monkeypatch)
    assert runner.failed == 1
    assert "sup_err_sq" in runner.samples[0]["problems"][0]


def test_flipped_snapshot_byte_is_a_failed_operation(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinyReplay, tmp_path)
    save = ilim.save_trajectory

    def save_and_flip(traj, directory):
        save(traj, directory)
        snap = directory / "snap_0001.bin"
        raw = bytearray(snap.read_bytes())
        # a mantissa byte of interior sample u1[8, 10]; wall samples stay
        # exact, so the state still loads
        raw[ilim.snapshots._HEADER.size + 8 * (8 * 33 + 10) + 2] ^= 0x01
        snap.write_bytes(bytes(raw))

    monkeypatch.setattr(ilim, "save_trajectory", save_and_flip)
    runner = _run_ops(wl, inputs, tmp_path, monkeypatch)
    assert runner.failed == 1
    assert any("bit-identical" in p for p in runner.samples[0]["problems"])


def test_failed_nu_is_a_failed_operation(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinySweep, tmp_path)
    inputs.nu_values = (1e-2, -1e-3, 1e-4)  # the worker rejects nu <= 0
    runner = _run_ops(wl, inputs, tmp_path, monkeypatch)
    assert runner.failed == 1
    assert any("status=failed" in p for p in runner.samples[0]["problems"])


def test_changed_report_bytes_are_a_failed_operation(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinySweep, tmp_path)
    emit = ilim.emit_report
    calls = []

    def emit_then_touch(result, directory):
        names = emit(result, directory)
        calls.append(1)
        if len(calls) == 2:
            with open(directory / "rates.json", "a") as fh:
                fh.write(" ")
        return names

    monkeypatch.setattr(ilim, "emit_report", emit_then_touch)
    runner = _run_ops(wl, inputs, tmp_path, monkeypatch, n=2)
    assert [bool(s["problems"]) for s in runner.samples] == [False, True]


def test_raising_operation_is_a_failed_operation(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinyPaired, tmp_path)
    runner = _run_ops(wl, dataclasses.replace(inputs, dt=-1.0), tmp_path, monkeypatch)
    assert runner.failed == 1
    assert runner.samples[0]["wall"] > 0.0  # timed to the raise, so medians exist


def test_paired_checks_bite(tmp_path):
    wl = TinyPaired(references={})
    pair, series, report = wl.run(wl.setup(0), tmp_path)
    assert wl.check_outputs(None, (pair, series, report), tmp_path) == []

    def with_last_ns(velocity):
        last = dataclasses.replace(pair.ns.states[-1], velocity=velocity)
        ns = dataclasses.replace(pair.ns, states=pair.ns.states[:-1] + (last,))
        return (dataclasses.replace(pair, ns=ns), series, report)

    v = pair.ns.states[-1].velocity
    grown = ilim.VectorField(v.grid, 2.0 * v.comp1, 2.0 * v.comp2)
    assert any("energy grew" in p for p in wl.check_outputs(None, with_last_ns(grown), tmp_path))
    bad = v.comp2.copy()
    bad[3, 5] = np.nan
    nan = ilim.VectorField(v.grid, v.comp1, v.comp2)
    object.__setattr__(nan, "comp2", bad)  # VectorField rejects NaN when built
    assert any("non-finite" in p for p in wl.check_outputs(None, with_last_ns(nan), tmp_path))


def test_failed_holdout_bound_is_caught():
    wl = workloads.ShearVerify(references={})
    result = ilim.shear_limit_study(ny=33, n_modes=256, n_times=4)
    assert wl.check_outputs(None, result, None) == []
    broken = dataclasses.replace(
        result, holdout_bound_ok={nu: False for nu in result.holdout_bound_ok})
    assert len(wl.check_outputs(None, broken, None)) == len(result.holdout_bound_ok)


def test_tracer_wraps_public_names_and_restores_them(tmp_path):
    original = ilim.analysis.gradient
    wl = TinyReplay(references={})
    pair = wl.setup(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ilim.analysis.gradient is not original
        assert ilim.snapshots.curl2d is ilim.solvers.curl2d is ilim.curl2d
        with tracer.span("op", 0):
            wl.run(pair, tmp_path)
    finally:
        tracer.uninstall()
    assert ilim.analysis.gradient is original
    assert ilim.grid.curl2d is ilim.snapshots.curl2d

    times = tracer.layer_times()[0]
    root = tracer.spans[0]
    assert sum(times.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    for metric in ("snapshots.save_s", "snapshots.load_s", "grid.curl2d_s",
                   "grid.gradient_s", "correctors.flat_corrector_s"):
        assert times[metric] > 0.0
    counts = tracer.counts[0]
    assert counts["criteria.states"] == 3 * len(pair.ns.states)
    assert counts["snapshots.bytes"] == sum(
        p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())


def test_serial_pieces_feed_the_harness_metrics(tmp_path, monkeypatch):
    wl, inputs = _calibrated(TinySweep, tmp_path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    tracer = tracing.Tracer()
    runner = run.Runner(wl, 0, inputs, tracer)
    runner.run_op(0, traced=False)
    runner.run_op(1, traced=True)
    assert runner.failed == 0
    extra = runner.samples[1]["extra"]
    assert len(extra["pieces"]) == 3
    metrics, _ = run.per_layer(runner, tracer)
    assert metrics["harness.serial_sum_s"][0] == pytest.approx(sum(extra["pieces"]))
    assert metrics["harness.parallel_efficiency"][0] > 0.0
    # jobs=1 here, so the operation's own runs are traced too
    assert metrics["solvers.steps"][0] == 2 * 3 * 2 * 10  # (op + pieces) x nu x schemes x steps


def test_makespan_follows_pool_order():
    assert run.makespan([3.0, 1.0, 1.0, 1.0], 2) == 3.0
    assert run.makespan([1.0, 2.0, 3.0], 2) == 4.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(workloads.REFERENCES.parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paired", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
