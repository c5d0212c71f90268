"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload paired --seed 3 --seconds 15 --trace 0

Operations run back to back (a closed loop with one client) for
`--seconds`, after at least `MIN_OPS` of them.  Every operation's outputs
are checked; an operation whose check fails or that raises counts as
failed.  With `--trace 0` the last stdout line is the end-to-end result;
with `--trace 1` operations alternate untraced and traced and the last
line holds the per-layer metrics.  Lines before it, starting with '#',
give the host, the thread settings and a readable table.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from pathlib import Path

import env
import tracing

OUT = env.ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_REPEATS = 3
MIN_OPS = {0: 3, 1: 4}


def _cpu_s():
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload, seed):
    """Wall time from spawning a fresh interpreter to its inputs being
    built: interpreter start, `import ilim` and the workload's set-up."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROBE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def makespan(pieces, workers):
    """Finish time of `pieces` handed out in order to the first free worker
    (how Pool.map with chunksize 1 schedules them)."""
    free = [0.0] * workers
    for p in pieces:
        i = free.index(min(free))
        free[i] += p
    return max(free)


class Runner:
    """Runs and checks operations; keeps per-operation samples."""

    def __init__(self, workload, seed, inputs, tracer=None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.tracer = tracer
        self.samples = []  # dicts: traced, wall, cpu, problems, extra

    def run_op(self, index, traced):
        wl, tracer = self.workload, self.tracer
        OUT.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
        sample = {"traced": traced, "extra": {}}
        try:
            if traced:
                tracer.install()
            try:
                cpu0, t0 = _cpu_s(), time.perf_counter()
                try:
                    if traced:
                        with tracer.span("op", index):
                            out = wl.run(self.inputs, tmp)
                    else:
                        out = wl.run(self.inputs, tmp)
                finally:  # an operation that raises is timed to the raise
                    sample["wall"] = time.perf_counter() - t0
                    sample["cpu"] = _cpu_s() - cpu0
                if traced and hasattr(wl, "serial_pieces"):
                    # spans recorded in pool workers never reach this
                    # process, so trace the per-nu pieces here, untimed
                    with tracer.span("serial", index):
                        pieces = wl.serial_pieces(self.inputs)
                    sample["extra"] = {"pieces": pieces, "sweep_s": out[1],
                                       "jobs": wl.jobs}
            finally:
                if traced:
                    tracer.uninstall()
            sample["problems"] = wl.check(self.seed, self.inputs, out, tmp)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            traceback.print_exc()
            sample["problems"] = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for p in sample["problems"]:
            print(f"# op {index} failed: {p}", file=sys.stderr)
        self.samples.append(sample)

    def run_for(self, seconds, trace):
        deadline = time.monotonic() + seconds
        i = 0
        while i < MIN_OPS[trace] or time.monotonic() < deadline:
            self.run_op(i, traced=bool(trace) and i % 2 == 1)
            i += 1

    @property
    def attempted(self):
        return len(self.samples)

    @property
    def failed(self):
        return sum(1 for s in self.samples if s["problems"])

    def median(self, key, traced=False):
        return statistics.median(s[key] for s in self.samples if s["traced"] == traced)


def end_to_end(runner, setup_samples):
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_s": (runner.median("wall"), "s"),
        "cpu_s": (runner.median("cpu"), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(runner, tracer):
    ops = [i for i, s in enumerate(runner.samples) if s["traced"]]
    times = tracer.layer_times()
    metrics = {}
    for m in tracing.TIME_METRICS:
        metrics[m] = (statistics.median(times.get(i, {}).get(m, 0.0) for i in ops), "s")
    for m in tracing.COUNT_METRICS:
        unit = "B" if m.endswith("bytes") else "count"
        metrics[m] = (statistics.median(tracer.counts[i][m] for i in ops), unit)

    serial, overhead, efficiency = [], [], []
    for i in ops:
        extra = runner.samples[i]["extra"]
        if extra:
            pieces, sweep_s, jobs = extra["pieces"], extra["sweep_s"], extra["jobs"]
            serial.append(sum(pieces))
            overhead.append(sweep_s - makespan(pieces, jobs))
            efficiency.append(sum(pieces) / (jobs * sweep_s))
    metrics["harness.serial_sum_s"] = (statistics.median(serial or [0.0]), "s")
    metrics["harness.pool_overhead_s"] = (statistics.median(overhead or [0.0]), "s")
    metrics["harness.parallel_efficiency"] = (
        statistics.median(efficiency or [0.0]), "frac")
    metrics["trace.overhead_frac"] = (
        runner.median("wall", traced=True) / runner.median("wall") - 1.0, "frac")
    return metrics, _layer_shares(times, ops)


def _layer_shares(times, ops):
    """Median share of each layer's self time in an operation's traced
    wall time (on sweep: the operation plus its serial pieces)."""
    shares = {}
    for i in ops:
        total = sum(times[i].values())
        by_layer = {}
        for name, secs in times[i].items():
            layer = name.split(".")[0] if "." in name else "other"
            by_layer[layer] = by_layer.get(layer, 0.0) + secs
        for layer, secs in by_layer.items():
            shares.setdefault(layer, []).append(secs / total)
    return {k: round(statistics.median(v), 4) for k, v in sorted(shares.items())}


def write_spans(tracer, name, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paired", "sweep", "shear-verify", "replay"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    env.prepare()
    import workloads

    print(env.host_line(), flush=True)
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.setup(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_samples = [] if args.trace else [
        setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    runner = Runner(wl, args.seed, inputs, tracer)
    runner.run_for(args.seconds, args.trace)

    if args.trace:
        metrics, shares = per_layer(runner, tracer)
        print(f"# layer shares of traced wall time: {json.dumps(shares)}")
        print(f"# spans: {write_spans(tracer, args.workload, args.seed)}")
    else:
        metrics = end_to_end(runner, setup_samples)
    failed_frac = runner.failed / runner.attempted
    print(f"# {args.workload} seed={args.seed} variant={workloads.variant(args.seed)} "
          f"trace={args.trace}: {runner.attempted} operations, {runner.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit}")
    print(f"#   {'failed_frac':32s} {failed_frac:14.6g} 1")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
