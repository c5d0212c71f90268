"""Spans around the public functions of each ilim layer.

A `Tracer` replaces each target in `LAYERS` by a wrapper that records a
span (name, start, end, parent, operation) in memory.  Functions are
replaced at every name an ilim module binds them to (for example
`ilim.analysis.gradient`, `ilim.snapshots.curl2d`, `ilim.evaluate_criteria`),
methods on their class, so callers inside and outside the package reach
the wrapper.  Nothing in `src/` is edited; `uninstall` puts the originals
back.

A span's self time is its duration minus that of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict


def _count_steps(args, result):
    return {"solvers.steps": round(result.states[-1].t / result.dt),
            "solvers.states": len(result.states)}


def _count_profile(args, result):
    return {"solvers.shear_profile_calls": 1}


def _count_criteria(args, result):
    return {"criteria.states": len(result.times)}


def _dir_bytes(directory, names=None):
    if names is None:
        names = os.listdir(directory)
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


def _count_snapshot_bytes(args, result):
    return {"snapshots.bytes": _dir_bytes(args[1])}


def _count_report_bytes(args, result):
    return {"harness.report_bytes": _dir_bytes(args[1], result)}


# (metric, module, attribute, counter): the self time of every listed
# target adds to its metric; the counter turns (args, result) into counts.
LAYERS = (
    ("solvers.ns_init_s", "ilim.solvers", "NavierStokesIntegrator.__init__", None),
    ("solvers.euler_init_s", "ilim.solvers", "EulerIntegrator.__init__", None),
    ("solvers.ns_run_s", "ilim.solvers", "NavierStokesIntegrator.run", _count_steps),
    ("solvers.euler_run_s", "ilim.solvers", "EulerIntegrator.run", _count_steps),
    ("solvers.shear_profile_s", "ilim.solvers", "ShearFlow.profile", _count_profile),
    ("solvers.shear_profile_s", "ilim.solvers", "ShearFlow.dprofile", _count_profile),
    ("initial_data.build_s", "ilim.initial_data", "build_initial_data", None),
    ("grid.make_grid_s", "ilim.grid", "make_channel_grid", None),
    ("grid.make_grid_s", "ilim.grid", "strength_for_min_spacing", None),
    ("grid.curl2d_s", "ilim.grid", "curl2d", None),
    ("grid.gradient_s", "ilim.grid", "gradient", None),
    ("criteria.evaluate_s", "ilim.criteria", "evaluate_criteria", _count_criteria),
    ("analysis.error_series_s", "ilim.analysis", "error_series", None),
    ("analysis.energy_budget_s", "ilim.analysis", "energy_budget", None),
    ("analysis.energy_budget_s", "ilim.analysis", "trace_corrector_provider", None),
    ("analysis.calibrate_fit_s", "ilim.analysis", "calibrate_bound_constant", None),
    ("analysis.calibrate_fit_s", "ilim.analysis", "fit_rate", None),
    ("correctors.flat_corrector_s", "ilim.correctors", "flat_corrector", None),
    ("correctors.time_derivative_s", "ilim.correctors",
     "corrector_time_derivative", None),
    ("snapshots.save_s", "ilim.snapshots", "save_trajectory", _count_snapshot_bytes),
    ("snapshots.load_s", "ilim.snapshots", "load_trajectory", None),
    ("harness.emit_report_s", "ilim.harness", "emit_report", _count_report_bytes),
    ("harness.emit_report_s", "ilim.harness", "emit_shear_report", _count_report_bytes),
)

TIME_METRICS = tuple(dict.fromkeys(m for m, *_ in LAYERS))
COUNT_METRICS = ("solvers.steps", "solvers.states", "solvers.shear_profile_calls",
                 "criteria.states", "snapshots.bytes", "harness.report_bytes")


def _ilim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ilim" or name.startswith("ilim."))]


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = defaultdict(Counter)   # op -> metric -> count
        self.op = None
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name, op):
        """A root span: everything recorded inside belongs to operation `op`."""
        self.op = op
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                self.counts[self.op].update(counter(args, result))
            return result

        return wrapper

    def install(self):
        modules = _ilim_modules()
        for _, module_name, attr, counter in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method, looked up on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, attr, counter))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, attr, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self):
        """{op: {span name: self time}} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child[i]
        return out

    def layer_times(self):
        """{op: {metric: self time}}; targets sharing a metric are summed."""
        metric_of = {attr: metric for metric, _, attr, _ in LAYERS}
        out = {}
        for op, by_name in self.self_times().items():
            per = Counter()
            for name, secs in by_name.items():
                per[metric_of.get(name, name)] += secs
            out[op] = per
        return out

