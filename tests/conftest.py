"""Shared fixtures and the acceptance-criteria summary hook."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ilim
from ilim.grid import make_channel_grid

# One visible line per acceptance criterion, echoed at the end of the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_log():
    def record(line):
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


@pytest.fixture
def unit_grid():
    """Uniform grid with unit area (period 1, height 1)."""
    return make_channel_grid(8, 9, 1.0, 1.0, clustering="uniform")


@pytest.fixture
def small_grid():
    """Uniform 2*pi x 2 channel for operator tests."""
    return make_channel_grid(32, 33, 2.0 * np.pi, 2.0, clustering="uniform")


@pytest.fixture
def run_python():
    """Runs `code` in a fresh interpreter that imports this checkout's ilim,
    with `args` as sys.argv[1:] and `env` added to its environment; returns
    the last line of its stdout."""
    src = str(Path(ilim.__file__).resolve().parents[1])
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code, *args, env=None):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env={**base, **(env or {})},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    return run
