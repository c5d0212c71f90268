"""Build one workload's inputs in a fresh interpreter, then print the
monotonic clock.  `run.py` spawns it to time set-up from process start.

    python3 bench/probe.py <workload> <seed>
"""

import sys
import time

import env

env.prepare()
import workloads  # noqa: E402 - after prepare() pins threads and finds ilim

workloads.WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
print(time.monotonic())
