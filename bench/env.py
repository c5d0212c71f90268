"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins the BLAS and
OpenMP pools to one thread per process (OpenBLAS would otherwise start
one thread per core, so the two sweep workers would run four threads on
two cores), then imports `ilim` from this checkout's `src/`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_SETTINGS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare():
    """Pin threads and import ilim from the checkout; exit 2 if it is absent."""
    os.environ.update(THREAD_SETTINGS)
    if not (SRC / "ilim" / "__init__.py").is_file():
        sys.exit(f"bench: no ilim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ilim

    if Path(ilim.__file__).resolve().parent != SRC / "ilim":
        sys.exit(f"bench: imported ilim from {ilim.__file__}, not from {SRC}")
    return ilim


def _openblas(config):
    try:
        return config.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def git_revision():
    """Commit of the checkout, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(numpy.__config__),
        "openblas_scipy": _openblas(scipy.__config__),
        "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "revision": git_revision(),
    }


def host_line():
    return "# host " + json.dumps(host_facts(), sort_keys=True)
