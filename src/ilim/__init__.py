"""Inviscid-limit laboratory for wall-bounded 2D channel flow.

Paired Navier-Stokes (no-slip) / Euler (slip) solvers, boundary-layer
correctors with verified norm scalings, layer-criterion evaluation, and
a sweep harness that measures the vanishing-viscosity convergence rate.

Each module's `__all__` is the one list of its public names; this package
re-exports all of them.
"""

from . import analysis, correctors, criteria, grid, harness, initial_data, snapshots, solvers
from ._version import __version__
from .analysis import *
from .correctors import *
from .criteria import *
from .grid import *
from .harness import *
from .initial_data import *
from .snapshots import *
from .solvers import *

_MODULES = (analysis, correctors, criteria, grid, harness, initial_data, snapshots, solvers)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
