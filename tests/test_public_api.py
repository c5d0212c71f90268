"""The package's public surface: the names `import ilim` binds, and the
modules it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ilim

# every public module but the command line is re-exported
REEXPORTED = sorted(m.name for m in pkgutil.iter_modules(ilim.__path__)
                    if m.name != "cli" and not m.name.startswith("_"))


def test_package_all_is_every_module_all_once():
    assert len(ilim.__all__) == len(set(ilim.__all__))
    expected = {"__version__": ilim._version}
    for name in REEXPORTED:
        module = importlib.import_module(f"ilim.{name}")
        for attr in module.__all__:
            assert attr not in expected, f"{attr} is public in two modules"
            expected[attr] = module
    assert set(ilim.__all__) == set(expected)
    for attr, module in expected.items():
        assert getattr(ilim, attr) is getattr(module, attr), attr


@pytest.mark.parametrize("module", ["ilim", "ilim.cli"])
def test_import_leaves_quadrature_and_fft_unloaded(module):
    src = str(Path(ilim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.fft') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
