"""Rewrite the golden report files beside this script.

    PYTHONPATH=src python tests/golden/regenerate.py

`produce(out)` runs each command below in-process through `cli_dispatch`
and leaves every file they write under `out`.  The text files among them
(snapshot payloads excluded) are the golden reports that
`tests/test_golden.py` compares a fresh run against.  Regenerate only when
a change is meant to move a reported number, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from ilim.cli import cli_dispatch

HERE = Path(__file__).resolve().parent

# the 16x33 perturbed-shear sweep config, three nu; CI's smoke sweep runs
# it too
SWEEP_INI = HERE / "sweep.ini"

# snapshot payloads: binary, and read back by the criteria runs only
SKIPPED_SUFFIX = ".bin"


def _runs(out: Path):
    """The argument lists, in order, with their report paths under `out`."""
    return [
        ["sweep", "--config", str(SWEEP_INI), "--jobs", "1",
         "--out", str(out / "sweep")],
        ["simulate", "--nx", "16", "--ny", "33", "--T", "0.05", "--dt", "5e-3",
         "--out", str(out / "simulate")],
        *(["criteria", str(out / "simulate"), "--r", r,
           "--out", str(out / "simulate" / f"criteria_r{r}.csv")]
          for r in ("1", "2", "inf")),
        ["shear-verify", "--nu", "1e-2,1e-3,1e-4", "--ny", "65",
         "--out", str(out / "shear-verify")],
        ["corrector-check", "--out", str(out / "corrector-check")],
    ]


def produce(out) -> list:
    """Run every command into `out`; returns the report files' paths
    relative to `out`, sorted, without the payloads."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for argv in _runs(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_dispatch(argv)
        if code != 0:
            raise RuntimeError(f"ilim {' '.join(argv)} exited {code}")
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file() and p.suffix != SKIPPED_SUFFIX)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        names = produce(tmp)
        for sub in {name.split("/")[0] for name in names}:
            shutil.rmtree(HERE / sub, ignore_errors=True)
        for name in names:
            (HERE / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, HERE / name)
    print(f"wrote {len(names)} files under {HERE}", file=sys.stderr)


if __name__ == "__main__":
    main()
