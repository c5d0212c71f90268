"""Every report the CLI writes, held to the committed files in tests/golden.

`tests/golden/regenerate.py` writes those files and holds the runs.  File
lists, CSV headers, JSON keys, flags and other text cells must match
exactly; numbers must agree within the bench's fingerprint tolerances
(NaN equals NaN); a report manifest's `version` is not compared.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-8
ATOL = 1e-13

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _golden_names():
    return sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*")
                  if p.is_file() and p.suffix in (".csv", ".dat", ".json"))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare(got, want, path):
    """Problems where `got` differs from `want`: floats within RTOL/ATOL,
    NaN equal to NaN, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in _compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare(g, w, f"{path}[{i}]")]
    if type(want) is float and type(got) is float:
        if (math.isnan(got) and math.isnan(want)) or math.isclose(
                got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != golden {want!r}"]


def _cells(text, name):
    """A CSV or .dat file as rows of cells, each a float or its own text."""
    sep = "," if name.endswith(".csv") else None
    rows = [line.split(sep) for line in text.splitlines()]
    return [[v if (v := _number(cell)) is not None else cell for cell in row]
            for row in rows]


def _problems(name, got, want):
    if name.endswith(".json"):
        got, want = json.loads(got), json.loads(want)
        if name.rsplit("/", 1)[-1] == "manifest.json":
            got.pop("version", None)
            want.pop("version", None)
    else:
        # the header row is text cells, so it matches exactly
        got, want = _cells(got, name), _cells(want, name)
    return _compare(got, want, name)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    return out, regenerate.produce(out)


def test_golden_files_are_committed():
    assert len(_golden_names()) == 26


def test_reports_write_the_golden_file_list(fresh):
    _, names = fresh
    assert names == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_report_matches_golden(fresh, name):
    out, _ = fresh
    got = (out / name).read_text()
    assert _problems(name, got, (GOLDEN / name).read_text()) == []


def test_golden_comparison_catches_changes():
    # a moved number, a flipped flag, a renamed key and a missing row fail;
    # round-off within RTOL and the manifest's version do not
    csv = "t,cond_pass\n0.5,True\nnan,False\n"
    assert _problems("a.csv", csv, csv) == []
    assert _problems("a.csv", "t,cond_pass\n0.50000000001,True\nnan,False\n", csv) == []
    assert _problems("a.csv", "t,cond_pass\n0.5001,True\nnan,False\n", csv)
    assert _problems("a.csv", "t,cond_pass\n0.5,False\nnan,False\n", csv)
    assert _problems("a.csv", "t,cond_ok\n0.5,True\nnan,False\n", csv)
    assert _problems("a.csv", "t,cond_pass\n0.5,True\n", csv)
    assert _problems("a.dat", "0.0 1.5\n", "0.0 1.5 2.0\n")
    want = '{"version": "0.1.0", "fit": {"exponent": 1.0}, "ok": true}'
    assert _problems("r/manifest.json",
                     '{"version": "9", "fit": {"exponent": 1.0}, "ok": true}', want) == []
    assert _problems("r/manifest.json",
                     '{"version": "0.1.0", "fit": {"exponent": 1.0}, "ok": 1}', want)
    assert _problems("r/rates.json",
                     '{"version": "9", "fit": {"exponent": 1.0}, "ok": true}', want)
    assert _problems("r/rates.json", '{"fit": {"exp": 1.0}, "ok": true}',
                     '{"fit": {"exponent": 1.0}, "ok": true}')
