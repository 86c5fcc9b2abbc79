"""The example specs' results.csv and summary.json and the incidence CLIs'
sumproduct.csv and zarankiewicz.csv, pinned: everything but `build` must
match the file committed under tests/data/ (same spec or arguments and seed
give the same rows and verification reports, whatever the engines and
counters do inside)."""

import csv
import json
from pathlib import Path

import pytest

from distalcells.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _rows_without_build(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("build")
    return [row[:drop] + row[drop + 1:] for row in rows]


@pytest.mark.parametrize("name", ["ordered_halfline", "padic_macintyre", "presburger_parity"])
def test_example_results_match_golden(tmp_path, name):
    spec = ROOT / "docs" / "examples" / f"{name}.json"
    assert main(["run", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    got = _rows_without_build(tmp_path / "results.csv")
    assert got == _rows_without_build(ROOT / "tests" / "data" / f"{name}_results.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    golden = json.loads((ROOT / "tests" / "data" / f"{name}_summary.json").read_text())
    summary.pop("build")
    golden.pop("build")
    assert summary == golden


def test_sumproduct_results_match_golden(tmp_path):
    args = ["--trials", "20", "--max-size", "24", "--seed", "42"]
    assert main(["sumproduct", *args, "--out-dir", str(tmp_path)]) == 0
    got = _rows_without_build(tmp_path / "sumproduct.csv")
    assert got == _rows_without_build(ROOT / "tests" / "data" / "sumproduct.csv")


def test_zarankiewicz_results_match_golden(tmp_path):
    args = ["--sizes", "64,128,256,512"]
    assert main(["zarankiewicz", *args, "--out-dir", str(tmp_path)]) == 0
    got = _rows_without_build(tmp_path / "zarankiewicz.csv")
    assert got == _rows_without_build(ROOT / "tests" / "data" / "zarankiewicz.csv")
