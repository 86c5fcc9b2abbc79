import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from distalcells.cli import main
from distalcells.descriptors import SpecError, load_experiment, load_family


OMIN_SPEC = {
    "experiment_id": "omin1d-xlty",
    "structure": "rationals-order",
    "family": {
        "kind": "semilinear",
        "point_dim": 1,
        "param_dim": 1,
        "predicates": [{"atom": {"x": [1], "y": [-1], "c": 0, "rel": "<"}}],
    },
    "sizes": [8, 16, 32],
    "trials": 3,
    "seed": 42,
    "expected_slope": 1.1,
}


def _write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_omin1d_spec(tmp_path):
    spec = _write_spec(tmp_path, OMIN_SPEC)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == 0
    csv_text = (out / "results.csv").read_text()
    assert csv_text.splitlines()[0].startswith("experiment_id,structure,engine,n,trial")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope"] <= 1.1
    assert all(rep["passed"] for rep in summary["verification"])


def test_run_byte_identical_with_same_seed(tmp_path):
    spec = _write_spec(tmp_path, OMIN_SPEC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--spec", spec, "--out-dir", str(out1)]) == 0
    assert main(["run", "--spec", spec, "--out-dir", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_different_seed_changes_rows(tmp_path):
    spec = _write_spec(tmp_path, OMIN_SPEC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--spec", spec, "--out-dir", str(out1)]) == 0
    assert main(["run", "--spec", spec, "--seed", "43", "--out-dir", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_schema_error_engine_mismatch(tmp_path):
    bad = dict(OMIN_SPEC, engine="padic")
    spec = _write_spec(tmp_path, bad)
    assert main(["run", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2


def test_schema_error_conj_cells_point_dim(tmp_path, capsys):
    payload = {
        "structure": "vector-linear",
        "family": {
            "kind": "vector-linear", "point_dim": 2, "param_dim": 1,
            "predicates": [{"f": [1, 1], "g": [-1], "rel": "trichotomy"}],
        },
        "sizes": [4, 8], "trials": 1, "seed": 1,
    }
    spec = _write_spec(tmp_path, payload)
    assert main(["run", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
    assert "/family/point_dim" in capsys.readouterr().err


def test_schema_error_plane_point_dim(tmp_path, capsys):
    payload = {
        "structure": "semilinear-plane",
        "family": {
            "kind": "semilinear", "point_dim": 3, "param_dim": 1,
            "predicates": [{"atom": {"x": [1, 0, 0], "y": [-1], "rel": "<"}}],
        },
        "sizes": [2, 3], "trials": 1, "seed": 1,
    }
    spec = _write_spec(tmp_path, payload)
    assert main(["run", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
    assert "/family/point_dim" in capsys.readouterr().err


PRESBURGER_SPEC = {
    "structure": "presburger",
    "family": {
        "kind": "congruence", "point_dim": 1, "param_dim": 1, "modulus": 2,
        "predicates": [
            {"type": "order", "f": [1], "g": [-1], "rel": "trichotomy"},
            {"type": "mod", "f": [1], "g": [-1], "c": 0},
            {"type": "mod", "f": [1], "g": [-1], "c": 1},
        ],
    },
    "sizes": [4, 8], "trials": 1, "seed": 1,
}


VL_SPEC = {
    "structure": "vector-linear",
    "family": {
        "kind": "vector-linear", "point_dim": 1, "param_dim": 1,
        "predicates": [{"f": [1], "g": [-1], "rel": "trichotomy"}],
    },
    "sizes": [4, 8], "trials": 1, "seed": 1,
}


MAC_SPEC = {
    "structure": "padic-macintyre",
    "family": {
        "kind": "valuation-macintyre", "param_dim": 1, "prime": 3, "n": 2,
        "F": [[1]], "C": [[1]], "lambda": [1, 2],
    },
    "sizes": [4], "trials": 1, "seed": 1,
}
LAFF_SPEC = {
    "structure": "padic-laff",
    "family": {
        "kind": "valuation-laff", "param_dim": 1, "prime": 3, "m": 2, "n": 1,
        "C": [[1], [2]], "lambda": [1],
    },
    "sizes": [4], "trials": 1, "seed": 1,
}


def _with_family(spec, **fields):
    return dict(spec, family=dict(spec["family"], **fields))


def _with_mod_atom(**fields):
    family = json.loads(json.dumps(PRESBURGER_SPEC["family"]))
    family["predicates"][1].update(fields)
    return dict(PRESBURGER_SPEC, family=family)


@pytest.mark.parametrize("payload, path", [
    (dict(OMIN_SPEC, verify_instances="two"), "/verify_instances"),
    (dict(OMIN_SPEC, generator={"height": "abc"}), "/generator/height"),
    (dict(OMIN_SPEC, generator={"den": 0}), "/generator/den"),
    (dict(OMIN_SPEC, generator={"kind": "foo"}), "/generator/kind"),
    (dict(OMIN_SPEC, family=dict(OMIN_SPEC["family"], point_dim="1")), "/family/point_dim"),
    (dict(PRESBURGER_SPEC, generator={"kind": "rationals"}), "/generator/kind"),
    (_with_mod_atom(g=["1/2"]), "/family/predicates/1/g/0"),
    (_with_mod_atom(f={"coeffs": [1], "const": "1/3"}), "/family/predicates/1/f/const"),
    (_with_mod_atom(c="1/2"), "/family/predicates/1/c"),
    (dict(PRESBURGER_SPEC, family=dict(PRESBURGER_SPEC["family"], predicates=["x"])),
     "/family/predicates/0"),
    (dict(OMIN_SPEC, family=dict(OMIN_SPEC["family"], predicates=[{"atom": [1]}])),
     "/family/predicates/0/atom"),
    (dict(OMIN_SPEC, family=dict(OMIN_SPEC["family"], predicates=5)), "/family/predicates"),
    (_with_family(OMIN_SPEC, predicates=[{"atom": {"x": [1], "y": [-1], "rel": "!"}}]),
     "/family/predicates/0/atom/rel"),
    (_with_family(MAC_SPEC, F=5), "/family/F"),
    (_with_family(MAC_SPEC, C={"coeffs": [1]}), "/family/C"),
    (_with_family(MAC_SPEC, **{"lambda": 2}), "/family/lambda"),
    (_with_family(MAC_SPEC, prime=9), "/family/prime"),
    (_with_family(LAFF_SPEC, C=[1]), "/family/C/0"),
    (_with_family(LAFF_SPEC, C="y"), "/family/C"),
    (_with_family(LAFF_SPEC, prime=15), "/family/prime"),
    (_with_family(VL_SPEC, predicates=[{"f": [1], "g": [-1], "rel": "<"}]),
     "/family/predicates"),
    (_with_family(PRESBURGER_SPEC, predicates=PRESBURGER_SPEC["family"]["predicates"][:2]),
     "/family/predicates"),
    (_with_family(VL_SPEC, predicates=[{"f": [0], "g": [-1], "rel": "trichotomy"}]),
     "/family/predicates/0/f"),
    (_with_family(OMIN_SPEC, kind="interval"), "/family/kind"),
    (dict(OMIN_SPEC, expected_slope=float("nan")), "/expected_slope"),
    (dict(OMIN_SPEC, expected_slope=float("inf")), "/expected_slope"),
    (dict(OMIN_SPEC, expected_slope=True), "/expected_slope"),
    (dict(OMIN_SPEC, trials=True), "/trials"),
    (dict(OMIN_SPEC, seed=True), "/seed"),
    (dict(OMIN_SPEC, sizes=[True, 8]), "/sizes"),
    (_with_family(MAC_SPEC, **{"lambda": [True]}), "/family/lambda/0"),
    (_with_family(PRESBURGER_SPEC, modulus=True), "/family/modulus"),
    (_with_family(LAFF_SPEC, m=True), "/family/m"),
    (_with_family(VL_SPEC, predicates=[{"f": [1, 5], "g": [1, 9], "rel": "trichotomy"}]),
     "/family/predicates/0/f"),
    (_with_family(VL_SPEC, predicates=[{"f": [1], "g": [1, 9], "rel": "trichotomy"}]),
     "/family/predicates/0/g"),
    (_with_family(VL_SPEC, predicates=[{"f": [1], "g": {"coeffs": [1, 9]}, "rel": "trichotomy"}]),
     "/family/predicates/0/g/coeffs"),
    (_with_mod_atom(f=[1, 5]), "/family/predicates/1/f"),
    (_with_mod_atom(g=[-1, 9]), "/family/predicates/1/g"),
    (_with_family(MAC_SPEC, F=[[1, 5]]), "/family/F/0"),
    (_with_family(MAC_SPEC, C=[[1], [1, 9]]), "/family/C/1"),
    (_with_family(LAFF_SPEC, C=[[1], {"coeffs": [2, 1]}]), "/family/C/1/coeffs"),
], ids=[
    "verify-instances", "height", "den", "generator-kind", "point-dim",
    "presburger-rationals", "mod-g", "mod-f-const", "mod-c",
    "predicate-not-object", "atom-not-object", "predicates-not-list",
    "atom-rel", "mac-F-not-list", "mac-C-not-list", "mac-lambda-not-list",
    "mac-prime-9", "laff-C-entry", "laff-C-not-list", "laff-prime-15",
    "vl-no-trichotomy", "presburger-missing-residue", "vl-zero-f", "interval-kind",
    "slope-nan", "slope-inf", "slope-bool", "trials-bool", "seed-bool", "sizes-bool", "lambda-bool",
    "modulus-bool", "laff-m-bool", "vl-f-long", "vl-g-long", "vl-g-coeffs-long",
    "mod-f-long", "mod-g-long", "mac-F-long", "mac-C-long", "laff-C-long",
])
def test_schema_error_field(tmp_path, capsys, payload, path):
    spec = _write_spec(tmp_path, payload)
    assert main(["run", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
    assert f"schema error at {path}:" in capsys.readouterr().err


def test_shorter_coefficient_lists_leave_variables_out():
    fam = load_family({
        "kind": "vector-linear", "point_dim": 1, "param_dim": 2,
        "predicates": [{"f": [1], "g": [-1], "rel": "trichotomy"}],
    })
    atom = fam.preds[0]
    assert atom.g((F(3), F(5))) == -3


def test_schema_error_too_few_distinct_parameters(tmp_path):
    # 3 possible parameters {-1, 0, 1} cannot fill a set of 8: the sampler
    # would redraw forever, so the loader must refuse the spec; a subprocess
    # with a timeout keeps a hang from stalling the suite
    payload = dict(OMIN_SPEC, generator={"kind": "integers", "height": 1}, sizes=[8])
    spec = _write_spec(tmp_path, payload)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "distalcells.cli", "run", "--spec", spec,
         "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "schema error at /generator/height:" in proc.stderr


@pytest.mark.parametrize("generator, sizes", [
    ({"kind": "integers", "height": 1}, [3]),
    ({"kind": "rationals", "height": 1, "den": 2}, [5]),
    ({"kind": "padic-rationals", "height": 1, "den": 2}, [7]),
])
def test_generator_range_exactly_enough(generator, sizes):
    # {-1, 0, 1}; then +-1/2 besides; then +-1/3 (p = 3) besides
    load_experiment(dict(OMIN_SPEC, generator=generator, sizes=sizes))
    with pytest.raises(SpecError) as err:
        load_experiment(dict(OMIN_SPEC, generator=generator, sizes=[sizes[0] + 1]))
    assert err.value.path == "/generator/height"


def test_schema_error_missing_seed():
    payload = {k: v for k, v in OMIN_SPEC.items() if k != "seed"}
    with pytest.raises(SpecError) as err:
        load_experiment(payload)
    assert "/seed" in str(err.value)


def test_load_family_presburger_descriptor():
    fam = load_family({
        "kind": "congruence",
        "point_dim": 1,
        "param_dim": 1,
        "modulus": 2,
        "predicates": [
            {"type": "order", "f": [1], "g": [-1], "rel": "trichotomy"},
            {"type": "mod", "f": [1], "g": [-1], "c": 0},
            {"type": "mod", "f": [1], "g": [-1], "c": 1},
        ],
    })
    assert fam.kind == "congruence" and len(fam.preds) == 5


def test_load_family_macintyre_descriptor():
    fam = load_family({
        "kind": "valuation-macintyre",
        "param_dim": 1,
        "prime": 3,
        "n": 2,
        "F": [{"coeffs": [0]}, {"coeffs": [1]}],
        "C": [{"coeffs": [1]}],
        "lambda": ["1", "2"],
    })
    assert fam.kind == "valuation-macintyre"
    assert len(fam.meta["F"]) == 2  # zero map deduplicated in


def test_run_padic_spec(tmp_path):
    payload = {
        "experiment_id": "mac-example",
        "structure": "padic-macintyre",
        "family": {
            "kind": "valuation-macintyre",
            "param_dim": 1,
            "prime": 3,
            "n": 2,
            "F": [{"coeffs": [0]}, {"coeffs": [1]}],
            "C": [{"coeffs": [1]}],
            "lambda": [1, 2],
        },
        "sizes": [4, 8, 16],
        "trials": 2,
        "seed": 7,
        "expected_slope": 1.1,
        "generator": {"kind": "padic-rationals", "height": 80},
    }
    spec = _write_spec(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope"] <= 1.1


def test_table_subcommand(capsys):
    assert main(["table"]) == 0
    text = capsys.readouterr().out
    assert "Presburger arithmetic" in text
    assert "3|x|-2" in text
    assert "metadata only" in text


def test_zarankiewicz_subcommand(tmp_path, capsys):
    assert main([
        "zarankiewicz", "--sizes", "64,128,256,512", "--out-dir", str(tmp_path)
    ]) == 0
    text = (tmp_path / "zarankiewicz.csv").read_text()
    assert text.splitlines()[0] == "experiment,m,n,edges,q,r,ratio,build,seed"
    assert len(text.splitlines()) == 5


@pytest.mark.parametrize("argv", [
    ["sumproduct", "--max-size", "1"],
    # 102 and up could loop forever drawing distinct integers from [-50, 50];
    # with no trials to run, a missing check returns 0 at once
    ["sumproduct", "--max-size", "102", "--trials", "0"],
    ["sumproduct", "--max-size", "150", "--trials", "0"],
    ["zarankiewicz", "--sizes", "60"],
    ["zarankiewicz", "--sizes", "0"],
    ["zarankiewicz", "--sizes", "64,-16"],
], ids=["max-size-1", "max-size-102", "max-size-150", "sizes-60", "sizes-0", "sizes-negative"])
def test_incidence_subcommands_reject_bad_arguments(tmp_path, capsys, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("--")
    assert not list(tmp_path.iterdir())


def test_sumproduct_subcommand(tmp_path):
    assert main([
        "sumproduct", "--trials", "5", "--max-size", "12",
        "--seed", "3", "--out-dir", str(tmp_path)
    ]) == 0
    text = (tmp_path / "sumproduct.csv").read_text()
    assert len(text.splitlines()) == 11  # header + 2 rows per trial


PLANE_SPEC = {
    "experiment_id": "plane-xlty",
    "structure": "semilinear-plane",
    "family": {
        "kind": "semilinear", "point_dim": 2, "param_dim": 1,
        "predicates": [{"atom": {"x": [1, 0], "y": [-1], "rel": "<"}}],
    },
    "sizes": [2, 13], "trials": 1, "seed": 5,
}


def test_run_plane_reports_capped_verification(tmp_path):
    # dimension induction is verified on at most 12 parameters: the size-13
    # report says which size it stands for, the size-2 report is not capped
    spec = _write_spec(tmp_path, PLANE_SPEC)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == 0
    reports = json.loads((out / "summary.json").read_text())["verification"]
    assert [r["n"] for r in reports] == [2, 12]
    assert "capped_from" not in reports[0]
    assert reports[1]["capped_from"] == 13
    assert all(r["passed"] for r in reports)
    verify_rows = [
        line.split(",") for line in (out / "results.csv").read_text().splitlines()
        if ",verify," in line
    ]
    assert [row[3] for row in verify_rows] == ["2", "12"]
