"""Tests of the benchmark's own code: every correctness check rejects a
deliberately wrong output and accepts the right one, the order statistics
pick the right samples, and the tracer leaves the program as it found it.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from distalcells import decomp, families, linear  # noqa: E402
from distalcells.families import type_census_1d  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.Sweep1D()
    ctx = wl.setup(ROOT, SEED)
    inp = wl.make_input(ctx, 0)
    return wl, ctx, inp, wl.run(ctx, inp)


@pytest.fixture(scope="module")
def verify1d():
    wl = workloads.Verify1D()
    ctx = wl.setup(ROOT, SEED)
    inp = wl.make_input(ctx, 0)
    return wl, ctx, inp, wl.run(ctx, inp)


@pytest.fixture(scope="module")
def plane():
    wl = workloads.PlaneInduction()
    ctx = wl.setup(ROOT, SEED)
    inp = wl.make_input(ctx, 0)
    return wl, ctx, inp, wl.run(ctx, inp)


@pytest.fixture(scope="module")
def incidence_op():
    wl = workloads.Incidence()
    ctx = wl.setup(ROOT, SEED)
    inp = wl.make_input(ctx, 0)
    return wl, ctx, inp, wl.run(ctx, inp)


# -- order statistics ----------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50), (21, 52), (40, 75), (50, 80), (55, 81), (100, 90), (1000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    assert measure.tail_percentile(n) == pct
    assert measure.beyond(n, pct) >= 10
    if pct < 99:
        assert measure.beyond(n, pct + 1) < 10


def test_tail_percentile_none_below_twenty_samples():
    assert measure.tail_percentile(19) is None


def test_tail_percentile_counts_samples_strictly_beyond():
    values = list(range(1, 51))
    pct = measure.tail_percentile(len(values))
    cut = measure.percentile(values, pct)
    assert sum(v > cut for v in values) == 10


def test_percentile_nearest_rank():
    assert measure.percentile([5, 1, 3, 2, 4], 50) == 3
    assert measure.percentile([5, 1, 3, 2, 4], 80) == 4
    assert measure.percentile([5, 1, 3, 2, 4], 100) == 5


# -- sweep-1d --------------------------------------------------------------------


def _tamper_row(out, family_index, delta):
    out = list(out)
    table, drawn = out[family_index]
    rows = list(table.rows)
    rows[0] = replace(rows[0], cells_deduped=rows[0].cells_deduped + delta)
    out[family_index] = (replace(table, rows=rows), drawn)
    return out


def test_sweep_accepts_program_output(sweep):
    wl, ctx, inp, out = sweep
    wl.check(ctx, inp, out)


@pytest.mark.parametrize("family_index", [0, 1])  # halfline, Presburger
@pytest.mark.parametrize("delta", [-1, 1])
def test_sweep_rejects_cell_count_off_by_one(sweep, family_index, delta):
    wl, ctx, inp, out = sweep
    with pytest.raises(CheckError):
        wl.check(ctx, inp, _tamper_row(out, family_index, delta))


def test_presburger_count_matches_exact_census(sweep):
    _, ctx, _, out = sweep
    preds, K = ctx["presburger"]
    family = ctx["specs"]["presburger_parity"].family
    for B in out[1][1]:
        assert checks.presburger_type_count(preds, K, B) == type_census_1d(family, B).count


def test_slope_check_rejects_steep_growth():
    checks.check_slope("flat", {8: 9, 16: 17, 32: 33}, 1.1)
    with pytest.raises(CheckError):
        checks.check_slope("steep", {8: 9, 16: 40, 32: 160}, 1.1)


# -- verify-1d -------------------------------------------------------------------


def test_verify1d_accepts_program_output(verify1d):
    wl, ctx, inp, out = verify1d
    wl.check(ctx, inp, out)


@pytest.mark.parametrize("case", range(4))
def test_verify1d_rejects_failed_report(verify1d, case):
    wl, ctx, inp, out = verify1d
    bad = list(out)
    bad[case] = replace(out[case], uncrossed=False)
    with pytest.raises(CheckError):
        wl.check(ctx, inp, bad)


@pytest.mark.parametrize("case", [0, 1])  # the ordered families
def test_verify1d_rejects_census_off_by_one(verify1d, case):
    wl, ctx, inp, out = verify1d
    bad = list(out)
    bad[case] = replace(out[case], census_lower_bound=out[case].census_lower_bound + 1)
    with pytest.raises(CheckError):
        wl.check(ctx, inp, bad)


def test_verify1d_rejects_omin1d_count_over_bound(verify1d):
    wl, ctx, inp, out = verify1d
    bound = checks.omin1d_cell_bound(inp[0].components, len(inp[0].B))
    bad = [replace(out[0], cell_count_deduped=bound + 1)] + list(out[1:])
    with pytest.raises(CheckError):
        wl.check(ctx, inp, bad)


def test_ordered_census_matches_exact_census(verify1d):
    _, _, inp, _ = verify1d
    for case in inp[:2]:
        want = type_census_1d(case.family, case.B).count
        assert checks.ordered_census(case.preds, case.B) == want


# -- plane-induction ------------------------------------------------------------------


def test_plane_accepts_program_output(plane):
    wl, ctx, inp, out = plane
    wl.check(ctx, inp, out)


def test_plane_rejects_failed_report_and_wrong_census(plane):
    wl, ctx, inp, (rep, probes) = plane
    with pytest.raises(CheckError):
        wl.check(ctx, inp, (replace(rep, covered=False), probes))
    with pytest.raises(CheckError):
        wl.check(ctx, inp, (replace(rep, census_lower_bound=rep.census_lower_bound - 1), probes))


# -- incidence ----------------------------------------------------------------------------


def test_incidence_accepts_program_output(incidence_op):
    wl, ctx, inp, out = incidence_op
    wl.check(ctx, inp, out)


@pytest.mark.parametrize("part, field", [
    (0, "incidences"), (0, "sumset"), (0, "productset"), (1, "incidences"), (2, "edges"),
])
def test_incidence_rejects_wrong_count(incidence_op, part, field):
    wl, ctx, inp, out = incidence_op
    bad = list(out)
    if part == 0 and field == "incidences":
        bad[0] = replace(out[0], incidences=len(inp[0]) ** 3 - 1)
    else:
        bad[part] = replace(out[part], **{field: getattr(out[part], field) + 1})
    with pytest.raises(CheckError):
        wl.check(ctx, inp, tuple(bad))


def test_incidence_rejects_found_k22(incidence_op):
    wl, ctx, inp, out = incidence_op
    with pytest.raises(CheckError):
        wl.check(ctx, inp, out[:3] + (True,))


# -- tracer ---------------------------------------------------------------------------------


def test_tracer_restores_program_and_counts_exactly(plane):
    from tracer import Tracer, layer_metrics

    wl, ctx, inp, _ = plane
    originals = (decomp.verify, families.ParamFamily.evaluate, linear.eval_formula)
    figures = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            tr.op = 0
            wl.run(ctx, inp)
        finally:
            tr.uninstall()
        figures.append(layer_metrics(tr, [0]))
    assert (decomp.verify, families.ParamFamily.evaluate, linear.eval_formula) == originals
    counts = [{k: v for k, v in f.items() if k.endswith("_calls")} for f in figures]
    assert counts[0] == counts[1]
    assert counts[0]["linear.eval_formula_calls"] > 0
    assert figures[0]["decomp.verify_ms"] > 0


def test_reference_speed_scales_by_mean_slice():
    ref = measure.SLICE_REF_MS
    assert measure.at_reference_speed(100.0, ref, ref) == pytest.approx(100.0)
    assert measure.at_reference_speed(100.0, 2 * ref, 2 * ref) == pytest.approx(50.0)
    assert measure.at_reference_speed(100.0, ref, 3 * ref) == pytest.approx(50.0)


def test_slope_check_rejects_too_few_sizes():
    with pytest.raises(CheckError):
        checks.check_slope("empty", {}, 1.1)
    with pytest.raises(CheckError):
        checks.check_slope("one size", {8: 9}, 1.1)
