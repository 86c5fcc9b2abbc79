"""Spans and exact call counts around distalcells' public functions.

`Tracer.install` replaces each traced function, in every distalcells module
that holds it, by a wrapper of the benchmark's own; `uninstall` puts the
originals back.  Nothing in the program changes.  A timed wrapper records a
span (name, duration, time in its direct child spans, op index); a counting
wrapper only increments a counter.  Spans stay in memory until the run
computes its metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from distalcells import decomp, families, incidence, induction, linear, padic, scalars

# (owner, attribute, span or counter name); a span name of None means the
# name is chosen per call (instantiate is attributed to its engine)
TIMED = [
    (decomp, "shatter_estimate", "decomp.shatter_estimate"),
    (decomp, "verify", "decomp.verify"),
    (decomp.Decomposition, "instantiate", None),
    (families, "census_probes_1d", "families.census_probes_1d"),
    (families, "fast_truth_masks", "families.truth_masks"),
    (families.ParamFamily, "truth_mask", "families.truth_masks"),
    (padic, "arrangement", "padic.arrangement"),
    (padic, "family_probes", "padic.family_probes"),
    (induction, "induct", "induction.induct"),
    (induction, "plane_probes", "induction.plane_probes"),
    (incidence, "sum_product_experiment", "incidence.sum_product"),
    (incidence, "sum_bb_experiment", "incidence.sum_bb"),
    (incidence, "zarankiewicz_check", "incidence.zarankiewicz"),
    (incidence, "contains_ksu", "incidence.contains_ksu"),
]
COUNTED = [
    (families.ParamFamily, "evaluate", "families.evaluate"),
    (linear, "eval_formula", "linear.eval_formula"),
    (linear, "components_1d", "linear.components_1d"),
    (linear, "eliminate_exists", "linear.eliminate_exists"),
    (scalars, "valuation", "scalars.valuation"),
    (scalars, "in_pn", "scalars.in_pn"),
]

# spans whose (engine, result) the metrics read: reports and shatter tables
KEEP_RESULT = ("decomp.verify", "decomp.shatter_estimate")

ENGINES = (("omin1d", "omin1d"), ("conj-", "conjcells"), ("padic-", "padic"), ("dim-induction", "induction"))


def engine_of(decomposition) -> str:
    for prefix, engine in ENGINES:
        if decomposition.name.startswith(prefix):
            return engine
    return "other"


@dataclass
class Span:
    name: str
    op: int
    ns: int
    children: dict  # direct child span name -> summed ns
    parent: str | None
    result: tuple | None  # (engine, return value) for KEEP_RESULT spans


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # (name, op) -> calls
    op: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, orig, name):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name or engine_of(args[0]) + ".instantiate"
            frame = (label, {})
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                ns = clock() - t0
                stack.pop()
                parent = None
                if stack:
                    parent, siblings = stack[-1]
                    siblings[label] = siblings.get(label, 0) + ns
            kept = (engine_of(args[0]), result) if label in KEEP_RESULT else None
            spans.append(Span(label, self.op, ns, frame[1], parent, kept))
            return result

        return wrapper

    def _counted(self, orig, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.op] += 1
            return orig(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sys.modules.items() if n.startswith("distalcells") and m]
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for owner, attr, name in targets:
                orig = owner.__dict__[attr]
                wrapper = make(orig, name)
                holders = [owner] + [m for m in mods if m is not owner and m.__dict__.get(attr) is orig]
                for holder in holders:
                    self._undo.append((holder, attr, orig))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)


# -- per-layer metrics ------------------------------------------------------------


def _med_ms(values) -> float:
    values = list(values)
    return statistics.median(values) / 1e6 if values else 0.0


def _self_ns(span: Span, keep=lambda name: True) -> int:
    return span.ns - sum(ns for name, ns in span.children.items() if keep(name))


def layer_metrics(tr: Tracer, count_ops: list[int]) -> dict:
    """Per-layer figures.  `_ms` figures are medians per call over every
    traced op; `_calls` and cell figures are per op over `count_ops`, whose
    inputs depend on the seed alone, so they repeat exactly."""
    by_name: dict[str, list[Span]] = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}
    per_op = max(1, len(count_ops))
    ops = set(count_ops)

    def calls(name: str) -> float:
        return sum(n for (k, op), n in tr.counts.items() if k == name and op in ops) / per_op

    for engine in ("omin1d", "conjcells", "padic", "induction"):
        m[f"{engine}.instantiate_ms"] = _med_ms(s.ns for s in by_name.get(f"{engine}.instantiate", []))
    for engine in ("conjcells", "padic"):
        m[f"{engine}.instantiate_calls"] = sum(
            1 for s in by_name.get(f"{engine}.instantiate", []) if s.op in ops
        ) / per_op

    # raw and deduplicated cells of the top-level shatter trials and reports
    raw: Counter = Counter()
    kept: Counter = Counter()
    for s in by_name.get("decomp.verify", []) + by_name.get("decomp.shatter_estimate", []):
        if s.op not in ops:
            continue
        engine = s.result[0]
        if s.name == "decomp.verify":
            raw[engine] += s.result[1].cell_count_raw
            kept[engine] += s.result[1].cell_count_deduped
        else:
            for row in s.result[1].rows:
                raw[engine] += row.cells_raw
                kept[engine] += row.cells_deduped
    for engine in ("omin1d", "conjcells", "padic"):
        m[f"{engine}.cells_raw"] = raw[engine] / per_op
        m[f"{engine}.dedupe_ratio"] = kept[engine] / raw[engine] if raw[engine] else 0.0

    m["padic.arrangement_ms"] = _med_ms(s.ns for s in by_name.get("padic.arrangement", []))
    m["padic.family_probes_ms"] = _med_ms(s.ns for s in by_name.get("padic.family_probes", []))

    shatter = by_name.get("decomp.shatter_estimate", [])
    m["decomp.shatter_estimate_ms"] = _med_ms(s.ns for s in shatter)
    m["decomp.shatter_self_ms"] = _med_ms(
        _self_ns(s, lambda n: n.endswith(".instantiate")) for s in shatter
    )
    verifies = by_name.get("decomp.verify", [])
    m["decomp.verify_ms"] = _med_ms(s.ns for s in verifies)
    m["decomp.verify_self_ms"] = _med_ms(_self_ns(s) for s in verifies)
    m["decomp.verify_probes"] = (
        statistics.median(s.result[1].probe_count for s in verifies) if verifies else 0.0
    )
    m["families.truth_masks_ms"] = _med_ms(
        s.children.get("families.truth_masks", 0) for s in verifies
    )
    m["families.evaluate_calls"] = calls("families.evaluate")
    m["families.census_probes_1d_ms"] = _med_ms(
        s.ns for s in by_name.get("families.census_probes_1d", [])
    )
    m["induction.induct_ms"] = _med_ms(
        s.ns for s in by_name.get("induction.induct", []) if s.parent != "induction.induct"
    )
    m["induction.plane_probes_ms"] = _med_ms(s.ns for s in by_name.get("induction.plane_probes", []))
    for name in (
        "linear.eliminate_exists", "linear.eval_formula", "linear.components_1d",
        "scalars.in_pn", "scalars.valuation",
    ):
        m[f"{name}_calls"] = calls(name)
    for name in ("sum_product", "sum_bb", "zarankiewicz", "contains_ksu"):
        m[f"incidence.{name}_ms"] = _med_ms(s.ns for s in by_name.get(f"incidence.{name}", []))
    return m
