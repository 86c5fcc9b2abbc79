"""The cells of planar dimension induction on seeded instances, pinned in
tests/data/plane_cells.json.

The instances are the family x1 - x2 + y1 < 0, x1 + x2 - y2 < 0,
x2 - y2 < 0 at |B| = 3 and 6, and eight coefficient patterns of the
two-atom family a1 x1 + a2 x2 + s y1 REL c, x2 < y2.  Each instance
records B, the two extra parameters, and for every cell of `instantiate`,
in order: its template, its extent key, its sample, its membership bits
over `plane_probes(..., steps=8)` (bit k set when the locator puts probe k
in the cell) and its exclusion
bits over B followed by the extra parameters.  The bits over B are clear: a
cell of T(B) is by definition excluded by no parameter of B.  An extra
parameter's bit is read by heredity: it is set when no cell of
T(B + [b]) has the cell's extent key.  Fractions are written as "n/d" strings.  Run this file as a
script to write the dump to the path given on the command line.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from distalcells.families import semilinear_family
from distalcells.induction import induct, plane_probes
from distalcells.linear import f_atom
from distalcells.rng import SplitMix64

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "plane_cells.json"

# (a1, a2, s, rel) of the first atom a1 x1 + a2 x2 + s y1 - c REL 0
PATTERNS = [
    (1, 0, -1, "<"), (1, 1, 1, "<="), (1, -1, -1, ">"), (2, 0, 1, "<="),
    (2, 1, -1, ">"), (2, -1, 1, "<"), (-1, 1, -1, "<="), (-1, -1, 1, ">"),
]


def _json(v):
    """v with Fractions as "n/d" strings and tuples as lists."""
    if isinstance(v, F):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    return v


def _distinct(rng: SplitMix64, n: int, num: int, den: int, avoid=()) -> list:
    out: list = []
    while len(out) < n:
        b = (rng.fraction(num, den), rng.fraction(num, den))
        if b not in out and b not in avoid:
            out.append(b)
    return out


def _instances():
    """(label, family, B, extra parameters) for every pinned instance."""
    found = semilinear_family(
        [f_atom([1, -1, 1, 0], 0, "<"), f_atom([1, 1, 0, -1], 0, "<"),
         f_atom([0, 1, 0, -1], 0, "<")], 2, 2,
    )
    for n in (3, 6):
        rng = SplitMix64(7).split(n)
        B = _distinct(rng, n, 30, 3)
        yield f"found-{n}", found, B, _distinct(rng, 2, 30, 3, B)
    for i, (a1, a2, s, rel) in enumerate(PATTERNS):
        rng = SplitMix64(1900).split(i)
        fam = semilinear_family(
            [f_atom([a1, a2, s, 0], -rng.fraction(3, 2), rel), f_atom([0, 1, 0, -1], 0, "<")],
            2, 2,
        )
        B = _distinct(rng, 2, 5, 2)
        yield f"pattern-{i}", fam, B, _distinct(rng, 2, 5, 2, B)


def dump() -> list:
    out = []
    for label, fam, B, extra in _instances():
        probes = plane_probes(fam, B, steps=8)
        decomp = induct(fam)
        after = [{c.extent_key for c in decomp.instantiate(B + [b])} for b in extra]
        instance = decomp.instantiate(B)
        members = [0] * len(instance)
        locate = decomp.locator_fn(instance)
        for k, p in enumerate(probes):
            for ci in locate(p):
                members[ci] |= 1 << k
        cells = []
        for c, member in zip(instance, members):
            bits = [False] * len(B) + [c.extent_key not in keys for keys in after]
            excluded = sum(1 << j for j, bit in enumerate(bits) if bit)
            cells.append({
                "template": c.template,
                "key": _json(c.extent_key),
                "sample": _json(c.region.sample),
                "member": hex(member),
                "excluded": hex(excluded),
            })
        out.append({"label": label, "B": _json(B), "extra": _json(extra), "cells": cells})
    return out


def test_cells_match_pinned_cells():
    golden = json.loads(GOLDEN.read_text())
    got = dump()
    assert [g["label"] for g in got] == [w["label"] for w in golden]
    for g, want in zip(got, golden):
        assert g["B"] == want["B"] and g["extra"] == want["extra"], g["label"]
        assert len(g["cells"]) == len(want["cells"]), g["label"]
        for k, (cell, pinned) in enumerate(zip(g["cells"], want["cells"])):
            assert cell == pinned, (g["label"], k)


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(dump(), separators=(",", ":")) + "\n")
