"""The extent keys of Presburger conjunction cells on seeded instances,
pinned in tests/data/presburger_cells.json.

The instances are the `presburger_parity` example family at |B| = 4, 12, 32
and 64; families at K = 2, 3, 4 and 6 with two order triples and two mod
shapes of different moduli; a family with order atoms only; and B = [].
Each instance records B, the cell count and the sorted extent keys.  Run
this file as a script to write the dump to the path given on the command
line.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from distalcells.conjcells import conj_decomposition
from distalcells.descriptors import load_experiment
from distalcells.families import CongAtom, congruence_family
from distalcells.linear import AffineMap
from distalcells.rng import SplitMix64

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "presburger_cells.json"

# per K, the x-coefficients of the two mod shapes; the moduli are
# K / gcd(a, K): 2 and 1, 3 and 1, 4 and 2, 3 and 2
MOD_COEFFS = {2: (1, 2), 3: (1, 3), 4: (1, 2), 6: (2, 3)}


def _parity_family():
    spec = json.loads((ROOT / "docs" / "examples" / "presburger_parity.json").read_text())
    return load_experiment(spec).family


def _mixed_family(K: int, mod_coeffs=()):
    # x against y, and -2x against y/2 + 3/2 (half-integer thresholds)
    atoms = [CongAtom(AffineMap.of([1]), AffineMap.of([1]), r) for r in ("<", "=", ">")]
    atoms += [
        CongAtom(AffineMap.of([-2]), AffineMap.of([F(1, 2)], F(3, 2)), r) for r in ("<", "=", ">")
    ]
    for a, g in zip(mod_coeffs, (1, -1)):
        atoms += [CongAtom(AffineMap.of([a], 1), AffineMap.of([g], c), "mod") for c in range(K)]
    return congruence_family(atoms, K=K, point_dim=1, param_dim=1)


def _draw(rng: SplitMix64, n: int, height: int) -> list:
    out: list = []
    while len(out) < n:
        v = rng.randint(-height, height)
        if v not in out:
            out.append(v)
    return out


def _instances():
    """(label, family, B as ints) for every pinned instance."""
    parity = _parity_family()
    for n in (4, 12, 32, 64):
        for t in range(2):
            yield f"parity-{n}-{t}", parity, _draw(SplitMix64(1600 + n).split(t), n, 200)
    for K, coeffs in MOD_COEFFS.items():
        fam = _mixed_family(K, coeffs)
        for n in (1, 5, 12):
            yield f"K{K}-{n}", fam, _draw(SplitMix64(1700 + K).split(n), n, 30)
    yield "order-only-8", _mixed_family(5), _draw(SplitMix64(1800), 8, 30)
    yield "parity-empty", parity, []
    yield "K6-empty", _mixed_family(6, MOD_COEFFS[6]), []


def dump() -> list:
    out = []
    for label, fam, B in _instances():
        cells = conj_decomposition(fam, [F(b) for b in B])
        keys = sorted((list(c.extent_key) for c in cells), key=json.dumps)
        out.append({"label": label, "K": fam.meta["K"], "B": B, "count": len(cells), "keys": keys})
    return out


def test_cells_match_pinned_keys():
    golden = json.loads(GOLDEN.read_text())
    got = dump()
    assert [g["label"] for g in got] == [w["label"] for w in golden]
    for g, want in zip(got, golden):
        assert g == want, g["label"]
        assert g["count"] == len({json.dumps(k) for k in g["keys"]}), g["label"]


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(dump(), separators=(",", ":")) + "\n")
