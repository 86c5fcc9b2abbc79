"""JSON descriptors for families and experiment specs.

The descriptor format is documented with worked examples in
docs/family_descriptors.md; rationals may be written as integers or as
"num/den" strings.  Validation errors carry a JSON-pointer-style path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .conjcells import check_negation_closed
from .families import (
    CongAtom,
    ParamFamily,
    VLAtom,
    congruence_family,
    laff_family,
    macintyre_family,
    semilinear_family,
    vector_linear_family,
)
from .linear import AffineMap, f_and, f_atom, f_not, f_or, FALSE, TRUE
from .scalars import _is_prime


class SpecError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _rat(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise SpecError(path, f"bad rational: {e}")
    raise SpecError(path, f"expected rational, got {type(value).__name__}")


def _rats(values, path: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise SpecError(path, "expected a list")
    return [_rat(v, f"{path}/{i}") for i, v in enumerate(values)]


def _count(value, path: str, least: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise SpecError(path, f"integer >= {least} required")
    return value


def _predicates(family: dict, path: str) -> list[dict]:
    """The family's predicate entries, a list of JSON objects."""
    entries = family.get("predicates", [])
    if not isinstance(entries, list):
        raise SpecError(f"{path}/predicates", "expected a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpecError(f"{path}/predicates/{i}", "expected an object")
    return entries


def _integer_entries(obj, path: str) -> None:
    """Reject a non-integer entry of a coefficient list or {coeffs, const}
    object (already parsed by `_affine`)."""
    if isinstance(obj, list):
        entries = [(f"{path}/{j}", v) for j, v in enumerate(obj)]
    else:
        entries = [(f"{path}/coeffs/{j}", v) for j, v in enumerate(obj.get("coeffs", []))]
        entries.append((f"{path}/const", obj.get("const", 0)))
    for where, v in entries:
        if _rat(v, where).denominator != 1:
            raise SpecError(where, "congruence atoms need integer values")


def _affine(obj, path: str, dim: int) -> AffineMap:
    """An affine map of `dim` variables; a shorter coefficient list leaves
    the last variables out, a longer one is an error."""
    if isinstance(obj, list):
        where, coeffs, const = path, _rats(obj, path), 0
    elif isinstance(obj, dict):
        where = f"{path}/coeffs"
        coeffs = _rats(obj.get("coeffs", []), where)
        const = _rat(obj.get("const", 0), f"{path}/const")
    else:
        raise SpecError(path, "expected coefficient list or object")
    if len(coeffs) > dim:
        raise SpecError(where, f"more than {dim} coefficients")
    return AffineMap.of(coeffs, const)


ATOM_RELS = ("<", "<=", "=", "!=", ">", ">=")


def _affines(values, path: str, dim: int) -> list[AffineMap]:
    if not isinstance(values, list):
        raise SpecError(path, "expected a list")
    return [_affine(v, f"{path}/{i}", dim) for i, v in enumerate(values)]


def _prime(value, path: str) -> int:
    if not isinstance(value, int) or value < 3 or not _is_prime(value):
        raise SpecError(path, "odd prime >= 3 required")
    return value


def _formula(obj, point_dim: int, param_dim: int, path: str):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SpecError(path, "formula must be a single-key object")
    ((tag, body),) = obj.items()
    if tag == "const":
        return TRUE if body else FALSE
    if tag == "atom":
        if not isinstance(body, dict):
            raise SpecError(f"{path}/atom", "atom must be an object")
        x = _rats(body.get("x", []), f"{path}/atom/x")
        y = _rats(body.get("y", []), f"{path}/atom/y")
        if len(x) > point_dim or len(y) > param_dim:
            raise SpecError(f"{path}/atom", "coefficient lists exceed dimensions")
        x = x + [Fraction(0)] * (point_dim - len(x))
        y = y + [Fraction(0)] * (param_dim - len(y))
        rel = body.get("rel", "<")
        if rel not in ATOM_RELS:
            raise SpecError(f"{path}/atom/rel", f"bad relation {rel!r}")
        return f_atom(x + y, _rat(body.get("c", 0), f"{path}/atom/c"), rel)
    if tag == "not":
        return f_not(_formula(body, point_dim, param_dim, f"{path}/not"))
    if tag in ("and", "or"):
        if not isinstance(body, list):
            raise SpecError(f"{path}/{tag}", "expected a list of formulas")
        parts = [
            _formula(g, point_dim, param_dim, f"{path}/{tag}/{i}")
            for i, g in enumerate(body)
        ]
        return f_and(*parts) if tag == "and" else f_or(*parts)
    raise SpecError(path, f"unknown formula tag {tag!r}")


def load_family(obj: dict, path: str = "/family") -> ParamFamily:
    if not isinstance(obj, dict):
        raise SpecError(path, "family descriptor must be an object")
    kind = obj.get("kind")
    point_dim = _count(obj.get("point_dim", 1), f"{path}/point_dim", 1)
    param_dim = _count(obj.get("param_dim", 1), f"{path}/param_dim", 1)
    if kind == "semilinear":
        preds = [
            _formula(f, point_dim, param_dim, f"{path}/predicates/{i}")
            for i, f in enumerate(_predicates(obj, path))
        ]
        if not preds:
            raise SpecError(f"{path}/predicates", "at least one predicate required")
        return semilinear_family(preds, point_dim, param_dim)
    if kind == "vector-linear":
        atoms = []
        for i, a in enumerate(_predicates(obj, path)):
            p = f"{path}/predicates/{i}"
            f = _affine(a.get("f"), f"{p}/f", point_dim)
            if not any(f.coeffs):
                raise SpecError(f"{p}/f", "the x-part f must be nonzero")
            g_map = _affine(a.get("g"), f"{p}/g", param_dim)
            c = _rat(a.get("c", 0), f"{p}/c")
            g = AffineMap(g_map.coeffs, g_map.const + c)
            rel = a.get("rel")
            if rel == "trichotomy":
                atoms += [VLAtom(f, g, r) for r in ("<", "=", ">")]
            elif rel in ("<", "=", ">"):
                atoms.append(VLAtom(f, g, rel))
            else:
                raise SpecError(f"{p}/rel", f"bad relation {rel!r}")
        return vector_linear_family(atoms, point_dim, param_dim)
    if kind == "congruence":
        K = _count(obj.get("modulus"), f"{path}/modulus", 1)
        atoms = []
        for i, a in enumerate(_predicates(obj, path)):
            p = f"{path}/predicates/{i}"
            f = _affine(a.get("f"), f"{p}/f", point_dim)
            g_map = _affine(a.get("g"), f"{p}/g", param_dim)
            c = _rat(a.get("c", 0), f"{p}/c")
            g = AffineMap(g_map.coeffs, g_map.const + c)
            typ = a.get("type", "order")
            if typ == "mod":
                _integer_entries(a.get("f"), f"{p}/f")
                _integer_entries(a.get("g"), f"{p}/g")
                if c.denominator != 1:
                    raise SpecError(f"{p}/c", "congruence atoms need integer values")
                atoms.append(CongAtom(f, g, "mod"))
            elif typ == "order":
                rel = a.get("rel")
                if rel == "trichotomy":
                    atoms += [CongAtom(f, g, r) for r in ("<", "=", ">")]
                elif rel in ("<", "=", ">"):
                    atoms.append(CongAtom(f, g, rel))
                else:
                    raise SpecError(f"{p}/rel", f"bad relation {rel!r}")
            else:
                raise SpecError(f"{p}/type", f"bad atom type {typ!r}")
        return congruence_family(atoms, K, point_dim, param_dim)
    if kind == "valuation-macintyre":
        p_ = _prime(obj.get("prime"), f"{path}/prime")
        n = _count(obj.get("n"), f"{path}/n", 2)
        F = _affines(obj.get("F", []), f"{path}/F", param_dim)
        C = _affines(obj.get("C", []), f"{path}/C", param_dim)
        if not C:
            raise SpecError(f"{path}/C", "at least one center function required")
        lams = _rats(obj.get("lambda", [1]), f"{path}/lambda")
        return macintyre_family(F, C, lams, n, p_, param_dim)
    if kind == "valuation-laff":
        p_ = _prime(obj.get("prime"), f"{path}/prime")
        m = _count(obj.get("m"), f"{path}/m", 1)
        n = _count(obj.get("n"), f"{path}/n", 1)
        C = _affines(obj.get("C", []), f"{path}/C", param_dim)
        if not C:
            raise SpecError(f"{path}/C", "at least one center function required")
        lams = _rats(obj.get("lambda", [1]), f"{path}/lambda")
        return laff_family(C, m, n, lams, p_, param_dim)
    raise SpecError(f"{path}/kind", f"unknown family kind {kind!r}")


STRUCTURES = {
    "rationals-order": ("omin1d", ("semilinear",)),
    "vector-linear": ("conj-cells", ("vector-linear",)),
    "presburger": ("conj-cells", ("congruence",)),
    "padic-macintyre": ("padic", ("valuation-macintyre",)),
    "padic-laff": ("padic", ("valuation-laff",)),
    "semilinear-plane": ("dim-induction", ("semilinear",)),
}


@dataclass
class ExperimentSpec:
    experiment_id: str
    structure: str
    engine: str
    family: ParamFamily
    sizes: list[int]
    trials: int
    seed: int
    verify_instances: int = 2
    expected_slope: Optional[float] = None
    generator: dict = field(default_factory=dict)


def load_experiment(obj: dict) -> ExperimentSpec:
    if not isinstance(obj, dict):
        raise SpecError("/", "experiment spec must be an object")
    structure = obj.get("structure")
    if structure not in STRUCTURES:
        raise SpecError("/structure", f"unknown structure {structure!r}")
    default_engine, kinds = STRUCTURES[structure]
    engine = obj.get("engine", default_engine)
    if engine != default_engine:
        raise SpecError("/engine", f"engine {engine!r} incompatible with {structure!r}")
    family = load_family(obj.get("family"), "/family")
    if family.kind not in kinds:
        raise SpecError("/family/kind", f"kind {family.kind!r} incompatible with {structure!r}")
    # run's verify needs probes: the 1-D engines build exact ones, and
    # plane_probes covers dim-induction at |x| = 2 only
    if engine == "dim-induction" and family.point_dim != 2:
        raise SpecError("/family/point_dim", "dim-induction needs |x| = 2")
    if engine in ("omin1d", "padic", "conj-cells") and family.point_dim != 1:
        raise SpecError("/family/point_dim", f"{engine} needs |x| = 1")
    if engine == "conj-cells":
        try:
            check_negation_closed(family)
        except ValueError as e:
            raise SpecError("/family/predicates", str(e))
    sizes = obj.get("sizes")
    if not isinstance(sizes, list) or not sizes or not all(
        type(n) is int and n >= 1 for n in sizes
    ):
        raise SpecError("/sizes", "nonempty list of positive sizes required")
    trials = _count(obj.get("trials", 5), "/trials", 1)
    seed = obj.get("seed")
    if type(seed) is not int:
        raise SpecError("/seed", "an integer seed is mandatory")
    expected = obj.get("expected_slope")
    if expected is not None and (type(expected) not in (int, float) or not math.isfinite(expected)):
        raise SpecError("/expected_slope", "finite number expected")
    verify_instances = _count(obj.get("verify_instances", 2), "/verify_instances", 0)
    generator = _generator(obj.get("generator", {}) or {}, structure)
    _check_draws(generator, family, max(sizes))
    return ExperimentSpec(
        experiment_id=str(obj.get("experiment_id", "experiment")),
        structure=structure,
        engine=engine,
        family=family,
        sizes=sizes,
        trials=trials,
        seed=seed,
        verify_instances=verify_instances,
        expected_slope=expected,
        generator=generator,
    )


def _generator(gen, structure: str) -> dict:
    """Check the parameter sampler block and fill in its defaults: `kind`
    integers for Presburger, whose structure is Z, and rationals otherwise;
    `height` 60 and `den` 8."""
    if not isinstance(gen, dict):
        raise SpecError("/generator", "generator must be an object")
    kind = gen.get("kind", "integers" if structure == "presburger" else "rationals")
    if kind not in ("integers", "rationals", "padic-rationals"):
        raise SpecError("/generator/kind", f"unknown generator {kind!r}")
    if structure == "presburger" and kind != "integers":
        raise SpecError("/generator/kind", "presburger parameters are integers")
    for name in ("height", "den"):
        if name in gen:
            _count(gen[name], f"/generator/{name}", 1)
    return dict(gen, kind=kind, height=gen.get("height", 60), den=gen.get("den", 8))


def _check_draws(gen: dict, family: ParamFamily, need: int) -> None:
    """Reject a sampler that cannot draw `need` distinct parameter tuples, on
    which `run` would never finish.  Counts the draws of the samplers of
    `cli._make_generator`: numerators in [-height, height] over the kind's
    denominators."""
    kind, height, den = gen["kind"], gen["height"], gen["den"]
    dim = family.param_dim
    if (2 * height + 1) ** dim >= need:
        return  # the integers alone suffice
    if kind == "integers":
        dens = [1]
    elif kind == "rationals":
        dens = range(1, den + 1)
    else:
        dens = sorted({1, 2, den, family.meta.get("p", 3)})
    values = set()
    for d in dens:
        values.update(Fraction(a, d) for a in range(-height, height + 1))
        if len(values) ** dim >= need:
            return
    raise SpecError(
        "/generator/height",
        f"the sampler draws at most {len(values) ** dim} distinct parameters, "
        f"fewer than the largest size {need}",
    )
