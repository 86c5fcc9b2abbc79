"""The package's public names resolve, and every top-level definition of
`src/distalcells` has a caller in the program (`src/` or `bench/`), not only
in the tests, unless it backs a claim of the paper and is listed below."""

import ast
from pathlib import Path

import distalcells

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distalcells"

# (module, name) -> why the definition stays although only tests call it
ALLOWED = {
    ("conjcells", "check_conjunction_property"):
        "the conjunction property that makes the conj-cells bound |x| hold",
    ("families", "grid_probes"):
        "rational grid probes for type censuses in any dimension",
    ("families", "interval_family"):
        "the only constructor of the `interval` kind: families given by their "
        "N-bounded component lists, as in the weakly o-minimal bound",
    ("padic", "coset_transfer_check"):
        "the n-th power coset transfer lemma that keeps p-adic cells uncrossed",
    ("padic", "t_val"):
        "the displacement valuation t of a point from its atom's centre, in "
        "which the p-adic cell types are defined",
    ("padic", "t_val_candidate_centers"):
        "t is well defined across the centres that can recentre an atom",
    ("padic", "types_per_subinterval"):
        "the constant number of types per subinterval in the p-adic bound",
}


def test_public_names_resolve():
    for name in distalcells.__all__:
        assert getattr(distalcells, name) is not None, name


def _referenced_names(tree: ast.Module):
    """(name, top-level definition it occurs in, or None) for every name,
    attribute, imported name and identifier-like string constant."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield alias.name, owner
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                yield node.value, owner  # getattr-style tables, e.g. bench's tracer


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, stmt.name


def test_every_definition_has_a_program_caller():
    # a re-export from __init__ is not a caller, and a definition's own body
    # (recursion) does not count for it
    users: dict[str, set] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, owner in _referenced_names(ast.parse(path.read_text())):
            users.setdefault(name, set()).add((path.stem, owner))
    defined = set(_definitions())
    orphans = [
        (module, name)
        for module, name in sorted(defined)
        if not users.get(name, set()) - {(module, name)} and (module, name) not in ALLOWED
    ]
    assert not orphans, f"definitions with no caller in src/ or bench/: {orphans}"
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
