"""The package's public names resolve, and every top-level definition and
every method of `src/distalcells` has a caller in the program (`src/` or
`bench/`, not the benchmark's own tests), unless it backs a claim of the
paper and is listed below."""

import ast
import io
import tokenize
from pathlib import Path

import distalcells

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distalcells"

# (module, name) -> why the definition stays although only tests call it; a
# method's name is "Class.method"
ALLOWED = {
    ("conjcells", "check_conjunction_property"):
        "the conjunction property that makes the conj-cells bound |x| hold",
    ("families", "type_census_1d"):
        "the exact count of realized types, which bounds every distal cell "
        "decomposition from below",
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
    ("ultrametric", "special_balls"):
        "the special balls of a Macintyre family, whose subinterval atoms "
        "number at most 2|balls| + 1",
    ("ultrametric", "laff_balls"):
        "the special balls of an affine-reduct family, whose subinterval "
        "atoms number at most 2|balls| + 1",
}


def test_public_names_resolve():
    for name in distalcells.__all__:
        assert getattr(distalcells, name) is not None, name


def _referenced_names(tree: ast.Module):
    """(name, owner, dotted) for every name, attribute and identifier-like
    string constant, and for every imported name that the module reads,
    where owner is the top-level definition it occurs in, "Class.method"
    inside a method, or None, and dotted says whether the reference can
    reach a method: an attribute (`.name`) or a string constant."""
    imports = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node is tree:
                    inner = child.name
                elif isinstance(node, ast.ClassDef) and owner == node.name:
                    inner = f"{owner}.{child.name}"
            if isinstance(child, ast.Name):
                yield child.id, owner, False
            elif isinstance(child, ast.Attribute):
                yield child.attr, owner, True
            elif isinstance(child, ast.ImportFrom):
                imports.extend((alias, owner) for alias in child.names)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                    and child.value.isidentifier():
                yield child.value, owner, True  # getattr-style tables, e.g. bench's tracer
            yield from walk(child, inner)

    refs = list(walk(tree, None))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return refs + [
        (alias.name, owner, False) for alias, owner in imports
        if (alias.asname or alias.name) in read
    ]


def _definitions():
    """(module, name) of every top-level definition, and (module,
    "Class.method") of every method but the dunders Python calls itself."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, stmt.name
            if isinstance(stmt, ast.ClassDef):
                for meth in stmt.body:
                    if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not meth.name.startswith("__"):
                        yield path.stem, f"{stmt.name}.{meth.name}"


def test_every_definition_has_a_program_caller():
    # a re-export from __init__ is not a caller, and a definition's own body
    # (recursion) does not count for it; a method counts by its bare name,
    # and only through an attribute or a string constant, so that a local
    # variable of the same name is no caller
    users: dict[str, set] = {}
    program = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in program:
        if path.name == "__init__.py" or path.name.startswith("test_"):
            continue
        for name, owner, dotted in _referenced_names(ast.parse(path.read_text())):
            users.setdefault(name, set()).add((path.stem, owner, dotted))

    def outside(module, name):
        method = "." in name
        return {
            (m, owner) for m, owner, dotted in users.get(name.rpartition(".")[2], ())
            if (dotted or not method)
            and (m != module or owner is None or (owner != name and not owner.startswith(name + ".")))
        }

    defined = set(_definitions())
    orphans = [
        (module, name)
        for module, name in sorted(defined)
        if not outside(module, name) and (module, name) not in ALLOWED
    ]
    assert not orphans, f"definitions with no caller in src/ or bench/: {orphans}"
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def _pure_aliases(path: Path):
    """The top-level defs of a module whose body, after the docstring, is
    only `return g(<their own parameters, in order>)`."""
    for stmt in ast.parse(path.read_text()).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
        args = stmt.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if len(body) != 1 or not isinstance(body[0], ast.Return) \
                or args.vararg or args.kwonlyargs or args.kwarg:
            continue
        call = body[0].value
        if isinstance(call, ast.Call) and not call.keywords \
                and [getattr(a, "id", None) for a in call.args] == params:
            yield stmt.name


def test_no_pure_aliases():
    # a second name for a function is one more name for every reader to learn
    aliases = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _pure_aliases(path)
    ]
    assert not aliases, f"definitions that only forward to another function: {aliases}"


def _tracer_targets():
    """(owner, attribute) of every entry of `bench/tracer.py`'s TIMED and
    COUNTED tables, read with ast so that nothing from bench is imported;
    the owner is a dotted path below `distalcells`, e.g. "decomp.verify"'s
    "decomp"."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and \
                any(getattr(t, "id", None) in ("TIMED", "COUNTED") for t in stmt.targets):
            for entry in stmt.value.elts:
                yield stmt.targets[0].id, ast.unparse(entry.elts[0]), entry.elts[1].value


def test_tracer_names_resolve():
    # the tracer wraps program functions by name, so a rename breaks only a
    # traced benchmark run; check its tables here
    import importlib

    targets = list(_tracer_targets())
    assert {table for table, _, _ in targets} == {"TIMED", "COUNTED"}
    for _, owner_path, attr in targets:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"distalcells.{module}")
        for name in rest:
            owner = getattr(owner, name)
        assert attr in owner.__dict__, f"bench/tracer.py wraps {owner_path}.{attr}, which is gone"


def test_engines_read_compiled_formulas():
    # an atom becomes int rows in `linear` alone, and dimension induction
    # reads its formulas compiled, never through the Fraction evaluator
    for path in sorted(PACKAGE.glob("*.py")):
        names = {name for name, _, _ in _referenced_names(ast.parse(path.read_text()))}
        if path.stem != "linear":
            assert "_int_row" not in names, path.stem
        if path.stem == "induction":
            assert not names & {"evaluate", "eval_formula"}, sorted(names & {"evaluate", "eval_formula"})


def test_no_cell_carries_an_exclusion_test():
    # a cell of T(B) is by definition excluded by no parameter of B, so no
    # engine keeps an exclusion test for its cells, and a parameter outside
    # B is read through T(B + [b]); prose in docstrings and comments is free
    for path in sorted(PACKAGE.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        names = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        assert "excluded" not in names, path.stem
