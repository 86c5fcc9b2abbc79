"""Mutation check: each mutant in tests/mutants.json must be killed by the
tests it names.

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID ...     # only the named mutants

A mutant is one textual edit: its `old` text, which occurs exactly once in
its `file`, replaced by its `new` text.  The tree is copied to a temporary
directory once for the clean run and once per mutant.  With ids given,
only the named mutants run.  The clean run runs every killer of the
mutants that run on the unmutated copy, and they must all pass.  Then each
mutant is applied to its own copy, and its killers run there under pytest
with a timeout.  A mutant is killed when every one of its killers fails.

An entry with `"equivalent": "<reason>"` is a mutant that changes no
result, only, say, the speed.  It is applied and its killers run in the
same way, but it must survive them: it is reported as equivalent when every
killer passes, and it fails the run when any killer fails, since then it is
not equivalent.

Exits 1 if the clean run fails, any mutant survives, times out or cannot
run its tests, or an equivalent mutant is killed, and 2 if an id is not in
the catalogue.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"
TIMEOUT_S = 180
IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info",
    ".benchmarks", "BENCH_*.json", "out",
)


def copy_tree(tmp: str) -> Path:
    tree = Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def run_tests(tree: Path, tests: list[str]):
    """pytest's exit code (None on timeout) and the ids it reports failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {
        line.split()[1] for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc.returncode, failed


def verdict(mutant: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(tmp)
        path = tree / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            return "not applicable: the old text does not occur exactly once"
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        code, failed = run_tests(tree, mutant["killers"])
    if code is None:
        return f"timeout after {TIMEOUT_S} s"
    if code not in (0, 1):
        return f"error: pytest exited {code}"
    passed = [k for k in mutant["killers"] if not any(f == k or f.startswith(k + "[") for f in failed)]
    if "equivalent" in mutant:
        if code == 0:
            return "equivalent"
        return f"not equivalent: failed {', '.join(k for k in mutant['killers'] if k not in passed)}"
    return f"survived: passed {', '.join(passed)}" if passed else "killed"


def main(ids: list[str]) -> int:
    mutants = json.loads(CATALOGUE.read_text())
    if ids:
        unknown = sorted(set(ids) - {m["id"] for m in mutants})
        if unknown:
            print(f"unknown mutant id: {', '.join(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in ids]
    killers = sorted({k for m in mutants for k in m["killers"]})
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = run_tests(copy_tree(tmp), killers)
    if code != 0:
        print(f"clean run: pytest exited {code}, failed {sorted(failed)}")
        return 1
    print(f"clean run: {len(killers)} killers pass")
    results = []
    for mutant in mutants:
        t0 = time.perf_counter()
        results.append(verdict(mutant))
        print(f"{mutant['id']}: {results[-1]} ({time.perf_counter() - t0:.1f} s)", flush=True)
    equivalent = ["equivalent" in m for m in mutants]
    killed = sum(r == "killed" for r, eq in zip(results, equivalent) if not eq)
    kept = sum(r == "equivalent" for r, eq in zip(results, equivalent) if eq)
    print(f"{killed} of {equivalent.count(False)} mutants killed, "
          f"{kept} of {equivalent.count(True)} equivalent mutants survived")
    return 0 if killed + kept == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
