"""The mutant catalogue (tests/mutants.json) stays applicable: each mutant's
old text occurs exactly once in its file, each killer names a test that
exists, and each mutant marked equivalent says why.  A change that removes
or rewrites the mutated code must retire or rewrite the entry.  `python tests/mutants.py` runs the mutants themselves,
and an unknown id makes it exit 2 before it runs any."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_ids_distinct():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["killers"]
    for killer in mutant["killers"]:
        path, _, name = killer.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text()


def test_equivalent_mutants_give_a_reason():
    equivalent = [m for m in MUTANTS if "equivalent" in m]
    assert equivalent
    for mutant in equivalent:
        reason = mutant["equivalent"]
        assert isinstance(reason, str) and reason.strip(), mutant["id"]


def test_unknown_mutant_id_exits_2():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutants.py"), MUTANTS[0]["id"], "no-such-mutant"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no-such-mutant" in proc.stderr and MUTANTS[0]["id"] not in proc.stderr
