"""The mutation tool's verdicts, on one known mutant and one no-op edit."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
# dataclasses looks its module up by name
sys.modules.setdefault("mutants", mutants)
_SPEC.loader.exec_module(mutants)

# one test, so that each verdict costs one short pytest run
SUBSET = ("tests/test_exit_contract.py::test_a_chain_stage_error_keeps_its_attributes",)
KNOWN = dataclasses.replace(
    {m.name: m for m in mutants.MUTANTS}["stage-prefix-drops-attributes"], subset=SUBSET
)


def test_a_known_mutant_is_killed():
    assert mutants.run(KNOWN) == "killed"


def test_a_no_op_edit_survives():
    assert mutants.run(dataclasses.replace(KNOWN, new=KNOWN.old)) == "survived"


def test_an_edit_whose_text_is_missing_is_an_error():
    assert mutants.run(dataclasses.replace(KNOWN, old="no such source text")) == "error"


def test_every_mutant_finds_its_text_exactly_once():
    # a refactor that orphans a mutant fails here, not only in the slow tool
    orphans = [m.name for m in mutants.MUTANTS if (mutants.ROOT / m.path).read_text().count(m.old) != 1]
    assert orphans == []
