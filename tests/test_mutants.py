"""``scripts/mutants.py``: every row of its table still applies to ``src/``."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_row_applies(mutant):
    # the old text occurs once, so the replacement lands where it was
    # recorded; each test it must fail is still defined
    text = (ROOT / "src" / "weldlab" / mutant.module).read_text()
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text()

