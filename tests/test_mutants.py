"""The mutation table stays in step with the code: every mutant's old text
occurs exactly once in its file, and every test it lists names a test file
and a test function that exist. `python tests/mutants.py` runs the mutants."""

from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_and_names_existing_tests(mutant):
    text = (ROOT / "src" / "quorder" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        source = Path(ROOT, path).read_text(encoding="utf-8")
        assert f"def {names[-1]}(" in source, test
        assert all(f"class {name}" in source for name in names[:-1]), test
