"""The kept mutants of ``scripts/mutants.py`` still apply to the code and
name tests that exist; whether the tests kill them is the script's own run."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def _cases():
    """One case per selector of each mutant, named by the mutant for its
    first selector and by its alias for each later one."""
    for mutant in mutants.MUTANTS:
        names = (mutant.name, *mutant.aliases)
        assert len(names) == len(mutant.selectors), mutant.name
        for name, selector in zip(names, mutant.selectors):
            yield pytest.param(mutant, selector, id=name)


@pytest.mark.parametrize("mutant, selector", _cases())
def test_old_string_occurs_once(mutant, selector):
    assert (ROOT / mutant.path).read_text("utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.selectors.count(selector) == 1
    path, *names = selector.split("::")
    source = (ROOT / path).read_text("utf-8")
    for name in names:  # a test class, then maybe a test in it
        assert re.search(rf"^ *(class|def) {name}\b", source, re.MULTILINE), name


def test_one_mutant_per_edit():
    edits = [(mutant.path, mutant.old, mutant.new) for mutant in mutants.MUTANTS]
    assert len(set(edits)) == len(edits)
    names = [name for mutant in mutants.MUTANTS for name in (mutant.name, *mutant.aliases)]
    assert len(set(names)) == len(names)


def test_old_string_not_found_is_an_error(tmp_path):
    (tmp_path / "code.py").write_text("x = 1\nx = 1\n", "utf-8")
    mutant = mutants.Mutant("m", "code.py", "x = 1", "x = 2", ("tests",))
    with pytest.raises(ValueError, match="occurs 2 times"):
        mutants.apply(mutant, tmp_path)
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(mutant._replace(old="y = 1"), tmp_path)
    mutants.apply(mutant._replace(old="x = 1\nx = 1\n"), tmp_path)
    assert (tmp_path / "code.py").read_text("utf-8") == "x = 2"
