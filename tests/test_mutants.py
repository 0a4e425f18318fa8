"""The mutant list of ``tools/mutants.py`` and its refusal of ambiguous mutants."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("text, count", [("a = 1\n", 0), ("x = 1\nx = 1\n", 2)])
def test_a_mutant_whose_old_text_is_not_there_once_is_refused(tmp_path, text, count):
    (tmp_path / "m.py").write_text(text)
    with pytest.raises(ValueError, match=f"occurs {count} times"):
        mutants.mutated(tmp_path, mutants.Mutant("m.py", "x = 1", "x = 2", "x"))


def test_every_mutant_applies_to_the_checkout():
    for mutant in mutants.MUTANTS:
        assert mutants.mutated(ROOT, mutant) != (ROOT / mutant.file).read_text()
