import importlib
import math
import re
import types
from pathlib import Path

import dbgd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in dbgd.__all__ if not hasattr(dbgd, name)]
    assert missing == []


def test_the_export_list_has_no_duplicates():
    assert len(dbgd.__all__) == len(set(dbgd.__all__))


def test_every_public_attribute_is_exported():
    # submodules are attributes of the package once imported; they are not API names
    public = {
        name
        for name, value in vars(dbgd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(dbgd.__all__) == set()


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from dbgd import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(dbgd.__all__)


def _overview_rows():
    """``(module, contents)`` of each row of README's "Library overview" table."""
    section = README.read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(dbgd\.\w+)` \| (.*) \|$", section, re.M)


def test_readme_module_table_names_only_what_each_module_has():
    # a function is named as `name(...)`, a class as `Name`
    rows = _overview_rows()
    assert rows
    stale = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`(\w+)\(", contents) + re.findall(r"`([A-Z]\w*)`", contents)
        stale += [f"{module_name}.{name}" for name in names if not hasattr(module, name)]
    assert stale == []


def test_the_readme_quick_example_runs(capsys):
    text = README.read_text().split("Quick example:", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    printed = [float(value) for value in capsys.readouterr().out.split()]
    assert len(printed) == 3 and all(math.isfinite(value) for value in printed)
