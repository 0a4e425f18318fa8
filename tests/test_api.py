import types

import dbgd


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
