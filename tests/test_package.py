import types

import locdecomp


def test_every_exported_name_resolves():
    for name in locdecomp.__all__:
        assert getattr(locdecomp, name) is not None, name


def test_exports_match_the_imported_public_names():
    imported = {name for name, value in vars(locdecomp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(locdecomp.__all__) == len(set(locdecomp.__all__))
    assert set(locdecomp.__all__) == imported
