import importlib

import pytest

import povmrank

MODULES = ("cli", "completeness", "fock", "povm", "tomo")


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"povmrank.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_module_exports():
    exported = {
        name for module in MODULES for name in importlib.import_module(f"povmrank.{module}").__all__
    }
    assert [name for name in povmrank.__all__ if not hasattr(povmrank, name)] == []
    assert sorted(set(povmrank.__all__) - exported) == []
    assert len(set(povmrank.__all__)) == len(povmrank.__all__)
