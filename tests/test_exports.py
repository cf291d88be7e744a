import ast
import importlib
import sys
from pathlib import Path

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


def test_runtime_imports_are_stdlib_or_numpy():
    # pyproject's only runtime dependency is numpy; scipy is for tests only
    src = Path(povmrank.__file__).parent
    foreign = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.add(f"{path.name}: {name}")
    assert sorted(foreign) == []
