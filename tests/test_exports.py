"""Every name a module lists in ``__all__`` or the package imports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gaplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaplab.__path__))
WITH_ALL = [
    m for m in MODULES if hasattr(importlib.import_module(f"gaplab.{m}"), "__all__")
]


def test_modules_with_all_are_found():
    assert {"catalog", "negligible", "solver"} <= set(WITH_ALL)


@pytest.mark.parametrize("name", WITH_ALL)
def test_star_import(name):
    namespace = {}
    exec(f"from gaplab.{name} import *", namespace)
    module = importlib.import_module(f"gaplab.{name}")
    assert set(module.__all__) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(gaplab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gaplab.{node.module}")
        for alias in node.names:
            assert getattr(gaplab, alias.asname or alias.name) is getattr(
                module, alias.name
            ), (node.module, alias.name)
