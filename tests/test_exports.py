"""Every name a module lists in ``__all__`` or the package imports resolves,
and importing the package loads no scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_and_parser_leave_scipy_unloaded():
    # scipy is imported by the first solve, not by the package or the CLI
    code = (
        "import sys, gaplab, gaplab.cli; gaplab.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gaplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
