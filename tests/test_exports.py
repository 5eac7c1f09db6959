"""Every name a module lists in ``__all__`` or the package imports resolves,
importing the package loads no scipy, and the CLI maps each exception class
of the library that reports rejected input to its exit code."""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab
import gaplab.cli
from gaplab import ConfigurationError, InfiniteRectifiedCostError

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


def _exception_classes():
    """Names of the classes in gaplab's modules that derive, directly or
    through one another, from a built-in exception."""
    bases = {}  # class name -> the names of its bases
    for path in Path(gaplab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                }
    builtin = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    known = builtin
    while True:
        grown = known | {name for name, names in bases.items() if names & known}
        if grown == known:
            return known - builtin
        known = grown


def test_one_exception_class_per_meaning():
    # rejected input, an infinite approximation target, a blocking piece
    assert _exception_classes() == {
        "ConfigurationError",
        "InfiniteRectifiedCostError",
        "NotNegligibleError",
    }


@pytest.mark.parametrize(
    "exc,code", [(ConfigurationError, 2), (InfiniteRectifiedCostError, 4)]
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc, code):
    def cmd_catalog(args):
        raise exc("rejected")

    monkeypatch.setattr(gaplab.cli, "cmd_catalog", cmd_catalog)
    assert gaplab.cli.main(["catalog"]) == code
    assert capsys.readouterr().err == "error: rejected\n"
