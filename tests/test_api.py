"""The public surface: every exported name exists and is declared.

Each module's ``__all__`` names only things the module defines, and every
name the package re-exports from ``lselab/__init__.py`` is in the
``__all__`` of the module it comes from, so a deletion cannot leave a stale
export behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lselab

# every module but the command-line entry point declares its public names
MODULES = [f"lselab.{m.name}" for m in pkgutil.iter_modules(lselab.__path__) if m.name != "cli"]


def _reexports():
    """(module, name) for each ``from .module import name`` in ``__init__``."""
    tree = ast.parse(Path(lselab.__file__).read_text(encoding="utf-8"))
    return [
        (f"lselab.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_module_is_checked():
    assert {"lselab.harness", "lselab.kernels", "lselab.analysis"} <= set(MODULES)
    assert len(_reexports()) > 20


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), module
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], module


@pytest.mark.parametrize("module,name", _reexports())
def test_reexport_is_declared(module, name):
    assert name in importlib.import_module(module).__all__
    assert getattr(lselab, name) is getattr(importlib.import_module(module), name)
