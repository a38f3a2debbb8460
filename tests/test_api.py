"""The public surface: every exported name exists and is declared.

Each module's ``__all__`` names only things the module defines, and every
name the package re-exports from ``lselab/__init__.py`` is in the
``__all__`` of the module it comes from, so a deletion cannot leave a stale
export behind.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _unreferenced_exports():
    """``module.name`` for each ``__all__`` name that no code in the package
    refers to, apart from the statement that defines it, ``__all__`` lists
    and ``__init__.py``."""
    declared, referenced = [], set()
    for path in sorted(Path(lselab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            defined = {getattr(stmt, "name", None), *(getattr(t, "id", None) for t in targets)}
            if "__all__" in defined:
                declared += [f"{path.stem}.{elt.value}" for elt in stmt.value.elts]
                continue
            for node in ast.walk(stmt):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if name not in defined:
                        referenced.add(name)
    return [qual for qual in declared if qual.split(".")[1] not in referenced]


# ``__all__`` names kept with no caller in the package, and why.  The test
# fails once one of them gains a caller or is deleted, so the table cannot
# go stale.
KEPT_UNCALLED = {
    "harness.run_trial": "perfbench/spans.py wraps it by name and counts trials by its calls (ROADMAP item 5)",
}


def test_every_export_has_a_caller():
    assert _unreferenced_exports() == list(KEPT_UNCALLED)


def _unread_members():
    """``module.Class.member`` for each method, property and dataclass field
    defined in a class of the package that no code in the package reads.  A
    read is an attribute load (``obj.member``) or a string constant passed
    to ``getattr``; dunder methods are called by Python itself."""
    members, reads = [], set()
    for path in sorted(Path(lselab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                        members.append(f"{path.stem}.{node.name}.{stmt.name}")
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        members.append(f"{path.stem}.{node.name}.{stmt.target.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                reads.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
    return [qual for qual in members if qual.rsplit(".", 1)[1] not in reads]


def test_every_member_is_read():
    assert _unread_members() == []


def _unread_private_names():
    """``module.name`` for each module-level function, class or assigned name
    with one leading underscore that no code in the package loads, as a
    name or as an attribute."""
    defined, loads = [], set()
    for path in sorted(Path(lselab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                names = [node.id for t in targets if t is not None
                         for node in ast.walk(t) if isinstance(node, ast.Name)]
            defined += [f"{path.stem}.{n}" for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                loads.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    return [qual for qual in defined if qual.split(".", 1)[1] not in loads]


def test_every_private_name_is_read():
    assert _unread_private_names() == []


def _traced_names():
    """The (module, function) pairs of ``perfbench/spans.py``'s ``WRAPPED``,
    read from its source without importing perfbench."""
    path = Path(lselab.__file__).resolve().parents[2] / "perfbench" / "spans.py"
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "WRAPPED":
            return [pair for pairs in ast.literal_eval(stmt.value).values() for pair in pairs]
    raise AssertionError(f"no WRAPPED table in {path}")


def test_every_traced_name_is_callable():
    # the tracer wraps these by name: a rename must rename them there too
    names = _traced_names()
    assert len(names) > 10
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"lselab.{module}"), name, None))]
    assert missing == []


def test_import_pulls_in_no_heavy_stdlib_modules():
    """``statistics`` imports ``fractions`` and ``decimal``, about 4 ms of
    ``import lselab`` that nothing in the package needs."""
    src = str(Path(lselab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, lselab; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
