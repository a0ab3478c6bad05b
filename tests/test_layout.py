"""Every public name of a vdwpair module, every public method or property
of a class that a module defines, and every private name a module defines
at its top level, is used by the package itself: library code that only
tests call lives in the tests, and a leftover private helper goes."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vdwpair

MODULES = [m.name for m in pkgutil.iter_modules(vdwpair.__path__)]


def _names_used_by_the_package():
    """Every name that package code reads, reads as an attribute or imports
    (so the exports of ``vdwpair/__init__.py`` count as used)."""
    used = set()
    for path in Path(vdwpair.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_used_by_the_package(name):
    module = importlib.import_module(f"vdwpair.{name}")
    used = _names_used_by_the_package()
    assert [n for n in module.__all__ if n not in used] == []


def _public_methods(path):
    """(class, method) for every public method or property of a class
    defined at the top level of the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(cls.name, node.name)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_public_methods_are_used_by_the_package(name):
    path = Path(vdwpair.__file__).parent / f"{name}.py"
    used = _names_used_by_the_package()
    assert [f"{cls}.{meth}" for cls, meth in _public_methods(path)
            if meth not in used] == []


def _private_names(path):
    """Every private function, class or constant defined at the top level
    of the module at ``path`` (dunder names such as ``__all__`` excluded)."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_read_by_the_package(name):
    path = Path(vdwpair.__file__).parent / f"{name}.py"
    used = _names_used_by_the_package()
    assert [n for n in _private_names(path) if n not in used] == []
