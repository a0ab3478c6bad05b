"""Every name a vdwpair module defines at its top level, public or
private, and every public method or property of a class that a module
defines, is read by package code outside ``vdwpair/__init__.py``: library
code that only tests call lives in the tests, and a leftover helper goes.
An import or a re-export is not a read."""

import ast
import pkgutil
from pathlib import Path

import pytest

import vdwpair

PACKAGE = Path(vdwpair.__file__).parent
MODULES = [m.name for m in pkgutil.iter_modules(vdwpair.__path__)]


def _names_read_by_the_package():
    """Every name that package code outside ``__init__.py`` loads, as a
    name or as an attribute."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _top_level_names(name):
    """Every function, class or constant that module ``name`` defines at
    its top level (dunder names such as ``__all__`` excluded)."""
    names = []
    for node in ast.parse((PACKAGE / f"{name}.py").read_text(
            encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_used_by_the_package(name):
    read = _names_read_by_the_package()
    assert [n for n in _top_level_names(name)
            if not n.startswith("_") and n not in read] == []


def _public_methods(name):
    """(class, method) for every public method or property of a class
    defined at the top level of module ``name``."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    return [(cls.name, node.name)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_public_methods_are_used_by_the_package(name):
    read = _names_read_by_the_package()
    assert [f"{cls}.{meth}" for cls, meth in _public_methods(name)
            if meth not in read] == []


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_read_by_the_package(name):
    read = _names_read_by_the_package()
    assert [n for n in _top_level_names(name)
            if n.startswith("_") and n not in read] == []


def test_validate_takes_only_the_model_from_greens():
    # The oracles share the quadrature engine, not the production q-grid:
    # from greens, validate reads the geometry, the medium and r_s, r_p.
    tree = ast.parse((PACKAGE / "validate.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "greens"
                for alias in node.names}
    assert imported == {"PlanarGeometry", "HalfSpaceMedium", "reflection"}
