"""Every public name of a vdwpair module is used by the package itself:
library code that only tests call lives in the tests."""

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
