"""Every name a vdwpair module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import vdwpair

MODULES = ["vdwpair"] + [f"vdwpair.{m.name}"
                         for m in pkgutil.iter_modules(vdwpair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
