"""Every name a bconv module exports must resolve, so a stale `__all__`
entry fails here rather than in a user's `from bconv.x import *`."""

import importlib
import pkgutil

import pytest

import bconv

MODULES = sorted(m.name for m in pkgutil.iter_modules(bconv.__path__))


@pytest.mark.parametrize("module", ["bconv", *(f"bconv.{m}" for m in MODULES)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), module
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, (module, missing)
