"""Every name that the package and its submodules export in ``__all__``
exists, so that a stale entry fails here and not only on ``import *``."""

import importlib
import pkgutil

import pytest

import kaczmarz_pr

MODULES = ["kaczmarz_pr"] + [
    f"kaczmarz_pr.{info.name}" for info in pkgutil.iter_modules(kaczmarz_pr.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
