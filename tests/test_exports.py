"""Every public name a gtkit module exports resolves."""

import importlib
import pkgutil

import pytest

import gtkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(gtkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"gtkit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from gtkit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
