"""Every public name a gtkit module exports resolves, and the package uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gtkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(gtkit.__path__))
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtkit"

# exported names that only the tests call, each kept for an open ROADMAP item
UNUSED_BY_DESIGN = {
    "A_matrix": "ROADMAP item 2: the per-kappa matrix the row loop is tested against",
    "rel_dim_ratio_first": "ROADMAP item 7: the Cauchy-Binet route a verify suite is to check",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"gtkit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from gtkit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_exports(package: Path) -> set:
    """The names of the modules' `__all__` that no module of the package
    names, outside `__init__.py`. A name used only inside the definition of
    an unused one is unused too, so the scan repeats until the set stops
    growing."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    exported = {name for tree in trees for name in _exports(tree)}
    unused: set = set()
    while True:
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees
            for top in tree.body
            if getattr(top, "name", None) not in unused
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        grown = exported - used - UNUSED_BY_DESIGN.keys()
        if grown == unused:
            return unused
        unused = grown


def test_every_exported_name_is_used_by_the_package():
    # an independent route stays in the package only while a verify suite
    # or an acceptance criterion runs it; a test-only reference lives in tests/
    assert sorted(unused_exports(PACKAGE)) == []
