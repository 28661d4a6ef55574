"""The cache table in README.md names every bounded cache of the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import gtkit

README = Path(__file__).resolve().parent.parent / "README.md"
# built once per process, not a working set
UNLISTED = {"cli._build_parser"}


def _package_caches() -> dict:
    """{"module.name": cached function} for every lru_cache defined in gtkit."""
    out = {}
    for info in pkgutil.iter_modules(gtkit.__path__):
        module = importlib.import_module(f"gtkit.{info.name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__wrapped__.__module__ == module.__name__:
                out[f"{info.name}.{attr}"] = value
    return out


def _table_bounds() -> dict:
    """{"module.name": bound} from the rows of the README's cache table."""
    text = README.read_text()
    table = text[text.index("| cache | key | bound |") :].split("\n\n", 1)[0]
    out = {}
    for row in table.splitlines()[2:]:
        name, _, bound = (cell.strip() for cell in row.strip("|").split("|")[:3])
        power = re.fullmatch(r"2\^(\d+)", bound)
        out[name.strip("`")] = 1 << int(power[1]) if power else int(bound.replace(",", ""))
    return out


def test_every_cache_has_a_row_with_its_bound():
    caches = _package_caches()
    assert UNLISTED <= set(caches)
    bounds = _table_bounds()
    assert sorted(bounds) == sorted(set(caches) - UNLISTED)
    assert {name: caches[name].cache_info().maxsize for name in bounds} == bounds
