"""Source rules for src/gtkit, checked on its syntax trees.

Each file of the package is parsed once. Every rule is a function from a
file's path and tree to its violations, and each one is also fed a snippet
that breaks it, so a rule that stops catching anything fails here too.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtkit"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.rglob("*.py"))}


def no_assert(path: Path, tree: ast.Module) -> list:
    """python -O strips asserts, so no invariant under src/gtkit may rest on one."""
    return [f"assert statement at {path}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


# ---------------------------------------------------------------------------
# A Signature is checked when it is built; the one construction that skips
# the check is patterns._trusted_signature, kept for the rows the sweeps
# build nonincreasing part by part. No other module under src/gtkit may apply
# tuple.__new__ to Signature or name that constructor, so every row from
# anywhere else is checked.

PRIVATE = "_trusted_signature"


def named(node, name):
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def tuple_new(node):
    return isinstance(node, ast.Attribute) and node.attr == "__new__" and named(node.value, "tuple")


def unchecked(node):
    if isinstance(node, ast.Call):
        parts = [node.func, *node.args, *(k.value for k in node.keywords)]
        return any(map(tuple_new, parts)) and any(named(p, "Signature") for p in parts)
    if isinstance(node, ast.alias):
        return PRIVATE in (node.name, node.asname)
    return named(node, PRIVATE) or (isinstance(node, ast.Constant) and node.value == PRIVATE)


def no_unchecked_signature(path: Path, tree: ast.Module) -> list:
    if path == PACKAGE / "patterns.py":
        return []
    return [f"unchecked Signature construction at {path}:{node.lineno}" for node in ast.walk(tree) if unchecked(node)]


# ---------------------------------------------------------------------------
# verify runs inside long-lived processes, so every cache has a bound: no
# lru_cache(maxsize=None), functools.cache or @cache under src/gtkit, and no
# lru_cache above CEILING entries, each of which may keep a context alive; a
# maxsize that is not a constant expression is refused.

CEILING = 1 << 15  # psi_T's bound, sized from the largest measured working set


def constant(node):
    """The value of a constant expression such as 1 << 14, else None."""
    kinds = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if all(isinstance(n, kinds) for n in ast.walk(node)):
        return eval(compile(ast.Expression(node), "maxsize", "eval"), {"__builtins__": {}})
    return None


def unbounded(node):
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return name == "lru_cache" and any(
            not isinstance(size := constant(v), int) or size > CEILING for v in sizes
        )
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and getattr(node.value, "id", None) == "functools"
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return any(getattr(d, "id", None) == "cache" for d in node.decorator_list)
    return False


def bounded_caches(path: Path, tree: ast.Module) -> list:
    return [f"unbounded or oversized cache at {path}:{node.lineno}" for node in ast.walk(tree) if unbounded(node)]


# ---------------------------------------------------------------------------
# Hashing a Fraction takes a modular inverse on every lookup, so a cached
# function takes q = a/b as two integers: no lru_cache under src/gtkit may
# wrap a function with a parameter annotated Rat, Fraction or RatLike, alone
# or inside another type.

RATIONAL = {"Rat", "Fraction", "RatLike"}


def cached(func):
    for d in func.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "lru_cache":
            return True
    return False


def rational(annotation):
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return annotation is not None and any(
        getattr(n, "id", None) in RATIONAL or getattr(n, "attr", None) in RATIONAL for n in ast.walk(annotation)
    )


def integer_cache_keys(path: Path, tree: ast.Module) -> list:
    return [
        f"cache keyed by a rational at {path}:{node.lineno} {node.name}({arg.arg})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cached(node)
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs, node.args.vararg, node.args.kwarg)
        if arg is not None and rational(arg.annotation)
    ]


# ---------------------------------------------------------------------------
# gtkit declares no runtime dependency, so every import under src/gtkit names
# a standard-library module or gtkit itself.


def top_level_names(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # relative imports stay inside gtkit


def standard_library_only(path: Path, tree: ast.Module) -> list:
    return [
        f"non-standard import at {path}:{node.lineno} imports {name}"
        for node in ast.walk(tree)
        for name in top_level_names(node)
        if name not in sys.stdlib_module_names and name != "gtkit"
    ]


# each rule with a snippet that breaks it
RULES = {
    "no-assert": (no_assert, "def f(x):\n    assert x > 0\n"),
    "no-unchecked-signature": (no_unchecked_signature, "row = tuple.__new__(Signature, (0, 1))\n"),
    "bounded-caches": (bounded_caches, "@lru_cache(maxsize=1 << 16)\ndef f(n):\n    return n\n"),
    "integer-cache-keys": (
        integer_cache_keys,
        "@lru_cache(maxsize=64)\ndef f(n: int, q: 'tuple[Rat, ...]'):\n    return q\n",
    ),
    "standard-library-only": (standard_library_only, "import numpy as np\n"),
}


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_the_package_keeps_the_rule(rule):
    check, _ = rule
    assert [hit for path, tree in TREES.items() for hit in check(path, tree)] == []


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_the_rule_catches_a_snippet_that_breaks_it(rule):
    check, snippet = rule
    assert check(PACKAGE / "snippet.py", ast.parse(snippet))
