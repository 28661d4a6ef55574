"""The oracle routes share no code with the paths they check.

Each independent route is read from its source: the test collects every
name and attribute it uses and follows each call into a module-level gtkit
function, transitively. Methods reached through an object (`ctx.nodes()`)
are not followed; the attributes named below are caught by name wherever a
followed function reads them.
"""

import ast
import inspect
import textwrap
import types

import pytest

from gtkit import patterns, qlinks, reldim, schur

# the integer q-power helpers, coefficients, prefactor and unreduced
# determinant of the q-link path, and the context's barycentric products
Q_CORE = {
    "_q_diff_product",
    "_q_fraction",
    "_q_sum",
    "_q_power",
    "_q_dim_denominator",
    "_q_poly_part",
    "qA_coeff",
    "q_prefactor",
    "q_rel_dim_ratio",
    "_coefficient_det_parts",
    "_cleared_column",
    "_prefix_cofactors",
    "barycentric",
    "barycentric_lcm",
}
# A_coeff's index-range cancellation and barycentric weights
A_CORE = {"A_coeff", "_poly_part", "barycentric", "barycentric_lcm"}

ROUTES = [
    (qlinks.general_q_ratio, Q_CORE),
    (qlinks.general_q_projection, Q_CORE),
    (qlinks.psi_T, Q_CORE),
    (schur.h_at_q_powers, Q_CORE),
    (patterns.q_series, Q_CORE),
    (patterns.profile_at_q_powers, Q_CORE),
    (patterns.q_dim_oracle, Q_CORE),
    (patterns.q_rel_dim_oracle, Q_CORE),
    (reldim.bo_coefficient, A_CORE),
]


def _callee(node, env):
    """The gtkit module-level function a Name or module.attribute names, or None."""
    if isinstance(node, ast.Name):
        target = env.get(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = env.get(node.value.id)
        target = getattr(module, node.attr, None) if isinstance(module, types.ModuleType) else None
    else:
        return None
    target = inspect.unwrap(target) if callable(target) else None
    if isinstance(target, types.FunctionType) and target.__module__.startswith("gtkit."):
        return target if target.__qualname__ == target.__name__ else None
    return None


def reach(fn):
    """(names used, functions reached) by fn and every gtkit function it calls."""
    names, reached = set(), set()
    todo = [inspect.unwrap(fn)]
    while todo:
        f = todo.pop()
        if f in reached:
            continue
        reached.add(f)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(f)))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            callee = _callee(node, f.__globals__)
            if callee is not None:
                todo.append(callee)
    return names, {f"{f.__module__}.{f.__name__}" for f in reached}


@pytest.mark.parametrize("route, core", ROUTES, ids=[route.__name__ for route, _ in ROUTES])
def test_oracle_route_uses_nothing_of_the_code_it_checks(route, core):
    names, _ = reach(route)
    assert sorted(names & core) == []


def test_the_walk_follows_calls_across_modules():
    _, reached = reach(qlinks.general_q_projection)
    # through the cached helpers and into schur and linalg
    assert {
        "gtkit.qlinks.general_q_ratio",
        "gtkit.qlinks.psi_T",
        "gtkit.qlinks._schur_weight",
        "gtkit.schur.h_at_q_powers",
        "gtkit.schur.schur_bialternant",
        "gtkit.linalg.det",
    } <= reached
    _, reached = reach(patterns.q_rel_dim_oracle)
    assert {"gtkit.patterns.skew_profile", "gtkit.patterns._ascend", "gtkit.patterns._extend"} <= reached


@pytest.mark.parametrize(
    "path, core",
    [(qlinks.q_link_row, Q_CORE), (patterns.q_dim, Q_CORE), (reldim.link_row, A_CORE)],
    ids=["q_link_row", "q_dim", "link_row"],
)
def test_the_checked_paths_are_seen_to_use_their_core(path, core):
    # the determinantal paths themselves reach their core, so the walk sees it
    names, _ = reach(path)
    assert names & core
