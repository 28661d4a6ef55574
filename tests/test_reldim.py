"""The three determinantal routes for relative counts, against enumeration."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import rel_dim_oracle
from strategies import chain_levels, levels, top_rows, wide_rows

from gtkit import reldim
from gtkit.linalg import det
from gtkit.patterns import all_signatures, dim_product, support_box
from gtkit.qlinks import QDetContext, q_link_row
from gtkit.reldim import (
    A_coeff,
    A_matrix,
    DetContext,
    LinkRow,
    _cleared_column,
    bo_coefficient,
    bo_transform,
    link_row,
    psi_coeff,
    rel_dim_ratio,
    rel_dim_ratio_first,
)


def test_context_validation():
    ctx = DetContext(1, (2, 1, 0))
    assert ctx.N == 3
    assert ctx.nodes() == (1, -1, -3)
    with pytest.raises(ValueError):
        DetContext(3, (2, 1, 0))
    with pytest.raises(ValueError):
        DetContext(0, (2, 1, 0))
    with pytest.raises(ValueError):
        DetContext(1, (0, 1))


@pytest.mark.parametrize(
    "context, build",
    [
        (DetContext, link_row),
        (lambda k, nu: QDetContext(k, nu, F(1, 2)), lambda nu, k: q_link_row(nu, k, F(1, 2))),
    ],
    ids=["DetContext", "QDetContext"],
)
def test_a_level_that_is_not_an_integer_is_refused(context, build):
    # K = 1.5 was kept, and a row at K = 1.5 failed in range with a bare TypeError
    for k in (1.5, 2.0, F(1), "1"):
        with pytest.raises(ValueError, match="K must be an integer"):
            context(k, (3, 1, 0))
        with pytest.raises(ValueError, match="K must be an integer"):
            build((3, 1, 0), k)
    # a bool is read as the integer it stands for, as a signature part is
    assert type(context(True, (3, 1, 0)).K) is int
    row = build((3, 1, 0), True)
    assert (type(row.K), row.K) == (int, 1)
    assert dict(row.items()) == dict(build((3, 1, 0), 1).items())


def test_a_coeff_frozen_value():
    # K=1, nu=(1,0): A_1(-1) = 1/2 and the ratio for kappa=(0) is det[[1/2]]
    ctx = DetContext(1, (1, 0))
    assert A_coeff(ctx, 1, -1) == F(1, 2)
    assert rel_dim_ratio(ctx, (0,)) == F(1, 2)
    with pytest.raises(ValueError):
        A_coeff(ctx, 2, 0)


def test_ratio_matches_enumeration_spot():
    nu = (2, 1, 0)
    dim_nu = dim_product(nu)
    for K in (1, 2):
        ctx = DetContext(K, nu)
        for kappa in support_box(nu, K):
            want = F(rel_dim_oracle(kappa, nu), dim_nu)
            assert rel_dim_ratio(ctx, kappa) == want, kappa


def test_three_routes_agree():
    # residue-sum, inverse-Vandermonde, and division-based coefficients
    for nu in [(2, 1, 0), (2, 0, -1), (3, 1, 0, -2)]:
        for K in range(1, len(nu)):
            ctx = DetContext(K, nu)
            for kappa in support_box(nu, K):
                a = rel_dim_ratio(ctx, kappa)
                assert rel_dim_ratio_first(ctx, kappa) == a, (nu, K, kappa)
            for i in range(1, K + 1):
                for x in range(nu[-1] - K, nu[0] + 1):
                    assert bo_coefficient(ctx, i, x) == A_coeff(ctx, i, x)


def test_a_matrix_shape_and_validation():
    ctx = DetContext(2, (2, 1, 0))
    m = A_matrix(ctx, (1, 0))
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    with pytest.raises(ValueError):
        A_matrix(ctx, (1,))


def test_psi_coeff_full_index_range():
    ctx = DetContext(2, (2, 1, 0))
    for i in range(1, 4):
        psi_coeff(ctx, i, 0)  # defined up to N, not just K
    with pytest.raises(ValueError):
        psi_coeff(ctx, 4, 0)


def test_bo_transform_is_kronecker_delta():
    for n in range(2, 6):
        for k in range(1, n):
            for i in range(1, k + 1):
                for p in range(1, k + 1):
                    assert bo_transform(n, k, i, p) == (1 if p == i else 0)
    with pytest.raises(ValueError):
        bo_transform(2, 2, 1, 1)


def test_link_row_frozen_example():
    row = link_row((1, 0), 1)
    assert dict(row.items()) == {(0,): F(1, 2), (1,): F(1, 2)}
    assert row[(0,)] == F(1, 2)
    assert row[(5,)] == 0
    assert len(row) == 2


def test_link_row_mass_and_nonnegativity():
    for nu in [(2, 1, 0), (2, 0, -1), (1, 1, 0, 0)]:
        for K in range(1, len(nu)):
            row = link_row(nu, K)
            assert sum(row.weights.values()) == 1
            assert all(w > 0 for w in row.weights.values())
            support = {k for k in all_signatures(K, nu[-1], nu[0]) if rel_dim_oracle(k, nu) > 0}
            assert set(row.weights) == support
            assert list(row.weights) == sorted(support)


@pytest.mark.parametrize("build", [lambda nu, k: link_row(nu, k), lambda nu, k: q_link_row(nu, k, F(1, 2))])
def test_link_rows_keep_the_support_box_keys(build, monkeypatch):
    # each key is the object support_box yielded, not a checked copy of it
    yielded = []

    def recording_box(nu, k):
        for kappa in support_box(nu, k):
            yielded.append(kappa)
            yield kappa

    monkeypatch.setattr(reldim, "support_box", recording_box)
    row = build((3, 1, 0, -2), 2)
    by_id = {id(kappa): kappa for kappa in yielded}
    assert len(row) > 1 and all(by_id.get(id(kappa)) is kappa for kappa in row.weights)


@pytest.mark.parametrize("kappa", [(1,), (1, 0, 0)])
def test_linkrow_lookup_refuses_a_kappa_of_the_wrong_length(kappa):
    row = link_row((3, 1, 0, -2), 2)
    with pytest.raises(ValueError, match="support entries must have length K"):
        row[kappa]


def test_linkrow_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        LinkRow((1, 0), 1, {(0,): F(1, 2)})
    with pytest.raises(ValueError, match="negative"):
        LinkRow((1, 0), 1, {(0,): F(3, 2), (1,): F(-1, 2)})
    with pytest.raises(ValueError, match="length K"):
        LinkRow((1, 0), 1, {(0, 0): F(1)})
    # zero weights are dropped, not stored
    row = LinkRow((1, 0), 1, {(0,): F(1), (1,): F(0)})
    assert dict(row.items()) == {(0,): F(1)}


@pytest.mark.parametrize(
    "weights, message",
    [
        ({(0,): F(1, 4), (1,): F(1, 3), (2,): F(4, 9)}, "link weights must sum to 1 exactly, got 37/36"),
        ({(0,): F(3, 2), (1,): F(-1, 2)}, "negative link weight at (1,): -1/2"),
        ({(0,): F(1, 2), (0, 0): F(1, 2)}, "support entries must have length K"),
        ({(0,): F(1, 2), (0, 1): F(1, 2)}, "signature parts must be nonincreasing, got (0, 1)"),
    ],
)
@pytest.mark.parametrize("step", [1, -1])
def test_linkrow_errors_do_not_depend_on_key_order(weights, message, step):
    with pytest.raises(ValueError) as err:
        LinkRow((2, 0), 1, dict(list(weights.items())[::step]))
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)])
def test_linkrow_keeps_its_own_dict_sorted(order):
    sorted_weights = {(0,): F(1, 4), (1,): F(1, 6), (2,): F(7, 12)}
    given = {(k,): sorted_weights[(k,)] for k in order}
    row = LinkRow((2, 0), 1, given)
    assert list(row.items()) == list(LinkRow((2, 0), 1, sorted_weights).items()) == list(sorted_weights.items())
    given[(0,)] = F(5)
    del given[(2,)]
    given[(3,)] = F(1)
    assert list(row.items()) == list(sorted_weights.items())
    assert (len(row), row.total) == (3, 1)


@pytest.mark.parametrize(
    "weights",
    [
        {(0,): F(1, 4), (1,): F(1, 3), (2,): F(4, 9)},  # 1 + 1/36
        {(0,): F(1, 4), (1,): F(1, 6), (2,): F(5, 9)},  # 1 - 1/36
    ],
)
def test_linkrow_rejects_mass_one_lcm_step_off(weights):
    with pytest.raises(ValueError, match="sum to 1"):
        LinkRow((2, 0), 1, weights)


@pytest.mark.parametrize(
    "weights",
    [
        {(0,): F(1, 4), (1,): F(1, 6), (2,): F(7, 12)},
        {(0,): 1, (1,): 0},
        {(0,): "1/3", (1,): "2/3"},
        {(0,): "1/6", (1,): 0, (2,): F(5, 6)},
    ],
)
def test_linkrow_total_is_the_plain_fraction_sum(weights):
    row = LinkRow((2, 0), 1, weights)
    assert row.total == sum(F(w) for w in weights.values()) == 1
    assert dict(row.items()) == {kappa: F(w) for kappa, w in weights.items() if F(w)}
    assert all(type(w) is F for _, w in row.items())


# ---------------------------------------------------------------------------
# the prefix-cofactor kernel against the per-kappa determinant


def test_ratio_equals_matrix_det_small_sweep():
    for n in range(2, 7):
        for nu in all_signatures(n, -2, 2):
            for k in range(1, n):
                ctx = DetContext(k, nu)
                for kappa in support_box(nu, k):
                    assert rel_dim_ratio(ctx, kappa) == det(A_matrix(ctx, kappa)), (nu, kappa)


def _assert_row_entries_equal_oracle(nu, k):
    ctx = DetContext(k, nu)
    row = link_row(nu, k)
    for kappa in support_box(nu, k):
        assert row[kappa] == dim_product(kappa) * det(A_matrix(ctx, kappa)), kappa


@settings(max_examples=25, deadline=None)
@given(wide_rows(max_n=7, bound=5, max_k=3))
def test_link_row_entries_equal_matrix_det(case):
    nu, k, _ = case
    _assert_row_entries_equal_oracle(nu, k)


@settings(max_examples=30, deadline=None)
@given(wide_rows(max_n=6, bound=4, max_k=5))
@example(((4, 1, -1, -4), 1, ()))  # the empty prefix
@example(((4, 1, -1, -4), 3, ()))  # K = N - 1
def test_link_row_weights_equal_the_per_kappa_product(case):
    # the row takes dim_product once per prefix kappa_1..kappa_{K-1}; the
    # per-kappa product is its reference, key order included
    nu, k, _ = case
    ctx = DetContext(k, nu)
    expected = {kappa: dim_product(kappa) * r for kappa in support_box(nu, k) if (r := rel_dim_ratio(ctx, kappa))}
    assert list(link_row(nu, k).items()) == list(expected.items())


@pytest.mark.parametrize("k", [1, 2])
def test_link_row_entries_equal_matrix_det_wider_than_column_cache(k):
    # the last columns of a prefix cycle through the whole row width, so a
    # row wider than the cleared-column cache evicts and re-clears them
    width = _cleared_column.cache_info().maxsize + 2
    nu = (width - 1, 0) if k == 1 else (width - 1, width // 2, 0)
    _assert_row_entries_equal_oracle(nu, k)


@settings(max_examples=60, deadline=None)
@given(chain_levels(max_box=300))
def test_link_rows_compose_through_an_intermediate_level(case):
    # Lambda^N_K = Lambda^N_M Lambda^M_K, exactly, on rows wider than the
    # coherence suite's [-1, 1] sweep
    nu, k, m = case
    composed: dict = {}
    for mu, w in link_row(nu, m).items():
        for kappa, v in link_row(mu, k).items():
            composed[kappa] = composed.get(kappa, 0) + w * v
    assert composed == dict(link_row(nu, k).items())


@settings(max_examples=60, deadline=None)
@given(wide_rows())
def test_ratio_equals_matrix_det_wide_rows(case):
    nu, k, kappas = case
    ctx = DetContext(k, nu)
    for kappa in kappas:
        assert rel_dim_ratio(ctx, kappa) == det(A_matrix(ctx, kappa)), kappa


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=7).map(lambda p: tuple(sorted(p, reverse=True))),
    st.data(),
)
def test_link_row_shift_invariance(nu, data):
    k = data.draw(st.integers(1, len(nu) - 1))
    c = data.draw(st.integers(-6, 6))
    shifted = link_row(tuple(v + c for v in nu), k)
    want = {tuple(v + c for v in kappa): w for kappa, w in link_row(nu, k).items()}
    assert dict(shifted.items()) == want


@settings(max_examples=25, deadline=None)
@given(top_rows(max_n=7, bound=6).filter(lambda nu: len(nu) > 1))
def test_bo_coefficient_equals_a_coeff_wide_rows(nu):
    # the division route against the residue sum, past the [-2, 2] sweep
    for k in range(1, len(nu)):
        ctx = DetContext(k, nu)
        for i in range(1, k + 1):
            for x in range(nu[-1] - k, nu[0] + 1):
                assert bo_coefficient(ctx, i, x) == A_coeff(ctx, i, x), (k, i, x)


def test_bo_numerator_that_is_not_integral_raises(monkeypatch):
    monkeypatch.setattr(reldim, "poly_mul", lambda p, q: (F(1, 2), F(1)))
    reldim._bo_numerator.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not integral"):
            bo_coefficient(DetContext(1, (2, 1, 0)), 1, 0)
    finally:
        reldim._bo_numerator.cache_clear()


def _per_node_a_coeff(nu, k, i, x):
    """A_i(x) as a sum of one normalised Fraction per node, with the node
    product and the cancelled polynomial part (y+1)_N / (y+i)_{N-K+1}
    written out directly."""
    n = len(nu)
    nodes = [v - j for j, v in enumerate(nu, start=1)]
    total = F(0)
    for aj in nodes:
        if aj >= x:
            rising = math.prod(range(aj - x + 1, aj - x + n - k))
            poly = math.prod(aj + r for r in range(1, n + 1) if not i <= r <= n - k + i)
            total += F(rising * poly, math.prod(aj - ar for ar in nodes if ar != aj))
    return (n - k) * total


@settings(max_examples=40, deadline=None)
@given(levels(max_n=9, bound=6))
def test_a_coeff_equals_the_per_node_fraction_sum(case):
    nu, k = case
    ctx = DetContext(k, nu)
    nodes = ctx.nodes()
    # every i, and x from below the last node to above the first
    for i in range(1, k + 1):
        for x in range(nodes[-1] - 3, nodes[0] + 2):
            assert A_coeff(ctx, i, x) == _per_node_a_coeff(nu, k, i, x), (i, x)
