"""q-deformed determinantal counts against the q-weighted enumeration."""

import math
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import skew_schur_combinatorial
from strategies import chain_levels, levels, top_rows, wide_qs, wide_rows

from gtkit import patterns, qlinks, reldim
from gtkit.linalg import det, vandermonde_inverse
from gtkit.patterns import q_dim, q_dim_oracle, q_rel_dim_oracle, support_box
from gtkit.qlinks import (
    QDetContext,
    TSpec,
    general_q_projection,
    general_q_ratio,
    psi_T,
    q_link_row,
    q_prefactor,
    q_rel_dim_ratio,
    q_to_1_check,
    qA_coeff,
)
from gtkit.reldim import A_coeff, DetContext, _cleared_column, _coefficient_det_parts, bo_coefficient, link_row
from gtkit.schur import h_at_q_powers

Q = F(1, 2)


def test_context_validation():
    ctx = QDetContext(1, (2, 1, 0), Q)
    assert ctx.N == 3
    assert ctx.nodes() == (1, -1, -3)
    with pytest.raises(ValueError):
        QDetContext(1, (1, 0), F(3, 2))
    with pytest.raises(ValueError):
        QDetContext(2, (1, 0), Q)


@pytest.mark.parametrize("cls, extra", [(DetContext, ()), (QDetContext, (Q,))])
def test_contexts_whose_parts_differ_in_minus_one_and_minus_two_hash_apart(cls, extra):
    # hash(-1) == hash(-2) in CPython, so a hash over the plain parts collides
    contexts = [cls(1, nu, *extra) for nu in [(-1, -2), (-2, -2), (-1, -1)]]
    assert len({hash(ctx) for ctx in contexts}) == 3
    same = cls(1, [-1, -2], *extra)
    assert (same, hash(same)) == (contexts[0], hash(contexts[0]))
    assert repr(same).startswith(f"{cls.__name__}(K=1, nu=(-1, -2)")


def test_tspec_validation():
    t = TSpec(4, 2, (0, 1))
    assert t.S == (2, 3)
    assert t.S_prime == (1, 2)  # N - s, sorted
    assert TSpec(4, 2, (3, 1)).T == (1, 3)
    # S and S' are kept beside the fields, not as fields
    assert [f.name for f in fields(TSpec)] == ["N", "K", "T"]
    assert repr(TSpec(4, 2, (3, 1))) == "TSpec(N=4, K=2, T=(1, 3))"
    assert TSpec(4, 2, (3, 1)) == TSpec(4, 2, (1, 3))
    assert hash(TSpec(4, 2, (3, 1))) == hash(TSpec(4, 2, (1, 3)))
    with pytest.raises(ValueError):
        TSpec(4, 2, (0,))
    with pytest.raises(ValueError):
        TSpec(4, 2, (0, 4))
    with pytest.raises(ValueError):
        TSpec(4, 2, (1, 1))


@pytest.mark.parametrize("n, k, t", [(3, 1, (0.9, 1.2)), (3, 1, (0, 1.0)), (3, 1, (F(0), 1)), (3.0, 1, (0, 1)), (3, 1.5, (0,))])
def test_tspec_refuses_values_that_are_not_integers(n, k, t):
    # they were truncated: TSpec(3, 1, (0.9, 1.2)) read as T = (0, 1)
    with pytest.raises(ValueError, match="must be (integers|an integer), got"):
        TSpec(n, k, t)


def test_q_prefactor():
    ctx = QDetContext(1, (1, 0), Q)
    # (-1)^{1*1} q^{1*|kappa|} q^{-1*1*4/2}
    assert q_prefactor(ctx, (1,)) == -Q * Q**-2
    assert q_prefactor(ctx, (0,)) == -(Q**-2)


def test_ratio_matches_q_oracle():
    for nu in [(1, 0), (2, 1, 0), (2, 0, -1)]:
        denom = q_dim(nu, Q)
        for K in range(1, len(nu)):
            ctx = QDetContext(K, nu, Q)
            for kappa in support_box(nu, K):
                want = q_rel_dim_oracle(kappa, nu, Q) / denom
                assert q_rel_dim_ratio(ctx, kappa) == want, (nu, K, kappa)


def test_qa_coeff_index_range():
    ctx = QDetContext(1, (1, 0), Q)
    with pytest.raises(ValueError):
        qA_coeff(ctx, 2, 0)
    with pytest.raises(ValueError):
        psi_T(ctx, TSpec(2, 1, (0,)), 3, 0)


def test_general_ratio_reduces_to_q_ratio():
    # bottom-run subset T = {0, ..., N-K-1}: the two ratios differ by
    # q^{(N-K)|kappa|}, the scaling between s_kappa(q^S) and s_kappa(1..q^{K-1})
    for nu in [(2, 1, 0), (2, 1, 0, -1)]:
        n = len(nu)
        for k in range(1, n):
            ctx = QDetContext(k, nu, Q)
            tspec = TSpec(n, k, tuple(range(n - k)))
            for kappa in support_box(nu, k):
                got = Q ** ((n - k) * sum(kappa)) * general_q_ratio(ctx, tspec, kappa)
                assert got == q_rel_dim_ratio(ctx, kappa), (nu, k, kappa)


def test_general_ratio_other_subset():
    # T = {1, 2}: skew evaluation at (q, q^2) against the explicit walk
    nu, k = (2, 1, 0), 1
    ctx = QDetContext(k, nu, Q)
    tspec = TSpec(3, k, (1, 2))
    denom = q_dim(nu, Q)
    for kappa in support_box(nu, k):
        want = skew_schur_combinatorial(nu, kappa, (Q, Q**2)) / denom
        assert general_q_ratio(ctx, tspec, kappa) == want, kappa


def test_projection_mass_is_one():
    nu = (2, 1, 0)
    for k in (1, 2):
        ctx = QDetContext(k, nu, Q)
        for t in [(0,), (1,), (2,)] if k == 2 else [(0, 1), (0, 2), (1, 2)]:
            tspec = TSpec(3, k, t)
            mass = sum(
                general_q_projection(ctx, tspec, kappa) for kappa in support_box(nu, k)
            )
            assert mass == 1, (k, t)


def test_q_link_row_frozen_example():
    row = q_link_row((1, 0), 1, Q)
    assert dict(row.items()) == {(0,): F(2, 3), (1,): F(1, 3)}
    assert sum(row.weights.values()) == 1


def test_q_to_1_pairs():
    # the q-coefficient approaches (-1)^{N-K} times the q=1 coefficient
    gaps = []
    for k in (1, 2, 3):
        q = F(10**k - 1, 10**k)
        got, target = q_to_1_check(1, (2, 1, 0), 1, 0, q)
        gaps.append(abs(got - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < F(1, 100)


@settings(max_examples=40, deadline=None)
@given(chain_levels(max_box=120), wide_qs())
def test_q_link_rows_compose_through_an_intermediate_level(case, q):
    nu, k, m = case
    composed: dict = {}
    for mu, w in q_link_row(nu, m, q).items():
        for kappa, v in q_link_row(mu, k, q).items():
            composed[kappa] = composed.get(kappa, 0) + w * v
    assert composed == dict(q_link_row(nu, k, q).items())


@settings(max_examples=30, deadline=None)
@given(levels(max_n=6, bound=4))
def test_q_link_rows_approach_the_link_row_as_q_goes_to_1(case):
    # the L1 distance to the q = 1 row falls strictly along q = 1 - 1/m,
    # unless it is 0 throughout (a row with one bottom row)
    nu, k = case
    row = link_row(nu, k)
    distances = []
    for m in (10, 100, 1000):
        q_row = q_link_row(nu, k, F(m - 1, m))
        distances.append(sum(abs(q_row[kappa] - row[kappa]) for kappa in set(row.weights) | set(q_row.weights)))
    assert distances == [0, 0, 0] or distances[0] > distances[1] > distances[2], distances


def _assert_q_row_entries_equal_oracle(nu, k, q):
    ctx = QDetContext(k, nu, q)
    row = q_link_row(nu, k, q)
    for kappa in support_box(nu, k):
        matrix = [[qA_coeff(ctx, i, kappa[j] - j - 1) for j in range(k)] for i in range(1, k + 1)]
        assert row[kappa] == q_dim(kappa, q) * q_prefactor(ctx, kappa) * det(matrix), kappa


@settings(max_examples=20, deadline=None)
@given(wide_rows(max_n=6, bound=4, max_k=3), st.sampled_from([F(1, 2), F(3, 4)]))
def test_q_link_row_entries_equal_prefactor_times_det(case, q):
    nu, k, _ = case
    _assert_q_row_entries_equal_oracle(nu, k, q)


@settings(max_examples=30, deadline=None)
@given(wide_rows(max_n=6, bound=4, max_k=5), wide_qs())
@example(((4, 1, -1, -4), 1, ()), F(59, 60))  # the empty prefix
@example(((4, 1, -1, -4), 3, ()), F(1, 60))  # K = N - 1
def test_q_link_row_weights_equal_the_per_kappa_product(case, q):
    # the row takes q_dim once per prefix kappa_1..kappa_{K-1}; the
    # per-kappa product is its reference, key order included
    nu, k, _ = case
    ctx = QDetContext(k, nu, q)
    expected = {kappa: q_dim(kappa, q) * r for kappa in support_box(nu, k) if (r := q_rel_dim_ratio(ctx, kappa))}
    assert list(q_link_row(nu, k, q).items()) == list(expected.items())


def test_q_link_row_entries_equal_prefactor_times_det_wider_than_column_cache():
    # K = 1: every last column is a new position, more of them than the
    # cleared-column cache holds
    width = _cleared_column.cache_info().maxsize + 2
    _assert_q_row_entries_equal_oracle((width - 1, 0), 1, Q)


@settings(max_examples=40, deadline=None)
@given(wide_rows(), st.sampled_from([F(1, 2), F(3, 4)]))
def test_q_ratio_equals_prefactor_times_det_wide_rows(case, q):
    nu, k, kappas = case
    ctx = QDetContext(k, nu, q)
    for kappa in kappas:
        matrix = [[qA_coeff(ctx, i, kappa[j] - j - 1) for j in range(k)] for i in range(1, k + 1)]
        assert q_rel_dim_ratio(ctx, kappa) == q_prefactor(ctx, kappa) * det(matrix), kappa


@st.composite
def rows_with_level(draw):
    """A top row with N <= 5 and parts in [-4, 4], and a level 1 <= K < N
    (None when N = 1)."""
    nu = draw(top_rows(max_n=5, bound=4))
    return nu, draw(st.integers(1, len(nu) - 1)) if len(nu) > 1 else None


@settings(max_examples=60, deadline=None)
@given(rows_with_level(), wide_qs())
@example(((4, 1, -1, -4), 2), F(1, 60))
@example(((4, 1, -1, -4), 2), F(59, 60))
@example(((0, -2, -3, -4, -4), 3), F(1, 2))
def test_integer_q_route_equals_oracles_at_wide_q(case, q):
    nu, k = case
    top = q_dim(nu, q)
    assert top == q_dim_oracle(nu, q)
    if k is None:
        return
    ctx = QDetContext(k, nu, q)
    for kappa in support_box(nu, k):
        assert q_rel_dim_ratio(ctx, kappa) * top == q_rel_dim_oracle(kappa, nu, q), (nu, k, kappa)


@st.composite
def subset_cases(draw, max_den=12):
    """A top row with N <= 5, a level K, a random T of size N - K and
    q = a/b with b <= max_den."""
    nu, k = draw(rows_with_level().filter(lambda case: case[1] is not None))
    n = len(nu)
    t = draw(st.permutations(range(n)))[: n - k]
    return nu, k, t, draw(wide_qs(max_den=max_den))


@settings(max_examples=25, deadline=None)
@given(subset_cases())
def test_projection_mass_is_one_at_random_subsets(case):
    nu, k, t, q = case
    ctx = QDetContext(k, nu, q)
    tspec = TSpec(len(nu), k, t)
    assert sum(general_q_projection(ctx, tspec, kappa) for kappa in support_box(nu, k)) == 1


@settings(max_examples=60, deadline=None)
@given(subset_cases(max_den=60), st.data())
def test_psi_T_equals_the_sum_over_every_node(case, data):
    nu, k, t, q = case
    ctx = QDetContext(k, nu, q)
    tspec = TSpec(len(nu), k, t)
    nodes = ctx.nodes()
    i = data.draw(st.integers(1, len(nu)), label="i")
    # from below the last node to above the first, where every term vanishes
    x = data.draw(st.integers(nodes[-1] - 3, nodes[0] + 3), label="x")
    inv = vandermonde_inverse([q**a for a in nodes])
    full = sum(h_at_q_powers(a - x, tspec.T, q) * inv[i - 1][j] for j, a in enumerate(nodes))
    assert psi_T(ctx, tspec, i, x) == full


def _per_node_qa_coeff(nu, k, q, i, x):
    """qA_i(x) as a sum of one normalised Fraction per node, each term taken
    in plain Fraction arithmetic: (1 - q^{N-K}) prod (1 - q^s) times the
    cancelled polynomial part prod (q^{a_j} - q^{-r}), over the node product
    prod_{r != j} (q^{a_j} - q^{a_r})."""
    n, m = len(nu), len(nu) - k
    nodes = [v - j for j, v in enumerate(nu, start=1)]
    total = F(0)
    for aj in nodes:
        if aj >= x:
            term = math.prod((1 - q**s for s in range(aj + 1 - x, aj - x + m)), start=1 - q**m)
            term *= math.prod(q**aj - q**-r for r in range(1, n + 1) if not i <= r <= n - k + i)
            total += term / math.prod(q**aj - q**ar for ar in nodes if ar != aj)
    return total


@settings(max_examples=30, deadline=None)
@given(levels(max_n=7, bound=6), wide_qs())
@example(((6, 6, -6, -6), 2), F(1, 60))
@example(((6, 6, -6, -6), 2), F(59, 60))
def test_qa_coeff_equals_the_per_node_fraction_sum(case, q):
    nu, k = case
    ctx = QDetContext(k, nu, q)
    nodes = ctx.nodes()
    for i in range(1, k + 1):
        for x in range(nodes[-1] - 2, nodes[0] + 2):
            assert qA_coeff(ctx, i, x) == _per_node_qa_coeff(nu, k, q, i, x), (i, x)


@settings(max_examples=40, deadline=None)
@given(wide_rows(max_n=8, bound=6), wide_qs())
def test_q_ratio_is_prefactor_times_coefficient_det(case, q):
    nu, k, kappas = case
    ctx = QDetContext(k, nu, q)
    for kappa in kappas:
        want = q_prefactor(ctx, kappa) * F(*_coefficient_det_parts(qA_coeff, ctx, kappa))
        assert q_rel_dim_ratio(ctx, kappa) == want, kappa


def _signed_power(nu, k, q, kappa):
    """(-1)^{K(N-K)} q^{(N-K)|kappa| - K(N-K)(N+2)/2} by Fraction.__pow__."""
    n = len(nu)
    return (-1) ** (k * (n - k)) * q ** ((n - k) * sum(kappa) - k * (n - k) * (n + 2) // 2)


@settings(max_examples=80, deadline=None)
@given(levels(max_n=12, bound=6), wide_qs(), st.data())
def test_q_prefactor_is_the_signed_power(case, q, data):
    nu, k = case
    ctx = QDetContext(k, nu, q)
    # parts up to 30 either way give exponents of both signs
    parts = data.draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k), label="kappa")
    kappa = tuple(sorted(parts, reverse=True))
    assert q_prefactor(ctx, kappa) == _signed_power(nu, k, q, kappa)


def test_q_prefactor_exponents_of_each_sign():
    # N = 4, K = 2: the exponent is 2|kappa| - 12
    nu, k, q = (3, 2, 1, 0), 2, F(2, 5)
    ctx = QDetContext(k, nu, q)
    for kappa, e in [((-3, -4), -26), ((3, 2), -2), ((3, 3), 0), ((9, 0), 6)]:
        assert q_prefactor(ctx, kappa) == q**e == _signed_power(nu, k, q, kappa)


def test_oracle_routes_use_none_of_the_integer_sum_helpers(monkeypatch):
    # the lcm of the node products, the integer residue sum, the unreduced
    # determinant and the q-power cache belong to the determinantal path; the
    # routes it is checked against must not call them
    def forbidden(*args):
        raise AssertionError("an oracle route called a helper of the determinantal path")

    for cls in (DetContext, QDetContext):
        monkeypatch.setattr(cls, "barycentric_lcm", property(forbidden))
    monkeypatch.setattr(qlinks, "_q_power", forbidden)
    monkeypatch.setattr(qlinks, "_q_sum", forbidden)
    monkeypatch.setattr(patterns, "_q_sum", forbidden)
    monkeypatch.setattr(qlinks, "_coefficient_det_parts", forbidden)
    monkeypatch.setattr(reldim, "_coefficient_det_parts", forbidden)
    nu, k, kappa, q = (3, 1, 0, -2), 2, (1, 0), F(7, 19)  # a q no other test uses
    ctx, qctx = DetContext(k, nu), QDetContext(k, nu, q)
    xs = range(nu[-1] - k - 1, nu[0] + 1)
    bo = [bo_coefficient(ctx, i, x) for i in (1, 2) for x in xs]
    general = general_q_ratio(qctx, TSpec(4, 2, (0, 1)), kappa)  # the bottom run T
    chains, triangles = q_rel_dim_oracle(kappa, nu, q), q_dim_oracle(nu, q)
    monkeypatch.undo()
    assert bo == [A_coeff(ctx, i, x) for i in (1, 2) for x in xs]
    # at the bottom run the ratios differ by q^{(N-K)|kappa|}
    assert q ** (2 * sum(kappa)) * general == q_rel_dim_ratio(qctx, kappa)
    assert chains == q_rel_dim_ratio(qctx, kappa) * triangles
