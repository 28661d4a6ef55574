"""Interlacing rows, pattern enumeration, and the enumeration oracles."""

import inspect
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtkit.patterns
from gtkit.patterns import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    all_signatures,
    check_signature,
    dim_oracle,
    dim_product,
    enumerate_trapezoids,
    fits_under,
    format_signature,
    interlaces,
    parse_signature,
    profile_at_q_powers,
    q_dim,
    q_dim_oracle,
    q_rel_dim_oracle,
    q_series,
    rel_dim_oracle,
    rel_dim_table,
    rel_dim_table_bound,
    skew_profile,
    support_box,
)
from gtkit.schur import skew_schur_combinatorial
from gtkit.verify import bench_signature

from strategies import q_points, top_rows


def test_parse_format_roundtrip():
    assert parse_signature("4,2,0,0,-1") == (4, 2, 0, 0, -1)
    assert parse_signature("") == ()
    assert format_signature((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        parse_signature("2,3")
    with pytest.raises(ValueError, match="position 2"):
        parse_signature("1,x")


def test_interlaces():
    assert interlaces((1,), (2, 0))
    assert interlaces((), (5,))
    assert not interlaces((3,), (2, 0))
    assert not interlaces((1, 0), (1,))


def test_fits_under_matches_enumeration():
    # fits_under must coincide with "some trapezoid exists"
    nu = (2, 1, -1)
    for kappa in all_signatures(2, -2, 3):
        has_chain = rel_dim_oracle(kappa, nu) > 0
        assert fits_under(kappa, nu) == has_chain, kappa


def test_check_signature_refuses_parts_that_are_not_integers():
    # a part is taken as an integer only when it is one, never truncated
    for sig in ((2.7, 0), (2.0, 0), (F(5, 2), 0), (F(2), 0), ("2", 0)):
        with pytest.raises(ValueError, match="parts must be integers"):
            check_signature(sig)
    with pytest.raises(ValueError, match="parts must be integers"):
        dim_product((2.7, 0))
    with pytest.raises(TypeError):
        check_signature(5)  # not a sequence at all
    assert check_signature((True, False)) == (1, 0)
    assert all(type(part) is int for part in check_signature((True, False)))


def test_dim_known_values():
    assert dim_product((1, 0)) == 2
    assert dim_product((2, 1, 0)) == 8
    assert dim_product((0, 0, 0)) == 1
    assert dim_product((1,)) == 1


@settings(max_examples=60, deadline=None)
@given(top_rows(max_n=4, bound=5))
def test_dim_product_matches_oracle(nu):
    walk = Budget(DEFAULT_BUDGET)
    assert dim_oracle(nu, budget=walk) == dim_product(nu)
    assert walk.bound == rel_dim_table_bound(nu, 1) <= walk.consumed


def test_rel_dim_oracle_edges():
    assert rel_dim_oracle((1, 0), (1, 0)) == 1  # K = N, equal rows
    assert rel_dim_oracle((2, 2), (1, 0)) == 0  # K = N, different rows
    assert rel_dim_oracle((5,), (2, 0)) == 0  # does not fit
    assert rel_dim_oracle((1,), (2, 0)) == 1
    for oracle, args in ((rel_dim_oracle, ()), (q_rel_dim_oracle, (F(1, 2),))):
        with pytest.raises(ValueError, match="bottom row longer than top row"):
            oracle((1, 0, 0), (1, 0), *args)


def test_rel_dim_table_groups_counts():
    nu = (2, 1, 0)
    table = rel_dim_table(nu, 1)
    assert table == {(k,): rel_dim_oracle((k,), nu) for k in range(0, 3)}
    assert sum(table[k] * dim_product(k) for k in table) == dim_product(nu)


def test_support_box_covers_support():
    nu = (2, 1, -1)
    box = set(support_box(nu, 2))
    assert box == set(all_signatures(2, -1, 2))
    support = {k for k in all_signatures(2, -2, 3) if rel_dim_oracle(k, nu) > 0}
    assert support <= box


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        dim_oracle((40, 20, 0, -20, -40), budget=100)


def test_budget_below_zero_is_refused():
    with pytest.raises(ValueError, match="at least 0"):
        Budget(-1)
    with pytest.raises(ValueError, match="at least 0"):
        dim_oracle((1, 0), budget=-3)
    assert Budget(0).remaining == 0


@pytest.mark.parametrize("units", [2.5, "12", F(3)])
def test_budget_that_is_not_an_integer_is_refused(units):
    with pytest.raises(ValueError, match="work budget must be an integer"):
        Budget(units)
    with pytest.raises(ValueError, match="work budget must be an integer"):
        rel_dim_table((2, 1, 0), 1, budget=units)


# ---------------------------------------------------------------------------
# the budget pre-flight

WALK_CAP = 20_000  # units; a walk that needs more is refused or stopped


def _spent(oracle, *args):
    """(pre-flight bound, units consumed) of a walk that finishes within
    WALK_CAP, or None when it is refused or stopped."""
    walk = Budget(WALK_CAP)
    try:
        oracle(*args, budget=walk)
    except BudgetExceededError as err:
        if err.bound is None:  # stopped partway: the pre-flight let it start
            assert walk.bound is not None and walk.bound <= WALK_CAP < err.consumed
        else:
            assert err.consumed == 0 and err.bound > WALK_CAP
        return None
    return walk.bound, walk.consumed


@settings(max_examples=120, deadline=None)
@given(top_rows().flatmap(lambda nu: st.tuples(st.just(nu), st.integers(0, len(nu)))))
@example(((3,), 0))
@example(((3,), 1))
@example(((2, 0, -1), 0))
@example(((2, 0, -1), 3))
def test_rel_dim_table_bound_never_exceeds_the_walk(nu_k):
    nu, k = nu_k
    spent = _spent(rel_dim_table, nu, k)
    if spent is not None:
        bound, consumed = spent
        assert bound == rel_dim_table_bound(nu, k) <= consumed


@settings(max_examples=60, deadline=None)
@given(top_rows())
@example((3,))
def test_triangular_bounds_never_exceed_the_walk(nu):
    for oracle, args in ((dim_oracle, (nu,)), (q_dim_oracle, (nu, F(2, 3)))):
        spent = _spent(oracle, *args)
        if spent is not None:
            bound, consumed = spent
            assert bound == (dim_product(nu) if len(nu) >= 2 else 0) <= consumed


def test_rel_dim_table_bound_small_sweep():
    # every walk here finishes, so each bound is checked against a real count
    for n in range(1, 6):
        for nu in all_signatures(n, -2, 2):
            for k in range(n + 1):
                walk = Budget(10**9)
                rel_dim_table(nu, k, budget=walk)
                assert walk.bound <= walk.consumed, (nu, k)


def test_oracle_walks_keep_their_values_and_units():
    # each oracle counts the same cells as its per-pattern Fraction walk did,
    # whether it finishes or is stopped partway
    q = F(1, 2)
    nu = (3, 1, 0, -2)
    for call, value, units in (
        (lambda b: q_dim_oracle(nu, q, budget=b), F(571795, 2048), 570),
        (lambda b: q_rel_dim_oracle((1, 0), nu, q, budget=b), F(147, 32), 126),
        (lambda b: skew_schur_combinatorial(nu, (1, 0), (2, 3), budget=b), F(1805, 36), 126),
    ):
        walk = Budget(WALK_CAP)
        assert call(walk) == value
        assert walk.consumed == units
    for call, units, consumed in (
        (lambda b: q_dim_oracle(nu, q, budget=b), 400, 401),
        (lambda b: q_rel_dim_oracle((1, 0), nu, q, budget=b), 60, 63),
    ):
        with pytest.raises(BudgetExceededError) as info:
            call(units)
        assert (info.value.consumed, info.value.bound) == (consumed, None)


def test_edge_levels_have_zero_bound():
    nu = (4, 1, 0, -3)
    assert rel_dim_table_bound(nu, 0) == rel_dim_table_bound(nu, 4) == 0
    assert rel_dim_table_bound((7,), 0) == rel_dim_table_bound((7,), 1) == 0
    # K = N places no row, so it finishes on any budget, however small
    assert rel_dim_table(nu, 4, budget=0) == {nu: 1}
    assert dim_oracle((7,), budget=0) == 1


@pytest.mark.parametrize(
    "oracle, args",
    [
        (rel_dim_table, ((9, 5, 0, -4, -9), 2)),
        (dim_oracle, ((9, 5, 0, -4, -9),)),
        (q_dim_oracle, ((9, 5, 0, -4, -9), F(1, 2))),
    ],
)
def test_refusal_spends_nothing_and_names_its_bound(oracle, args):
    walk = Budget(1000)
    with pytest.raises(BudgetExceededError) as info:
        oracle(*args, budget=walk)
    err = info.value
    assert (err.budget, err.consumed) == (1000, 0)
    assert err.bound > err.budget
    assert walk.remaining == 1000
    assert f"at least {err.bound} work units" in str(err)


def test_partway_stop_has_no_bound():
    with pytest.raises(BudgetExceededError) as info:
        rel_dim_table((3, 1, 0, -2), 1, budget=400)  # bound 300, the walk needs 570
    err = info.value
    assert err.bound is None and err.budget == 400 < err.consumed


@pytest.mark.parametrize(
    "walk",
    [
        lambda budget: list(enumerate_trapezoids((0,), (10**9, 0, 0), budget)),
        lambda budget: skew_profile((0,), (10**9, 0, 0), budget),
        lambda budget: rel_dim_oracle((0,), (10**9, 0, 0), budget),
        lambda budget: q_rel_dim_oracle((0,), (10**9, 0, 0), F(1, 2), budget),
        lambda budget: skew_schur_combinatorial((10**9, 0, 0), (0,), (1, 2), budget),
    ],
    ids=["enumerate_trapezoids", "skew_profile", "rel_dim_oracle", "q_rel_dim_oracle", "skew_schur_combinatorial"],
)
def test_upward_walk_under_a_wide_row_stops_at_its_budget(walk):
    # the upward walk has no pre-flight: it must draw each row part by part,
    # so a range of 10^9 values is never built before the budget runs out
    budget = Budget(100)
    with pytest.raises(BudgetExceededError) as info:
        walk(budget)
    assert info.value.bound is None and 100 < info.value.consumed <= 105  # 5 units a chain


def test_every_enum_refusal_pair_is_refused_up_front():
    # the benchmark's enum-refusal workload: N in 8..20, K in 1..3, 300k units
    for n in range(8, 21):
        for k in (1, 2, 3):
            with pytest.raises(BudgetExceededError) as info:
                rel_dim_table(bench_signature(n), k, budget=300_000)
            assert info.value.consumed == 0 and info.value.bound > 300_000, (n, k)


def test_enumeration_is_lexicographic_and_complete():
    pats = list(enumerate_trapezoids((1,), (2, 1, 0)))
    middles = [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert pats == [((1,), row, (2, 1, 0)) for row in middles]
    assert len(pats) == rel_dim_oracle((1,), (2, 1, 0))
    assert all(interlaces(lower, upper) for rows in pats for lower, upper in zip(rows, rows[1:]))


def test_enumerate_trapezoids_checks_its_arguments_at_the_call(monkeypatch):
    # refused before the first next, not when the walk is first advanced
    with pytest.raises(ValueError, match="bottom row longer than top row"):
        enumerate_trapezoids((1, 0, 0), (1, 0))
    with pytest.raises(ValueError, match="nonincreasing"):
        enumerate_trapezoids((1,), (0, 1))
    monkeypatch.setenv("GTKIT_BUDGET", "abc")
    with pytest.raises(ValueError, match="GTKIT_BUDGET"):
        enumerate_trapezoids((1,), (2, 1, 0))
    monkeypatch.delenv("GTKIT_BUDGET")
    # still a generator: nothing is walked until it is advanced, and it can be closed
    walk = Budget(100)
    pats = enumerate_trapezoids((1,), (2, 1, 0), walk)
    assert inspect.isgenerator(pats) and walk.consumed == 0
    assert next(pats) == ((1,), (1, 0), (2, 1, 0)) and walk.consumed == 5  # 2 + 3 units
    pats.close()
    assert list(enumerate_trapezoids((5,), (2, 0))) == []  # does not fit


@st.composite
def trapezoid_ends(draw, max_n=7, margin=2):
    """A top row nu with N <= max_n, and a bottom row kappa of length
    0 <= K <= N whose parts may leave nu's support box by up to margin."""
    nu = draw(top_rows(max_n=max_n))
    k = draw(st.integers(0, len(nu)))
    parts = draw(st.lists(st.integers(nu[-1] - margin, nu[0] + margin), min_size=k, max_size=k))
    return tuple(sorted(parts, reverse=True)), nu


@settings(max_examples=100, deadline=None)
@given(trapezoid_ends())
@example(((1, 0), (1, 0)))
@example(((2, 2), (1, 0)))
@example(((), (3, 1, 0)))
def test_walked_patterns_interlace(ends):
    # every pattern enumerate_trapezoids yields runs from kappa to nu in
    # rows of consecutive lengths, each interlacing under the next
    kappa, nu = ends
    patterns = []
    try:
        for rows in enumerate_trapezoids(kappa, nu, budget=WALK_CAP):
            patterns.append(rows)
    except BudgetExceededError:
        pass  # the patterns walked before the stop are checked all the same
    for rows in patterns:
        assert (rows[0], rows[-1]) == (kappa, nu) and len(rows) == len(nu) - len(kappa) + 1
        assert all(interlaces(lower, upper) for lower, upper in zip(rows, rows[1:]))
    flat = [sum(rows, ()) for rows in patterns]
    assert flat == sorted(set(flat))  # lexicographic, each pattern once
    if not all(nu[-1] <= part <= nu[0] for part in kappa):
        assert not patterns


@settings(max_examples=60, deadline=None)
@given(top_rows(max_n=7))
def test_rows_below_a_top_row_are_its_interlacing_rows(nu):
    # one downward step from nu draws every interlacing row once, in
    # lexicographic order, at N - 1 units a row; at N = 1 the one row is ()
    n = len(nu)
    walk = Budget(DEFAULT_BUDGET)
    rows = list(rel_dim_table(nu, n - 1, budget=walk))
    assert rows == [r for r in all_signatures(n - 1, nu[-1], nu[0]) if interlaces(r, nu)]
    assert walk.consumed == (n - 1) * len(rows)


@settings(max_examples=30, deadline=None)
@given(top_rows(max_n=5, bound=3), q_points())
def test_upward_and_downward_walks_agree(nu, q):
    # the upward walk per kappa against the downward walk to every kappa at once
    for k in range(1, len(nu)):
        box = list(support_box(nu, k))
        counts = {kappa: rel_dim_oracle(kappa, nu) for kappa in box}
        assert rel_dim_table(nu, k) == {kappa: count for kappa, count in counts.items() if count}
        # q-volumes split at level K into the trapezoid above and the triangle below
        split = sum(q_rel_dim_oracle(kappa, nu, q) * q_dim_oracle(kappa, q) for kappa in box)
        assert q_dim_oracle(nu, q) == split, k


def test_q_dim_values():
    q = F(1, 2)
    assert q_dim((1, 0), q) == F(3, 2)
    assert q_dim((0, 0), q) == 1
    assert q_dim((1,), q) == 1  # no rows below the top, empty product
    with pytest.raises(ValueError):
        q_dim((1, 0), 1)


@settings(max_examples=40, deadline=None)
@given(top_rows(max_n=4, bound=5), q_points(max_denominator=12))
def test_q_dim_matches_oracle(nu, q):
    walk = Budget(DEFAULT_BUDGET)
    assert q_dim_oracle(nu, q, budget=walk) == q_dim(nu, q)
    assert walk.bound == rel_dim_table_bound(nu, 1) <= walk.consumed


def test_q_rel_dim_oracle_values():
    q = F(1, 2)
    # only chain (1) < (1,0): no middle rows, weight q^{|kappa|}
    assert q_rel_dim_oracle((1,), (1, 0), q) == F(1, 2)
    assert q_rel_dim_oracle((1, 0), (1, 0), q) == F(1, 2)  # K = N edge: q^{|kappa|}
    assert q_rel_dim_oracle((2, 2), (1, 0), q) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=5),
    st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda q: 0 < q < 1),
)
def test_q_series_equals_the_termwise_sum(counts, q):
    assert q_series(counts, q) == sum((c * q**e for e, c in counts.items()), F(0))


def test_profile_at_q_powers_counts_each_trapezoid_once():
    nu, kappa = (2, 1, 0, -1), (1, 0)
    profile = skew_profile(kappa, nu)
    assert sum(profile.values()) == rel_dim_oracle(kappa, nu)
    # at t = (1, 0) only the first added row is weighted
    q = F(2, 3)
    want = sum((q ** sum(rows[1]) for rows in enumerate_trapezoids(kappa, nu)), F(0)) / q ** sum(kappa)
    assert profile_at_q_powers(profile, (1, 0), q) == want


def test_oracles_share_no_q_power_helper(monkeypatch):
    # q_dim and the q-link path build their values with _q_diff_product,
    # _q_fraction and _q_sum; the oracles they are checked against must not
    def forbidden(*args):
        raise AssertionError("an oracle called a q-power helper of the determinantal path")

    monkeypatch.setattr(gtkit.patterns, "_q_diff_product", forbidden)
    monkeypatch.setattr(gtkit.patterns, "_q_fraction", forbidden)
    monkeypatch.setattr(gtkit.patterns, "_q_sum", forbidden)
    q = F(2, 3)
    assert q_dim_oracle((2, 1, -1), q) == F(4009, 486)
    assert q_rel_dim_oracle((1, 0), (2, 1, -1), q) == F(2, 3)
    assert profile_at_q_powers(skew_profile((1,), (2, 1, -1)), (0, 1), q) == F(95, 18)
    assert skew_schur_combinatorial((2, 1, -1), (1,), (1, q)) == F(95, 18)


def test_all_signatures_counts():
    sigs = list(all_signatures(3, -1, 1))
    assert len(sigs) == 10  # multisets of size 3 from 3 values
    assert sigs == sorted(sigs)
    assert all(check_signature(s) == s for s in sigs)
    assert list(all_signatures(0, -1, 1)) == [()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(-3, 3), st.integers(-4, 4))
def test_all_signatures_are_the_nonincreasing_tuples_in_order(length, lo, hi):
    want = [t for t in itertools.product(range(lo, hi + 1), repeat=length) if list(t) == sorted(t, reverse=True)]
    assert list(all_signatures(length, lo, hi)) == sorted(want)


def test_negative_lengths_and_levels_and_the_empty_top_row_are_refused():
    with pytest.raises(ValueError, match="at least 0"):
        all_signatures(-1, 0, 2)  # at the call, before any tuple is asked for
    with pytest.raises(ValueError, match="level"):
        next(support_box((2, 1, 0), -1))
    with pytest.raises(ValueError, match="level"):
        next(support_box((), 2))  # no row of length 2 lies under a row of length 0
    with pytest.raises(ValueError, match="level"):
        next(support_box((1, 0), 3))
    assert list(support_box((), 0)) == [()]
    assert list(support_box((2, 1, 0), 0)) == [()]
    assert list(support_box((1, 0), 2)) == [(0, 0), (1, 0), (1, 1)]
