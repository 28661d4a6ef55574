"""Schur evaluations: the three routes must agree on their common domain."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit.linalg import complete_sym
from gtkit.schur import (
    RepeatedPointsError,
    h_at_q_powers,
    schur_bialternant,
    schur_combinatorial,
    skew_schur_combinatorial,
)

signatures = st.lists(st.integers(-2, 2), min_size=0, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
points = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=4)


def test_known_values():
    x, y = F(2), F(3)
    assert schur_bialternant((1, 0), (x, y)) == x + y
    assert schur_bialternant((1, 1), (x, y)) == x * y
    assert schur_bialternant((2, 0), (x, y)) == x * x + x * y + y * y
    # negative parts shift by a power of the product of the points
    assert schur_bialternant((0, -1), (x, y)) == 1 / x + 1 / y
    assert schur_bialternant((), ()) == 1


def test_point_validation():
    with pytest.raises(RepeatedPointsError):
        schur_bialternant((1, 0), (F(2), F(2)))
    with pytest.raises(ValueError):
        schur_bialternant((1, 0), (F(2), F(0)))
    with pytest.raises(ValueError):
        schur_bialternant((1, 0), (F(2),))


@settings(max_examples=60, deadline=None)
@given(signatures, st.data())
def test_bialternant_matches_combinatorial(nu, data):
    u = data.draw(
        st.lists(points, min_size=len(nu), max_size=len(nu), unique=True)
    )
    assert schur_bialternant(nu, u) == schur_combinatorial(nu, u)


def test_branching_over_one_row():
    # adding one evaluation point sums the one-step weights over middle rows
    nu, u, t = (2, 1, 0), (F(2), F(3)), F(5)
    total = sum(
        skew_schur_combinatorial(nu, (a, b), (t,)) * schur_combinatorial((a, b), u)
        for a in range(0, 3)
        for b in range(0, a + 1)
    )
    assert schur_combinatorial(nu, u + (t,)) == total


def test_h_at_q_powers_matches_complete_sym():
    for q in (F(1, 2), F(2, 3)):
        for exps in [(0,), (0, 1), (0, 1, 2), (2, 0, -1)]:
            pts = tuple(q**j for j in exps)
            for m in range(0, 6):
                assert h_at_q_powers(m, exps, q) == complete_sym(m, pts)
    assert h_at_q_powers(-1, (0, 1), F(1, 2)) == 0
    assert h_at_q_powers(0, (), F(1, 2)) == 1


def test_h_at_q_powers_validation():
    # validated on every call, not only on the first one for a key
    for _ in range(3):
        with pytest.raises(ValueError):
            h_at_q_powers(2, (0, 0), F(1, 2))
        with pytest.raises(ValueError):
            h_at_q_powers(2, (0, 1), F(1))
        with pytest.raises(ValueError):
            h_at_q_powers(2, [0, 1], 1)


def test_h_at_q_powers_takes_any_sequence_and_rational_q():
    for m in range(-1, 6):
        want = h_at_q_powers(m, (2, 0, -1), F(3))
        assert h_at_q_powers(m, [2, 0, -1], F(3)) == want
        assert h_at_q_powers(m, (2, 0, -1), 3) == want
        assert h_at_q_powers(m, [2, 0, -1], 3) == want
        assert h_at_q_powers(m, (2, 0, -1), F(1, 3)) == h_at_q_powers(m, [2, 0, -1], "1/3")
