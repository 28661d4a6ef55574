"""Boundary q-coefficients, the falling q-basis, and the Toeplitz solver."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit.linalg import poly_eval
from gtkit.qtoeplitz import (
    B_entry,
    B_entry_via_qA,
    BoundarySeq,
    b_generating_check,
    basis_from_coeffs,
    coeff_extract,
    q_ratio_infinity,
    qA_infinity,
    qtoeplitz_solve,
)

Q = F(1, 2)
ONES = BoundarySeq((), 1)
STAIR = BoundarySeq((0,), 2)  # 0, 2, 2, 2, ...


def test_boundary_seq_basics():
    n = BoundarySeq((1, 2), 3)
    assert [n.value(r) for r in (1, 2, 3, 9)] == [1, 2, 3, 3]
    assert n.head_pole_exponents() == [1, 3]  # r + n_{r+1}
    assert n.tail_start == 5
    assert n.format() == "1,2;3"
    with pytest.raises(ValueError):
        BoundarySeq((2, 1), 3)
    with pytest.raises(ValueError):
        BoundarySeq((1,), 0)
    with pytest.raises(ValueError):
        n.value(0)


def test_ones_sequence_single_nonzero_entry():
    # first column for n = (1,1,...): only B(2,1) survives and equals 1
    assert B_entry(1, 1, ONES, Q) == 0
    assert B_entry(2, 1, ONES, Q) == 1
    assert all(B_entry(x, 1, ONES, Q) == 0 for x in (3, 4, 5))


def test_generating_identity_witnessed():
    for n in (BoundarySeq((), 0), ONES, STAIR):
        out = b_generating_check(n, Q)
        assert out.ok, (n, out.first_mismatch, out.nonzero_beyond)
        assert out.first_mismatch is None
        assert out.nonzero_beyond == ()
    with pytest.raises(ValueError):
        b_generating_check(BoundarySeq((-1,), 0), Q)


def test_generating_rhs_structure():
    # for the staircase 0,2,2,...: head exponent {0}, tail starts at 3, so
    # the right side is (1 - z q)(1 - z q^2)
    out = b_generating_check(STAIR, Q)
    want = (F(1), -(Q + Q**2), Q**3)
    assert out.rhs == want
    assert out.lhs == want


coeff_lists = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=5
)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, st.sampled_from([F(1, 2), F(2, 3)]))
def test_basis_roundtrip(coeffs, q):
    phi = basis_from_coeffs(coeffs, q)
    for l, c in enumerate(coeffs):
        assert coeff_extract(phi, l, q) == c
    assert coeff_extract(phi, len(coeffs), q) == 0
    assert coeff_extract(phi, len(coeffs) + 2, q) == 0


def test_basis_polynomial_values():
    # c = (0, 1): phi(z) = q^0 - z
    phi = basis_from_coeffs((0, 1), Q)
    assert poly_eval(phi, F(3)) == 1 - 3
    with pytest.raises(ValueError):
        coeff_extract(phi, -1, Q)


def _recurrence_table(coeffs, q, size):
    # two-term recurrence oracle: column 1 is given, column i+1 built from i
    d = {}
    for x in range(1, size + 1):
        d[x, 1] = F(coeffs[x - 1]) if x - 1 < len(coeffs) else F(0)
    for i in range(1, size):
        for x in range(1, size + 1):
            left = d.get((x - 1, i), F(0))
            d[x, i + 1] = left + (q ** (1 - i) - q ** (1 - x)) * d[x, i]
    return d


def test_solver_matches_recurrence():
    coeffs = (F(1), F(-2), F(1, 3), F(0), F(2))
    for q in (F(1, 2), F(2, 3)):
        d = _recurrence_table(coeffs, q, 6)
        for x in range(1, 7):
            for i in range(1, 7):
                assert qtoeplitz_solve(coeffs, q, x, i) == d[x, i], (x, i)


def test_solver_edges():
    assert qtoeplitz_solve((1, 1), Q, 1, 3) == 0  # below the diagonal
    with pytest.raises(ValueError):
        qtoeplitz_solve((1,), Q, 0, 1)
    with pytest.raises(ValueError):
        qtoeplitz_solve((1,), Q, 1, 0)


def test_b_recurrence():
    for n in (ONES, STAIR):
        for x in range(2, 6):
            for i in range(1, 5):
                want = B_entry(x - 1, i, n, Q) + (Q ** (1 - i) - Q ** (1 - x)) * B_entry(x, i, n, Q)
                assert B_entry(x, i + 1, n, Q) == want, (n, x, i)


def test_three_term_for_level_coefficients():
    n = STAIR
    for K in (2, 3):
        for i in range(2, K + 1):
            for x in range(-2, 4):
                lhs = qA_infinity(x, K, i - 1, n, Q) * Q**i
                rhs = qA_infinity(x - 1, K, i, n, Q) * Q ** (1 - x) + qA_infinity(
                    x, K, i, n, Q
                ) * (Q**i - Q**-x)
                assert lhs == rhs, (K, i, x)


def test_b_entry_level_independence():
    for n in (ONES, STAIR):
        for x in range(1, 5):
            for i in (1, 2):
                want = B_entry(x, i, n, Q)
                for K in range(i, i + 3):
                    assert B_entry_via_qA(x, i, n, Q, K) == want, (n, x, i, K)
    with pytest.raises(ValueError):
        B_entry_via_qA(2, 3, ONES, Q, 2)


def test_ratio_infinity_is_first_coefficient_at_k1():
    for kap in (0, 1, 2):
        assert q_ratio_infinity((kap,), 1, STAIR, Q) == qA_infinity(kap - 1, 1, 1, STAIR, Q)
    with pytest.raises(ValueError):
        q_ratio_infinity((1, 0), 1, STAIR, Q)


def test_q_validation():
    with pytest.raises(ValueError):
        B_entry(2, 1, ONES, F(3, 2))
    with pytest.raises(ValueError):
        qA_infinity(0, 2, 3, ONES, Q)
