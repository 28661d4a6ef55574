"""Boundary q-coefficients, the falling q-basis, and the Toeplitz solver."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import poly_eval
from strategies import boundary_seqs, wide_qs

from gtkit.linalg import poly_mul
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


@pytest.mark.parametrize("head, tail", [((2.7,), 3.9), ((2.7,), 3), ((2,), 3.9), ((F(1),), 2), (("1",), 2)])
def test_boundary_seq_refuses_values_that_are_not_integers(head, tail):
    # they were truncated: BoundarySeq((2.7,), 3.9) read as head (2,), tail 3
    with pytest.raises(ValueError, match="must be (integers|an integer), got"):
        BoundarySeq(head, tail)


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
        phi = basis_from_coeffs(coeffs, q)
        for x in range(1, 7):
            for i in range(1, 7):
                assert qtoeplitz_solve(phi, q, x, i) == d[x, i], (x, i)


def test_solver_edges():
    assert qtoeplitz_solve(basis_from_coeffs((1, 1), Q), Q, 1, 3) == 0  # below the diagonal
    one = basis_from_coeffs((1,), Q)
    with pytest.raises(ValueError):
        qtoeplitz_solve(one, Q, 0, 1)
    with pytest.raises(ValueError):
        qtoeplitz_solve(one, Q, 1, 0)


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


# The Fraction-polynomial route the integer residue core replaced, kept as a
# reference: the numerator is built as a polynomial in z and evaluated at each
# pole, normalising at every step.


def _poly_residue_sum(num_poly, den_exponents, max_exponent, q):
    total = F(0)
    for s, e in enumerate(den_exponents):
        if e > max_exponent:
            continue
        z0 = q**-e
        denom = F(1)
        for t, e2 in enumerate(den_exponents):
            if t != s:
                denom *= 1 - q ** (e2 - e)
        total += poly_eval(num_poly, z0) * z0 / denom
    return total


def _qpoch_poly(exponents, q):
    out = (F(1),)
    for s in exponents:
        out = poly_mul(out, (F(1), -(q**s)))
    return out


def _poly_reduced(s0, n, q):
    ts = n.tail_start
    return _qpoch_poly(range(s0, ts), q), n.head_pole_exponents() + list(range(ts, s0))


def ref_qA_infinity(x, K, i, n, q):
    num, den = _poly_reduced(x + K + 1, n, q)
    num = poly_mul(num, _qpoch_poly(range(K - i), q))
    return q ** (x + K) * _poly_residue_sum(num, den, x + K, q)


def ref_B_entry(x, i, n, q):
    num, den = _poly_reduced(x, n, q)
    num = poly_mul(num, _qpoch_poly(range(i - 1), q))
    return q ** ((x - i + 1) * (x + i - 2) // 2) * _poly_residue_sum(num, den, x - 1, q)


def ref_coeff_extract(phi, l, q):
    return q ** (l * (l + 1) // 2) * _poly_residue_sum(tuple(map(F, phi)), list(range(l + 1)), l, q)


def ref_qtoeplitz_solve(coeffs, q, x, i):
    if x < i:
        return F(0)
    phi = basis_from_coeffs(coeffs, q)
    return q ** ((x - i + 1) * (x + i - 2) // 2) * _poly_residue_sum(phi, list(range(i - 1, x)), x - 1, q)


@settings(max_examples=60, deadline=None)
@given(boundary_seqs(), wide_qs(), st.integers(-4, 6), st.integers(1, 4), st.data())
def test_qA_infinity_matches_the_polynomial_route(n, q, x, K, data):
    i = data.draw(st.integers(1, K))
    assert qA_infinity(x, K, i, n, q) == ref_qA_infinity(x, K, i, n, q)


@settings(max_examples=60, deadline=None)
@given(boundary_seqs(), wide_qs(), st.integers(-2, 7), st.integers(1, 6))
def test_B_entry_matches_the_polynomial_route(n, q, x, i):
    assert B_entry(x, i, n, q) == ref_B_entry(x, i, n, q)


wide_coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(wide_coeff_lists, wide_qs(), st.integers(0, 7))
def test_coeff_extract_matches_the_polynomial_route(phi, q, l):
    assert coeff_extract(phi, l, q) == ref_coeff_extract(phi, l, q)


@settings(max_examples=60, deadline=None)
@given(wide_coeff_lists, wide_qs(), st.integers(1, 7), st.integers(1, 7))
def test_qtoeplitz_solve_matches_the_polynomial_route(coeffs, q, x, i):
    assert qtoeplitz_solve(basis_from_coeffs(coeffs, q), q, x, i) == ref_qtoeplitz_solve(coeffs, q, x, i)
