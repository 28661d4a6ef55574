"""Exact linear algebra: determinants, Vandermonde structure, polynomials."""

import math
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit.linalg import (
    clear_denominators,
    complete_sym,
    det,
    elementary_sym,
    pochhammer,
    poly_add,
    poly_coeff,
    poly_deg,
    poly_div_exact,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_rising,
    poly_scale,
    prefix_cofactors,
    vandermonde_det,
    vandermonde_inverse,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def det_by_expansion(rows):
    """Independent oracle: Leibniz sum over permutations."""
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = F(sign)
        for i in range(n):
            term *= F(rows[i][perm[i]])
        total += term
    return total


def square(entries, sizes=st.integers(0, 4)):
    return sizes.flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


small_ints = st.integers(-9, 9)
# all-int rows skip the clearing of denominators; bool is an int subclass
# that must still take the general path
entry_kinds = st.sampled_from(
    [small_ints, rationals, st.one_of(small_ints, rationals), st.one_of(st.booleans(), small_ints)]
)


@settings(max_examples=160, deadline=None)
@given(entry_kinds.flatmap(square))
def test_det_matches_leibniz(rows):
    got = det(rows)
    assert type(got) is F
    assert got == det_by_expansion(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: square(rationals, st.just(n))))
def test_prefix_cofactors_expand_the_last_column(columns):
    *prefix, last = columns
    # the caller clears each column and divides by the product of their denominators
    cleared = [clear_denominators(col) for col in prefix]
    cofactors = prefix_cofactors([ints for ints, _ in cleared])
    assert all(type(c) is int for c in cofactors)
    rows = [list(r) for r in zip(*columns)]
    den = math.prod(lcd for _, lcd in cleared)
    assert F(sum(c * x for c, x in zip(cofactors, last)), den) == det_by_expansion(rows)


def test_prefix_cofactors_require_columns_of_length_k():
    with pytest.raises(ValueError):
        prefix_cofactors([[1, 2], [3, 4]])


def test_det_empty_and_singular():
    assert det([]) == 1
    assert det([[1, 2], [2, 4]]) == 0


def test_ratmatrix_det_requires_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det([[1], [2, 3]])
    with pytest.raises(ValueError):
        det([[F(1, 2), 1], [2]])
    with pytest.raises(ValueError):
        det([[1, 2]])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        )
    )
)
def test_det_multiplicative(pair):
    # Cauchy-Binet in its square special case: det(AB) = det(A) det(B)
    a, b = pair
    n = len(a)
    prod = [[sum(F(a[i][k]) * F(b[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]
    assert det(prod) == det(a) * det(b)


def test_pochhammer_values():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(F(1, 2), 2) == F(3, 4)
    assert pochhammer(7, 0) == 1
    assert pochhammer(-2, 4) == 0  # crosses zero


def test_symmetric_polynomials():
    vals = [F(1), F(2), F(3)]
    assert elementary_sym(0, vals) == 1
    assert elementary_sym(2, vals) == 1 * 2 + 1 * 3 + 2 * 3
    assert elementary_sym(4, vals) == 0
    assert complete_sym(2, vals) == 1 + 4 + 9 + 2 + 3 + 6
    assert complete_sym(0, []) == 1
    assert complete_sym(1, []) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
def test_vandermonde_inverse_roundtrip(nodes):
    nodes = sorted(nodes, reverse=True)
    n = len(nodes)
    v = [[a ** (n - 1 - j) for j in range(n)] for a in nodes]  # [a_i^{N-j}]
    inv = vandermonde_inverse(nodes)
    for i in range(n):
        for j in range(n):
            entry = sum(v[i][k] * inv[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def test_vandermonde_det_product_formula():
    nodes = [5, 2, -1]
    assert vandermonde_det(nodes) == (5 - 2) * (5 + 1) * (2 + 1)
    assert det([[a ** (2 - j) for j in range(3)] for a in nodes]) == vandermonde_det(nodes)


def test_vandermonde_inverse_needs_distinct():
    with pytest.raises(ValueError):
        vandermonde_inverse([1, 1, 0])


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5))
def test_poly_ring_identities(p, q):
    assert poly_eval(poly_add(p, q), F(2)) == poly_eval(p, F(2)) + poly_eval(q, F(2))
    assert poly_eval(poly_mul(p, q), F(1, 3)) == poly_eval(p, F(1, 3)) * poly_eval(q, F(1, 3))
    if poly_deg(q) >= 0:
        quot, rem = poly_divmod(p, q)
        assert poly_add(poly_mul(quot, q), rem) == tuple(
            F(c) for c in poly_add(p, ())
        )
        assert poly_deg(rem) < poly_deg(q) or rem == ()


def test_poly_divmod_exact_and_errors():
    p = poly_mul((1, 2), (3, 0, 1))
    assert poly_div_exact(p, (1, 2)) == (3, 0, 1)
    with pytest.raises(ZeroDivisionError):
        poly_divmod((1,), ())
    with pytest.raises(ValueError):
        poly_div_exact((1, 1), (2, 1))  # remainder -1


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, max_size=6))
def test_poly_from_roots_matches_the_product_of_linear_factors(roots):
    want = (F(1),)
    for r in roots:
        want = poly_mul(want, (-r, 1))
    assert poly_from_roots(roots) == want


def test_poly_helpers():
    assert poly_from_roots([1, -2]) == (-2, 1, 1)  # (z-1)(z+2) = z^2 + z - 2
    assert poly_rising(3, 2) == poly_mul((3, 1), (4, 1))
    assert poly_scale((1, 2), F(1, 2)) == (F(1, 2), F(1))
    assert poly_coeff((1, 2), 5) == 0
    assert poly_eval((), F(7)) == 0
