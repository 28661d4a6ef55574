"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from gtkit.qtoeplitz import BoundarySeq


@st.composite
def wide_rows(draw, max_n=12, bound=15, max_k=4):
    """A top row, a level K and bottom rows in shuffled order, drawn in
    groups that share their first K-1 parts so the cofactor cache is hit."""
    n = draw(st.integers(2, max_n))
    parts = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    nu = tuple(sorted(parts, reverse=True))
    k = draw(st.integers(1, min(max_k, n - 1)))
    kappas = set()
    for _ in range(draw(st.integers(1, 4))):
        prefix = sorted(
            draw(st.lists(st.integers(nu[-1], nu[0]), min_size=k - 1, max_size=k - 1)),
            reverse=True,
        )
        cap = prefix[-1] if prefix else nu[0]
        for last in draw(st.lists(st.integers(nu[-1], cap), min_size=1, max_size=4)):
            kappas.add(tuple(prefix) + (last,))
    return nu, k, draw(st.permutations(sorted(kappas)))


@st.composite
def top_rows(draw, max_n=8, bound=6):
    """A signature of length 1..max_n with parts in [-bound, bound]. The spread
    nu_1 - nu_N is drawn first, so narrow rows, whose walks are short, come
    up as often as wide ones."""
    n = draw(st.integers(1, max_n))
    width = 0 if n == 1 else draw(st.integers(0, 2 * bound))
    low = draw(st.integers(-bound, bound - width))
    if n == 1:
        return (low,)
    inner = draw(st.lists(st.integers(low, low + width), min_size=n - 2, max_size=n - 2))
    return tuple(sorted([low + width, *inner, low], reverse=True))


def q_points(max_denominator=12):
    """A rational q = a/b with 0 < q < 1 and b <= max_denominator."""
    return st.integers(2, max_denominator).flatmap(
        lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
    )


@st.composite
def levels(draw, max_n=9, bound=6):
    """A top row with 2 <= N <= max_n and parts in [-bound, bound], and a
    level 1 <= K < N."""
    nu = draw(top_rows(max_n, bound).filter(lambda nu: len(nu) > 1))
    return nu, draw(st.integers(1, len(nu) - 1))


@st.composite
def wide_qs(draw, max_den=60):
    """q = a/b with 1 <= a < b <= max_den, the ends a = 1 and a = b - 1 drawn
    as often as the interior."""
    b = draw(st.integers(2, max_den))
    a = draw(st.one_of(st.just(1), st.just(b - 1), st.integers(1, b - 1)))
    return Fraction(a, b)


@st.composite
def boundary_seqs(draw, max_head=4, lo=-3, hi=5):
    """A BoundarySeq with a nondecreasing head of 0..max_head parts in
    [lo, hi] and a tail constant in [head[-1], hi], or in [lo, hi] when the
    head is empty."""
    head = sorted(draw(st.lists(st.integers(lo, hi), max_size=max_head)))
    tail = draw(st.integers(head[-1] if head else lo, hi))
    return BoundarySeq(tuple(head), tail)
