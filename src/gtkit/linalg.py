"""Exact rational linear algebra: determinants, Vandermonde systems and
dense univariate polynomials.

Everything here computes over `fractions.Fraction` (aliased `Rat`); no
floating point and no rounding ever. Polynomials are dense coefficient
tuples, low degree first, with trailing zeros stripped (the zero
polynomial is the empty tuple).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]

__all__ = [
    "Rat",
    "det",
    "det_calls",
    "clear_denominators",
    "prefix_cofactors",
    "pochhammer",
    "vandermonde_det",
    "vandermonde_inverse",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "poly_coeff",
    "poly_divmod",
    "poly_div_exact",
    "poly_from_roots",
    "poly_rising",
]


# ---------------------------------------------------------------------------
# determinants


# Calls of det by matrix size since the process started; the CLI reports
# what each command added under its summary line's `timing`. A defaultdict,
# not a Counter, since its increment runs in C.
det_calls: defaultdict = defaultdict(int)


def det(rows: Sequence[Sequence[RatLike]]) -> Rat:
    """Determinant of a square matrix by fraction-free (Bareiss) elimination.

    Each row is first cleared of denominators, so the elimination runs on
    integers; its intermediate entries are minors of that integer matrix,
    which keeps their growth polynomial, and every division is exact. A
    matrix whose entries are all `int` (not `bool`) is already cleared and
    skips that step. Sizes 0 to 2 use their closed forms; an all-`int`
    matrix of those sizes is answered before anything is copied or cleared.
    """
    n = len(rows)
    det_calls[n] += 1
    if n == 0:
        return Fraction(1)
    if n == 2 and len(rows[0]) == len(rows[1]) == 2:
        (a, b), (c, d) = rows
        if type(a) is type(b) is type(c) is type(d) is int:
            return Fraction(a * d - b * c)
    elif n == 1 and len(rows[0]) == 1 and type(rows[0][0]) is int:
        return Fraction(rows[0][0])
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    den = 1
    if all(type(x) is int for row in rows for x in row):
        m = [list(row) for row in rows]
    else:
        m = []
        for row in rows:
            ints, lcd = clear_denominators([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row])
            m.append(ints)
            den *= lcd
    if n == 1:
        return Fraction(m[0][0], den)
    if n == 2:
        return Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0], den)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], den)


def clear_denominators(values: Sequence[Rat]) -> tuple[list[int], int]:
    """Scale rationals to integers over their least common denominator:
    returns (integers, lcd) with values[i] = integers[i] / lcd."""
    lcd = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (lcd // x.denominator) for x in values], lcd


def prefix_cofactors(columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Cofactors along the last column of a K x K integer matrix whose first
    K-1 columns are given (each of length K): returns cofactors with

        det[columns | c] = sum_i cofactors[i] * c[i]

    for every last column c. A caller with rational columns clears each one
    (`clear_denominators`) and divides the sum by the product of their
    denominators.
    """
    k = len(columns) + 1
    if any(len(col) != k for col in columns):
        raise ValueError("prefix columns must have length K")
    cofactors = []
    for i in range(k):
        # the minor's transpose: each prefix column without its i-th entry
        minor = det([c[:i] + c[i + 1 :] for c in columns]).numerator
        cofactors.append(minor if (i + k - 1) % 2 == 0 else -minor)
    return tuple(cofactors)


# ---------------------------------------------------------------------------
# factorial-type products and symmetric functions


def pochhammer(y: RatLike, m: int) -> Rat:
    """Rising factorial y (y+1) ... (y+m-1); empty product for m = 0."""
    if m < 0:
        raise ValueError("rising factorial needs m >= 0")
    y = Fraction(y)
    out = Fraction(1)
    for s in range(m):
        out *= y + s
    return out


def _elementary_row(vals: Sequence[Rat], m: int) -> list[Rat]:
    """[e_0, ..., e_m] of vals, by one row of the Newton triangle per variable."""
    row = [Fraction(1)] + [Fraction(0)] * m
    for v in vals:
        for k in range(m, 0, -1):
            row[k] += v * row[k - 1]
    return row


# ---------------------------------------------------------------------------
# Vandermonde systems


def vandermonde_det(nodes: Sequence[RatLike]) -> Rat:
    """prod_{i<j} (a_i - a_j), the determinant of [a_i^{N-j}]."""
    a = [Fraction(v) for v in nodes]
    out = Fraction(1)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            out *= a[i] - a[j]
    return out


def vandermonde_inverse(nodes: Sequence[RatLike]) -> tuple[tuple[Rat, ...], ...]:
    """Exact inverse of [a_i^{N-j}] via signed elementary symmetric minors,
    as a tuple of rows.

    Row i, column j (1-based): (-1)^{i-1} e_{i-1}(nodes without a_j)
    divided by prod_{r != j} (a_j - a_r). Columns are intrinsic to node
    values, so any pairwise-distinct node list works.
    """
    a = [Fraction(v) for v in nodes]
    n = len(a)
    if len(set(a)) != n:
        raise ValueError("nodes must be pairwise distinct")
    cols = []
    for j in range(n):
        others = a[:j] + a[j + 1 :]
        denom = Fraction(1)
        for r in others:
            denom *= a[j] - r
        e = _elementary_row(others, n - 1)
        cols.append([(-1) ** i * e[i] / denom for i in range(n)])
    return tuple(zip(*cols))


# ---------------------------------------------------------------------------
# dense polynomials (coefficient tuples, low degree first)

Poly = tuple


def _norm(coeffs: Sequence[Rat]) -> tuple[Rat, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_coeff(p: Sequence[RatLike], k: int) -> Rat:
    if k < 0 or k >= len(p):
        return Fraction(0)
    return Fraction(p[k])


def poly_add(p: Sequence[RatLike], q: Sequence[RatLike]) -> tuple[Rat, ...]:
    n = max(len(p), len(q))
    return _norm([poly_coeff(p, k) + poly_coeff(q, k) for k in range(n)])


def poly_scale(p: Sequence[RatLike], c: RatLike) -> tuple[Rat, ...]:
    c = Fraction(c)
    return _norm([Fraction(x) * c for x in p])


def poly_mul(p: Sequence[RatLike], q: Sequence[RatLike]) -> tuple[Rat, ...]:
    p = _norm([Fraction(c) for c in p])
    q = _norm([Fraction(c) for c in q])
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _norm(out)


def poly_divmod(p: Sequence[RatLike], q: Sequence[RatLike]) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    """Quotient and remainder over the rationals."""
    p = list(_norm([Fraction(c) for c in p]))
    q = _norm([Fraction(c) for c in q])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q):
        factor = p[-1] / lead
        shift = len(p) - len(q)
        out[shift] = factor
        for k, c in enumerate(q):
            p[shift + k] -= factor * c
        while p and p[-1] == 0:
            p.pop()
    return _norm(out), _norm(p)


def poly_div_exact(p: Sequence[RatLike], q: Sequence[RatLike]) -> tuple[Rat, ...]:
    quo, rem = poly_divmod(p, q)
    if rem:
        raise ValueError("polynomial division left a remainder")
    return quo


def poly_from_roots(roots: Iterable[RatLike]) -> tuple[Rat, ...]:
    """Monic polynomial prod (z - r)."""
    out = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        # multiply by (z - r) in place, highest coefficient first
        out.append(out[-1])
        for k in range(len(out) - 2, 0, -1):
            out[k] = out[k - 1] - r * out[k]
        out[0] = -r * out[0]
    return tuple(out)


def poly_rising(y0: RatLike, m: int) -> tuple[Rat, ...]:
    """Polynomial (z + y0)(z + y0 + 1)...(z + y0 + m - 1) in z."""
    if m < 0:
        raise ValueError("rising factorial needs m >= 0")
    return poly_from_roots([-(Fraction(y0) + s) for s in range(m)])
