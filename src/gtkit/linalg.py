"""Exact rational linear algebra: determinants, Vandermonde systems,
symmetric-function primitives, and dense univariate polynomials.

Everything here computes over `fractions.Fraction` (aliased `Rat`); no
floating point and no rounding ever. Polynomials are dense coefficient
tuples, low degree first, with trailing zeros stripped (the zero
polynomial is the empty tuple).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]

__all__ = [
    "Rat",
    "rat",
    "RatMatrix",
    "Nodes",
    "det",
    "clear_denominators",
    "prefix_cofactors",
    "pochhammer",
    "elementary_sym",
    "complete_sym",
    "vandermonde_matrix",
    "vandermonde_det",
    "vandermonde_inverse",
    "vandermonde_sum",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "poly_eval",
    "poly_deg",
    "poly_coeff",
    "poly_deriv",
    "poly_divmod",
    "poly_div_exact",
    "poly_from_roots",
    "poly_rising",
]


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Coerce to an exact rational. Accepts ints, Fractions, and 'p/q' strings."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


# ---------------------------------------------------------------------------
# determinants and matrices


def det(rows: Sequence[Sequence[RatLike]]) -> Rat:
    """Determinant of a square matrix by fraction-free (Bareiss) elimination.

    Each row is first cleared of denominators, so the elimination runs on
    integers; its intermediate entries are minors of that integer matrix,
    which keeps their growth polynomial, and every division is exact.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    m = []
    den = 1
    for row in rows:
        ints, lcd = clear_denominators([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row])
        m.append(ints)
        den *= lcd
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


def prefix_cofactors(columns: Sequence[Sequence[Rat]]) -> tuple[tuple[int, ...], int]:
    """Cofactors along the last column of a K x K matrix whose first K-1
    columns are given (each of length K), as integers over one common
    denominator: returns (cofactors, den) with

        det[columns | c] = sum_i cofactors[i] * c[i] / den

    for every last column c. Each column is cleared of denominators first,
    so the (K-1)-minors are determinants of integer matrices.
    """
    k = len(columns) + 1
    scaled = []
    den = 1
    for col in columns:
        if len(col) != k:
            raise ValueError("prefix columns must have length K")
        ints, lcd = clear_denominators(col)
        scaled.append(ints)
        den *= lcd
    cofactors = []
    for i in range(k):
        minor = det([[c[r] for c in scaled] for r in range(k) if r != i]).numerator
        cofactors.append(minor if (i + k - 1) % 2 == 0 else -minor)
    return tuple(cofactors), den


class RatMatrix:
    """Rectangular matrix of exact rationals with bounds-checked access."""

    def __init__(self, rows: Sequence[Sequence[RatLike]]):
        entries = [tuple(Fraction(x) for x in row) for row in rows]
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("matrix rows must all have the same length")
        self._rows: tuple[tuple[Rat, ...], ...] = tuple(entries)

    @classmethod
    def from_function(cls, nrows: int, ncols: int, fn) -> "RatMatrix":
        return cls([[fn(i, j) for j in range(ncols)] for i in range(nrows)])

    @property
    def shape(self) -> tuple[int, int]:
        if not self._rows:
            return (0, 0)
        return (len(self._rows), len(self._rows[0]))

    @property
    def rows(self) -> tuple[tuple[Rat, ...], ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> Rat:
        i, j = key
        nr, nc = self.shape
        if not (0 <= i < nr and 0 <= j < nc):
            raise IndexError(f"index ({i}, {j}) outside {nr}x{nc} matrix")
        return self._rows[i][j]

    def transpose(self) -> "RatMatrix":
        nr, nc = self.shape
        return RatMatrix([[self._rows[i][j] for i in range(nr)] for j in range(nc)])

    def det(self) -> Rat:
        return det(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self._rows]})"


class Nodes(tuple):
    """Strictly decreasing tuple of exact rationals (interpolation nodes)."""

    def __new__(cls, values: Iterable[RatLike]):
        vals = tuple(Fraction(v) for v in values)
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                raise ValueError(f"nodes must be strictly decreasing, got {a} then {b}")
        return super().__new__(cls, vals)


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


def elementary_sym(m: int, values: Sequence[RatLike]) -> Rat:
    """Elementary symmetric polynomial e_m; e_0 = 1, zero outside 0..len(values)."""
    vals = [Fraction(v) for v in values]
    n = len(vals)
    if m < 0 or m > n:
        return Fraction(0)
    # one row of the Newton triangle per variable
    row = [Fraction(1)] + [Fraction(0)] * m
    for v in vals:
        for k in range(m, 0, -1):
            row[k] += v * row[k - 1]
    return row[m]


def complete_sym(m: int, values: Sequence[RatLike]) -> Rat:
    """Complete homogeneous symmetric polynomial h_m; h_0 = 1, zero for m < 0."""
    if m < 0:
        return Fraction(0)
    vals = [Fraction(v) for v in values]
    if m == 0:
        return Fraction(1)
    if not vals:
        return Fraction(0)
    # h over a growing variable prefix: h[j] = h_j(prefix)
    h = [Fraction(1)] + [Fraction(0)] * m
    for idx, v in enumerate(vals):
        if idx == 0:
            power = Fraction(1)
            for k in range(1, m + 1):
                power *= v
                h[k] = power
        else:
            for k in range(1, m + 1):
                h[k] += v * h[k - 1]
    return h[m]


# ---------------------------------------------------------------------------
# Vandermonde systems


def vandermonde_matrix(nodes: Sequence[RatLike]) -> RatMatrix:
    """Matrix [a_i^{N-j}] for i, j = 1..N (highest power in first column)."""
    a = [Fraction(v) for v in nodes]
    n = len(a)
    return RatMatrix([[a[i] ** (n - 1 - j) for j in range(n)] for i in range(n)])


def vandermonde_det(nodes: Sequence[RatLike]) -> Rat:
    """prod_{i<j} (a_i - a_j), the determinant of vandermonde_matrix."""
    a = [Fraction(v) for v in nodes]
    out = Fraction(1)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            out *= a[i] - a[j]
    return out


def vandermonde_inverse(nodes: Sequence[RatLike]) -> RatMatrix:
    """Exact inverse of [a_i^{N-j}] via signed elementary symmetric minors.

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
        cols.append([(-1) ** i * elementary_sym(i, others) / denom for i in range(n)])
    return RatMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def vandermonde_sum(nodes: Sequence[RatLike], f_coeffs: Sequence[RatLike], i: int) -> Rat:
    """sum_j [V^{-1}]_{ij} f(a_j) for a polynomial f of degree < N.

    Equals the coefficient of w^{N-i} in f (1-based i); raising on
    deg f >= N keeps silent extrapolation out.
    """
    a = [Fraction(v) for v in nodes]
    n = len(a)
    f = tuple(Fraction(c) for c in f_coeffs)
    if poly_deg(f) >= n:
        raise ValueError("polynomial degree must be < number of nodes")
    if not 1 <= i <= n:
        raise ValueError("row index out of range")
    inv = vandermonde_inverse(a)
    total = Fraction(0)
    for j in range(n):
        total += inv[i - 1, j] * poly_eval(f, a[j])
    return total


# ---------------------------------------------------------------------------
# dense polynomials (coefficient tuples, low degree first)

Poly = tuple


def _norm(coeffs: Sequence[Rat]) -> tuple[Rat, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(p: Sequence[RatLike]) -> int:
    """Degree, with the zero polynomial at -1."""
    p = _norm([Fraction(c) for c in p])
    return len(p) - 1


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


def poly_eval(p: Sequence[RatLike], x) -> Rat:
    out = Fraction(0)
    for c in reversed(list(p)):
        out = out * x + c
    return out


def poly_deriv(p: Sequence[RatLike]) -> tuple[Rat, ...]:
    return _norm([Fraction(c) * k for k, c in enumerate(p)][1:])


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
    out: tuple[Rat, ...] = (Fraction(1),)
    for r in roots:
        out = poly_mul(out, (-Fraction(r), Fraction(1)))
    return out


def poly_rising(y0: RatLike, m: int) -> tuple[Rat, ...]:
    """Polynomial (z + y0)(z + y0 + 1)...(z + y0 + m - 1) in z."""
    if m < 0:
        raise ValueError("rising factorial needs m >= 0")
    return poly_from_roots([-(Fraction(y0) + s) for s in range(m)])
