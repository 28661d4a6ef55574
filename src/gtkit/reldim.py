"""Determinantal formulas for relative trapezoid counts and link rows.

The ratio (number of trapezoids with bottom kappa, top nu) / (number of
triangular patterns with top nu) is computed as a K x K determinant of
coefficients A_i(x). Each coefficient is a contour integral around the
particle positions nu_j - j, evaluated here as an exact finite residue sum.
Three independent routes are provided and cross-checked: the residue sum
with symbolically cancelled polynomial part, an inverse-Vandermonde route,
and a biorthogonal-expansion route realized via exact polynomial division.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .linalg import (
    Rat,
    clear_denominators,
    det,
    pochhammer,
    prefix_cofactors,
    poly_div_exact,
    poly_mul,
    poly_rising,
    vandermonde_inverse,
)
from .patterns import Signature, check_signature, dim_product, support_box

__all__ = [
    "PoleError",
    "DetContext",
    "A_coeff",
    "A_matrix",
    "coefficient_det",
    "rel_dim_ratio",
    "psi_coeff",
    "rel_dim_ratio_first",
    "bo_coefficient",
    "bo_transform",
    "LinkRow",
    "link_row",
]


class PoleError(ArithmeticError):
    """Evaluation at a pole of a rational expression."""


@dataclass(frozen=True)
class DetContext:
    """Fixed data for one trapezoid family: bottom length K, top row nu."""

    K: int
    nu: Signature

    def __post_init__(self):
        object.__setattr__(self, "nu", check_signature(self.nu))
        if not 1 <= self.K < len(self.nu):
            raise ValueError("need 1 <= K < N")
        # every coefficient-cache lookup hashes the context, so hash its fields
        # once; nu enters with its parts doubled, since hash(-1) == hash(-2)
        # in CPython and no doubled part is -1
        doubled = tuple(2 * v for v in self.nu)
        image = tuple(doubled if f.name == "nu" else getattr(self, f.name) for f in fields(self))
        object.__setattr__(self, "_hash", hash(image))

    def __hash__(self) -> int:
        return self._hash

    @property
    def N(self) -> int:
        return len(self.nu)

    def nodes(self) -> tuple[int, ...]:
        """Particle positions nu_j - j, strictly decreasing."""
        return tuple(v - j for j, v in enumerate(self.nu, start=1))

    @cached_property
    def barycentric(self) -> tuple[int, ...]:
        """Node products prod_{r != j} (a_j - a_r), computed once per context."""
        a = self.nodes()
        return tuple(math.prod(aj - ar for r, ar in enumerate(a) if r != j) for j, aj in enumerate(a))


def _poly_part(ctx: DetContext, i: int, y: int) -> int:
    """(y+1)_N / (y+i)_{N-K+1} with the common index ranges cancelled
    symbolically: prod_{r<i} (y+r) * prod_{r>N-K+i} (y+r). Never divides,
    so y colliding with -i..-(N-K+i) is harmless."""
    n, k = ctx.N, ctx.K
    return math.prod(range(y + 1, y + i)) * math.prod(range(y + n - k + i + 1, y + n + 1))


@lru_cache(maxsize=1 << 18)
def A_coeff(ctx: DetContext, i: int, x: int) -> Rat:
    """Residue sum for the i-th coefficient at shifted position x.

    Simple poles sit at the particle positions a_j = nu_j - j; the contour
    picks up exactly those with a_j >= x.

    Cached: verification sweeps request the same (ctx, i, x) for every
    bottom row sharing a shifted coordinate.
    """
    if not 1 <= i <= ctx.K:
        raise ValueError("coefficient index out of range")
    n, k = ctx.N, ctx.K
    total = Fraction(0)
    for aj, weight in zip(ctx.nodes(), ctx.barycentric):
        if aj < x:
            break  # nodes are decreasing
        rising = math.prod(range(aj - x + 1, aj - x + n - k))  # (aj - x + 1)_{N-K-1}
        total += Fraction(rising * _poly_part(ctx, i, aj), weight)
    return (n - k) * total


def A_matrix(ctx: DetContext, kappa: Sequence[int]) -> list[list[Rat]]:
    """The rows of the K x K matrix [A_i(kappa_j - j)]; its det is the
    per-kappa oracle for rel_dim_ratio."""
    kappa = check_signature(kappa)
    if len(kappa) != ctx.K:
        raise ValueError("bottom row must have length K")
    return [[A_coeff(ctx, i, kappa[j - 1] - j) for j in range(1, ctx.K + 1)] for i in range(1, ctx.K + 1)]


# For each prefix, support_box walks the last part through every position of
# the row, so the last columns are looked up in a cycle as long as the row
# width nu_1 - nu_N + 1; an LRU cache smaller than that cycle would never
# hit. 256 entries cover rows up to 256 positions wide; wider rows stay exact
# and re-clear their columns. The prefix columns are positions of the same
# row, so they come from this cache too.
@lru_cache(maxsize=256)
def _cleared_column(coeff: Callable, ctx, x: int) -> tuple[tuple[int, ...], int]:
    """The column [coeff(ctx, i, x)]_{i=1..K} as integers over its least
    common denominator."""
    ints, lcd = clear_denominators([coeff(ctx, i, x) for i in range(1, ctx.K + 1)])
    return tuple(ints), lcd


@lru_cache(maxsize=64)
def _prefix_cofactors(coeff: Callable, ctx, xs: tuple) -> tuple[tuple[int, ...], int]:
    """Last-column cofactors of [coeff(ctx, i, x)] over the prefix columns xs,
    as integers over one common denominator: the minors are taken of the
    integer columns _cleared_column holds, and the denominator is the
    product of their least common denominators.

    Small on purpose: support_box yields kappa in lexicographic order, so
    consecutive bottom rows share their prefix and only the latest few
    prefixes are ever looked up again."""
    columns = [_cleared_column(coeff, ctx, x) for x in xs]
    return prefix_cofactors([ints for ints, _ in columns]), math.prod(lcd for _, lcd in columns)


def coefficient_det(coeff: Callable, ctx, kappa: Sequence[int]) -> Rat:
    """det[coeff(ctx, i, kappa_j - j)]_{i,j=1..K}, expanded along the last
    column: the (K-1)-minors depend only on kappa_1..kappa_{K-1} and are
    shared between bottom rows, so each kappa costs K integer products."""
    kappa = check_signature(kappa)
    k = ctx.K
    if len(kappa) != k:
        raise ValueError("bottom row must have length K")
    cofactors, den = _prefix_cofactors(coeff, ctx, tuple(map(operator.sub, kappa[:-1], range(1, k))))
    last, lcd = _cleared_column(coeff, ctx, kappa[-1] - k)
    return Fraction(sum(map(operator.mul, cofactors, last)), den * lcd)


def rel_dim_ratio(ctx: DetContext, kappa: Sequence[int]) -> Rat:
    """(trapezoid count) / (triangular count) as det[A_i(kappa_j - j)]."""
    return coefficient_det(A_coeff, ctx, kappa)


# ---------------------------------------------------------------------------
# first determinantal route: inverse Vandermonde at the particle positions

@lru_cache(maxsize=64)
def _nodes_inverse(nu: Signature) -> tuple[tuple[Rat, ...], ...]:
    return vandermonde_inverse(tuple(v - j for j, v in enumerate(nu, start=1)))


def psi_coeff(ctx: DetContext, i: int, x: int) -> Rat:
    """sum_j 1[a_j >= x] (a_j - x + 1)_{N-K-1} / (N-K-1)! * [V^{-1}]_{ij}
    over the particle positions; defined for all 1 <= i <= N."""
    n, k = ctx.N, ctx.K
    if not 1 <= i <= n:
        raise ValueError("row index out of range")
    inv = _nodes_inverse(ctx.nu)
    fact = math.factorial(n - k - 1)
    total = Fraction(0)
    for j, aj in enumerate(ctx.nodes()):
        if aj < x:
            break
        total += pochhammer(aj - x + 1, n - k - 1) * inv[i - 1][j] / fact
    return total


def rel_dim_ratio_first(ctx: DetContext, kappa: Sequence[int]) -> Rat:
    """Same ratio via (N-1)! ... (N-K)! det[psi_i(kappa_j - j)]."""
    kappa = check_signature(kappa)
    if len(kappa) != ctx.K:
        raise ValueError("bottom row must have length K")
    n, k = ctx.N, ctx.K
    factor = 1
    for m in range(n - k, n):
        factor *= math.factorial(m)
    matrix = [
        [psi_coeff(ctx, i, kappa[j - 1] - j) for j in range(1, k + 1)] for i in range(1, k + 1)
    ]
    return factor * det(matrix)


# ---------------------------------------------------------------------------
# biorthogonal route


# A default bo-equivalence sweep builds 130 distinct numerators (one per
# (N, K, i, x)); 256 entries hold them all, with room for --max-n 6.
@lru_cache(maxsize=256)
def _bo_numerator(n: int, k: int, i: int, x: int) -> tuple[int, ...]:
    """Integer coefficients of (z+1-x)_{N-K-1} (z+1)_N / (z+i)_{N-K+1}, the
    quotient taken by exact polynomial long division."""
    numerator = poly_mul(
        poly_rising(Fraction(1 - x), n - k - 1),
        poly_div_exact(poly_rising(1, n), poly_rising(i, n - k + 1)),
    )
    if any(c.denominator != 1 for c in numerator):
        raise ArithmeticError(f"numerator of bo_coefficient at N={n} K={k} i={i} x={x} is not integral")
    return tuple(c.numerator for c in numerator)


def bo_coefficient(ctx: DetContext, i: int, x: int) -> Rat:
    """Expansion coefficient of the generating function of nu in the shifted
    rational basis attached to (i, x).

    Same pole set as A_coeff, but the polynomial part is produced by exact
    polynomial long division instead of index-range cancellation, so the two
    routes are computationally independent. The numerator depends only on
    (N, K, i, x) and is built once per key; it is evaluated at each node by
    integer Horner.
    """
    if not 1 <= i <= ctx.K:
        raise ValueError("coefficient index out of range")
    n, k = ctx.N, ctx.K
    numerator = _bo_numerator(n, k, i, x)
    nodes = ctx.nodes()
    total = Fraction(0)
    for j, aj in enumerate(nodes):
        if aj < x:
            break
        denom = 1
        for r, ar in enumerate(nodes):
            if r != j:
                denom *= aj - ar
        value = 0
        for c in reversed(numerator):
            value = value * aj + c
        total += Fraction(value, denom)
    return (n - k) * total


def bo_transform(N: int, K: int, i: int, p: int) -> Rat:
    """Residue transform of the (i, x)-basis function with shift index p;
    equals 1 when p = i and 0 otherwise (biorthogonality)."""
    if not 1 <= K < N:
        raise ValueError("need 1 <= K < N")
    m = N - K
    total = Fraction(0)
    for s in range(0, min(m, p - i) + 1):
        total += (
            Fraction((-1) ** s)
            * pochhammer(p - i - s + 1, m - 1)
            / (math.factorial(s) * math.factorial(m - s))
        )
    return m * total


# ---------------------------------------------------------------------------
# link rows


class LinkRow:
    """One row of a link: nonnegative weights over bottom rows, summing to 1.

    `total` is the exact sum of the weights, taken once as an integer over
    the least common multiple of their denominators. The weights are kept in
    one dict of the row's own, by increasing kappa; a row whose keys arrive
    in that order, as `support_box` yields them, is kept as validated."""

    def __init__(self, top: Signature, K: int, weights: dict):
        self.top = check_signature(top)
        self.K = K
        clean = {}
        mass, lcm = 0, 1  # running sum of the weights is mass / lcm
        last, in_order = (), True  # () sorts before every signature of length K >= 1
        for kappa, w in weights.items():
            kappa = check_signature(kappa)
            if len(kappa) != K:
                raise ValueError("support entries must have length K")
            if not isinstance(w, Fraction):
                w = Fraction(w)
            num, den = w.numerator, w.denominator
            if num < 0:
                raise ValueError(f"negative link weight at {kappa}: {w}")
            if num:
                clean[kappa] = w
                in_order = in_order and last < kappa
                last = kappa
                if lcm % den:
                    grown = math.lcm(lcm, den)
                    mass *= grown // lcm
                    lcm = grown
                mass += num * (lcm // den)
        self.total = Fraction(mass, lcm)
        if self.total != 1:
            raise ValueError(f"link weights must sum to 1 exactly, got {self.total}")
        self.weights: dict = clean if in_order else dict(sorted(clean.items()))

    def __getitem__(self, kappa) -> Rat:
        return self.weights.get(check_signature(kappa), Fraction(0))

    def items(self):
        return self.weights.items()

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"LinkRow(top={self.top}, K={self.K}, {len(self.weights)} entries)"


def link_row(nu: Sequence[int], K: int) -> LinkRow:
    """Markov-kernel row nu -> {kappa}: (triangular count of kappa) times the
    relative-dimension ratio, over the support box."""
    nu = check_signature(nu)
    ctx = DetContext(K, nu)
    weights = {}
    for kappa in support_box(nu, K):
        ratio = rel_dim_ratio(ctx, kappa)
        if ratio:
            weights[kappa] = ratio * dim_product(kappa)
    return LinkRow(nu, K, weights)
