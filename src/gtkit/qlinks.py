"""q-weighted trapezoid counts by determinantal formulas (finite top row).

The measure weights a pattern by q^volume. The ratio of the q-weighted
trapezoid count to the q-weighted triangular count is again a K x K
determinant of residue sums qA_i(x), with an explicit sign/power prefactor.
A second, more general family evaluates skew Schur polynomials at an
arbitrary subset q^T of the geometric point set via inverse-Vandermonde
sums psi^T, and reduces to the first when T = {0, ..., N-K-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .linalg import Rat, RatLike, det, vandermonde_det, vandermonde_inverse
from .patterns import (
    Signature,
    _integer,
    _integers,
    _q_diff_product,
    _q_dim_by_last_part,
    _q_sum,
    check_q,
    check_signature,
)
from .reldim import A_coeff, DetContext, LinkRow, _coefficient_det_parts, _link_row
from .schur import h_at_q_powers, schur_bialternant

__all__ = [
    "QDetContext",
    "TSpec",
    "qA_coeff",
    "q_prefactor",
    "q_rel_dim_ratio",
    "psi_T",
    "general_q_ratio",
    "general_q_projection",
    "q_link_row",
    "q_to_1_check",
]


@dataclass(frozen=True)
class QDetContext(DetContext):
    """Trapezoid family with a q-weight: bottom length K, top row nu, 0<q<1."""

    q: Rat

    def __post_init__(self):
        object.__setattr__(self, "q", check_q(self.q))
        super().__post_init__()

    # without this, @dataclass gives the subclass a hash over its fields,
    # recomputed on every cache lookup; keep the one taken in __post_init__
    __hash__ = DetContext.__hash__

    @cached_property
    def barycentric(self) -> tuple[tuple[int, int, int], ...]:
        """Node products prod_{r != j} (q^{a_j} - q^{a_r}), computed once per
        context, each as the (c, ea, eb) triple of _q_diff_product."""
        a = self.nodes()
        return tuple(
            _q_diff_product(self.q, ((aj, ar) for r, ar in enumerate(a) if r != j)) for j, aj in enumerate(a)
        )

    @cached_property
    def barycentric_lcm(self) -> int:
        """Least common multiple of the integer parts c of the node products,
        the one denominator every qA_coeff residue sum is taken over."""
        return math.lcm(*(c for c, _, _ in self.barycentric))


@dataclass(frozen=True)
class TSpec:
    """Subset T of {0, ..., N-1} with |T| = N - K; S is the complement and
    S' = {N - s : s in S} the reflected exponents used for row indices."""

    N: int
    K: int
    T: tuple

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, "N"))
        object.__setattr__(self, "K", _integer(self.K, "K"))
        t = tuple(sorted(_integers(self.T, "T")))
        object.__setattr__(self, "T", t)
        if len(set(t)) != len(t) or any(not 0 <= v < self.N for v in t):
            raise ValueError("T must be a subset of {0, ..., N-1}")
        if len(t) != self.N - self.K:
            raise ValueError("|T| must equal N - K")
        # plain attributes, not fields, so eq, hash and repr see only N, K, T
        s = tuple(sorted(set(range(self.N)) - set(t)))
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "S_prime", tuple(sorted(self.N - v for v in s)))
        # every psi_T lookup hashes the spec; hash its fields once, as DetContext does
        object.__setattr__(self, "_hash", hash((self.N, self.K, t)))

    def __hash__(self) -> int:
        return self._hash


def _q_poly_part(ctx: QDetContext, i: int, node: int) -> tuple[int, int, int]:
    """prod_{r=1..N} (q^node - q^{-r}) / prod_{r=i..N-K+i} (...) with the
    shared index range cancelled symbolically, as a _q_diff_product triple."""
    n, k = ctx.N, ctx.K
    return _q_diff_product(
        ctx.q, [(node, -r) for r in range(1, i)] + [(node, -r) for r in range(n - k + i + 1, n + 1)]
    )


# As A_coeff: hits come from later commands (coherence and a second sweep).
# Two default sweeps of every suite in one process end with 4,915 entries.
@lru_cache(maxsize=1 << 13)
def qA_coeff(ctx: QDetContext, i: int, x: int) -> Rat:
    """q-residue sum at the particle positions a_j = nu_j - j >= x.

    The node a_j contributes (1 - q^{N-K}) (q^{a_j+1-x}; q)_{N-K-1} times
    the polynomial part over the node product; every factor is a difference
    of q-powers, so each term is an integer over the context's
    barycentric_lcm times powers of a and b, and the sum is normalised once."""
    if not 1 <= i <= ctx.K:
        raise ValueError("coefficient index out of range")
    m, q = ctx.N - ctx.K, ctx.q
    lcm = ctx.barycentric_lcm
    terms = []  # (c, ea, eb): the term is c * a^ea * b^eb / lcm at q = a/b
    for aj, (w, wa, wb) in zip(ctx.nodes(), ctx.barycentric):
        if aj < x:
            break
        c, ea, eb = _q_diff_product(q, [(0, s) for s in range(aj + 1 - x, aj - x + m)] + [(0, m)])
        p, pa, pb = _q_poly_part(ctx, i, aj)
        terms.append((c * p * (lcm // w), ea + pa - wa, eb + pb - wb))
    return _q_sum(q, terms, lcm)


# One power per (q, exponent), keyed by integers, since hashing a Fraction
# takes a modular inverse on every lookup. The exponent depends on kappa only
# through |kappa|, so a row of width W at level K needs at most K*W + 1 of
# them, and its bottom rows revisit each one many times.
@lru_cache(maxsize=512)
def _q_power(a: int, b: int, e: int) -> Rat:
    """(a/b)^e for coprime a, b > 0, in lowest terms."""
    return Fraction(a**e, b**e) if e >= 0 else Fraction(b**-e, a**-e)


def q_prefactor(ctx: QDetContext, kappa: Sequence[int]) -> Rat:
    """(-1)^{K(N-K)} q^{(N-K)|kappa|} q^{-K(N-K)(N+2)/2}."""
    n, k = ctx.N, ctx.K
    # K(N-K)(N+2) is always even: N+2 is even for even N, and for odd N one
    # of K and N-K is even
    e = (n - k) * sum(kappa) - k * (n - k) * (n + 2) // 2
    power = _q_power(ctx.q.numerator, ctx.q.denominator, e)
    return -power if k * (n - k) % 2 else power


def q_rel_dim_ratio(ctx: QDetContext, kappa: Sequence[int]) -> Rat:
    """(q-weighted trapezoid count) / (q-weighted triangular count): the
    prefactor times the unreduced determinant, normalised once."""
    pre = q_prefactor(ctx, kappa)
    num, den = _coefficient_det_parts(qA_coeff, ctx, kappa)
    return Fraction(pre.numerator * num, pre.denominator * den)


# ---------------------------------------------------------------------------
# general point subsets via inverse Vandermonde

# The q caches of the oracle routes are keyed by q = a/b as two integers,
# which hash without the modular inverse a Fraction key takes on every lookup.
@lru_cache(maxsize=64)
def _q_nodes_inverse(nu: Signature, a: int, b: int) -> tuple[tuple[Rat, ...], ...]:
    q = Fraction(a, b)
    return vandermonde_inverse([q ** (v - j) for j, v in enumerate(nu, start=1)])


# general-T fills 20,818 entries and hits them within the suite; q-oracle then
# reads 28,096 of them back, and a second default sweep in the process adds none.
@lru_cache(maxsize=1 << 15)
def psi_T(ctx: QDetContext, tspec: TSpec, i: int, x: int) -> Rat:
    """sum_j h_{nu_j - j - x}(q^T) [V^{-1}]_{i, col(j)} where column col(j)
    of the inverse Vandermonde belongs to the node q^{nu_j - j}."""
    if not 1 <= i <= ctx.N:
        raise ValueError("row index out of range")
    # h of negative degree is 0 and the nodes decrease, so the sum stops at
    # the first node below x; the terms share one denominator, normalised once
    num, den = 0, 1
    q = ctx.q
    for aj, v in zip(ctx.nodes(), _q_nodes_inverse(ctx.nu, q.numerator, q.denominator)[i - 1]):
        if aj < x:
            break
        h = h_at_q_powers(aj - x, tspec.T, q)
        d = h.denominator * v.denominator
        num = num * d + h.numerator * v.numerator * den
        den *= d
    return Fraction(num, den)


# One scalar per (N, q, T): a default general-T sweep needs 44, and the
# sweep cycles through the 28 of N = 4 (60 at --max-n 5) for every top row,
# so 128 entries keep that cycle cached.
@lru_cache(maxsize=128)
def _general_q_scalar(n: int, a: int, b: int, t: tuple) -> Rat:
    """(-q^N)^{sum T} V(q^{-1..-N}) / V(q^T) at q = a/b, in plain Fraction
    arithmetic."""
    q = Fraction(a, b)
    v_num = vandermonde_det([q**-r for r in range(1, n + 1)])
    return (-(q**n)) ** sum(t) * v_num / vandermonde_det([q**e for e in t])


def general_q_ratio(ctx: QDetContext, tspec: TSpec, kappa: Sequence[int]) -> Rat:
    """s_{nu/kappa}(q^T) / s_nu(1, q, ..., q^{N-1}) as
    (-q^N)^{sum T} V(q^{-1..-N}) / V(q^T) det[psi^T_{s'_i}(kappa_j - j)]."""
    kappa = check_signature(kappa)
    n, k = ctx.N, ctx.K
    if tspec.N != n or tspec.K != k:
        raise ValueError("subset spec does not match context")
    if len(kappa) != k:
        raise ValueError("bottom row must have length K")
    sp = tspec.S_prime
    matrix = [[psi_T(ctx, tspec, sp[i], kappa[j] - (j + 1)) for j in range(k)] for i in range(k)]
    q = ctx.q
    return _general_q_scalar(n, q.numerator, q.denominator, tspec.T) * det(matrix)


# One weight per (kappa, q, S), whatever the top row. general-T's mass check
# reads one per kappa, T and q of every top row: 500 keys at default bounds,
# 1,750 at --max-n 5, so 2^11 entries hold the whole sweep. q-oracle's 160
# keys (bottom run S only) are among them and all hit after general-T.
@lru_cache(maxsize=1 << 11)
def _schur_weight(kappa: Signature, a: int, b: int, s: tuple) -> Rat:
    """s_kappa(q^S) at q = a/b by the bialternant, in plain Fraction arithmetic."""
    q = Fraction(a, b)
    return schur_bialternant(kappa, [q**e for e in s])


def general_q_projection(ctx: QDetContext, tspec: TSpec, kappa: Sequence[int]) -> Rat:
    """Probability weight s_kappa(q^S) s_{nu/kappa}(q^T) / s_nu(1..q^{N-1});
    sums to 1 over kappa and reduces to the q-link row for the bottom run
    T = {0, ..., N-K-1}."""
    kappa = check_signature(kappa)
    q = ctx.q
    return _schur_weight(kappa, q.numerator, q.denominator, tspec.S) * general_q_ratio(ctx, tspec, kappa)


# ---------------------------------------------------------------------------
# q-link rows and the q -> 1 degeneration


def q_link_row(nu: Sequence[int], K: int, q: RatLike) -> LinkRow:
    """Markov-kernel row of the q-deformed link: q-dimension of kappa times
    the q-relative ratio, over the support box."""
    ctx = QDetContext(K, nu, q)
    return _link_row(ctx, q_rel_dim_ratio, lambda prefix: _q_dim_by_last_part(prefix, ctx.q))


def q_to_1_check(K: int, nu: Sequence[int], i: int, x: int, q: RatLike) -> tuple[Rat, Rat]:
    """Pair (qA_i(x) at this q, (-1)^{N-K} A_i(x)); the first converges to
    the second as q -> 1."""
    nu = check_signature(nu)
    qctx = QDetContext(K, nu, Fraction(q))
    ctx = DetContext(K, nu)
    target = Fraction(-1) ** (len(nu) - K) * A_coeff(ctx, i, x)
    return qA_coeff(qctx, i, x), target
