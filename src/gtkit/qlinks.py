"""q-weighted trapezoid counts by determinantal formulas (finite top row).

The measure weights a pattern by q^volume. The ratio of the q-weighted
trapezoid count to the q-weighted triangular count is again a K x K
determinant of residue sums qA_i(x), with an explicit sign/power prefactor.
A second, more general family evaluates skew Schur polynomials at an
arbitrary subset q^T of the geometric point set via inverse-Vandermonde
sums psi^T, and reduces to the first when T = {0, ..., N-K-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .linalg import Rat, RatLike, RatMatrix, vandermonde_inverse
from .patterns import (
    Signature,
    _q_diff_product,
    _q_fraction,
    check_q,
    check_signature,
    q_dim,
    support_box,
)
from .reldim import A_coeff, DetContext, LinkRow, coefficient_det
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
class QDetContext:
    """Trapezoid family with a q-weight: bottom length K, top row nu, 0<q<1."""

    K: int
    nu: Signature
    q: Rat

    def __post_init__(self):
        object.__setattr__(self, "nu", check_signature(self.nu))
        object.__setattr__(self, "q", check_q(self.q))
        if not 1 <= self.K < len(self.nu):
            raise ValueError("need 1 <= K < N")
        # every coefficient-cache lookup hashes the context; hash the top row once
        object.__setattr__(self, "_hash", hash((self.K, self.nu, self.q)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def N(self) -> int:
        return len(self.nu)

    def nodes(self) -> tuple[int, ...]:
        return tuple(v - j for j, v in enumerate(self.nu, start=1))

    @cached_property
    def barycentric(self) -> tuple[tuple[int, int, int], ...]:
        """Node products prod_{r != j} (q^{a_j} - q^{a_r}), computed once per
        context, each as the (c, ea, eb) triple of _q_diff_product."""
        a = self.nodes()
        return tuple(
            _q_diff_product(self.q, ((aj, ar) for r, ar in enumerate(a) if r != j)) for j, aj in enumerate(a)
        )


@dataclass(frozen=True)
class TSpec:
    """Subset T of {0, ..., N-1} with |T| = N - K; S is the complement and
    S' = {N - s : s in S} the reflected exponents used for row indices."""

    N: int
    K: int
    T: tuple

    def __post_init__(self):
        t = tuple(sorted(int(v) for v in self.T))
        object.__setattr__(self, "T", t)
        if len(set(t)) != len(t) or any(not 0 <= v < self.N for v in t):
            raise ValueError("T must be a subset of {0, ..., N-1}")
        if len(t) != self.N - self.K:
            raise ValueError("|T| must equal N - K")

    @property
    def S(self) -> tuple:
        return tuple(s for s in range(self.N) if s not in set(self.T))

    @property
    def S_prime(self) -> tuple:
        return tuple(sorted(self.N - s for s in self.S))


def _q_poly_part(ctx: QDetContext, i: int, node: int) -> tuple[int, int, int]:
    """prod_{r=1..N} (q^node - q^{-r}) / prod_{r=i..N-K+i} (...) with the
    shared index range cancelled symbolically, as a _q_diff_product triple."""
    n, k = ctx.N, ctx.K
    return _q_diff_product(
        ctx.q, [(node, -r) for r in range(1, i)] + [(node, -r) for r in range(n - k + i + 1, n + 1)]
    )


@lru_cache(maxsize=1 << 18)
def qA_coeff(ctx: QDetContext, i: int, x: int) -> Rat:
    """q-residue sum at the particle positions a_j = nu_j - j >= x.

    The node a_j contributes (1 - q^{N-K}) (q^{a_j+1-x}; q)_{N-K-1} times
    the polynomial part over the node product; every factor is a difference
    of q-powers, so each term is built in integers and normalised once."""
    if not 1 <= i <= ctx.K:
        raise ValueError("coefficient index out of range")
    m, q = ctx.N - ctx.K, ctx.q
    total = Fraction(0)
    for aj, (w, wa, wb) in zip(ctx.nodes(), ctx.barycentric):
        if aj < x:
            break
        c, ea, eb = _q_diff_product(q, [(0, s) for s in range(aj + 1 - x, aj - x + m)] + [(0, m)])
        p, pa, pb = _q_poly_part(ctx, i, aj)
        total += _q_fraction(q, c * p, w, ea + pa - wa, eb + pb - wb)
    return total


def q_prefactor(ctx: QDetContext, kappa: Sequence[int]) -> Rat:
    """(-1)^{K(N-K)} q^{(N-K)|kappa|} q^{-K(N-K)(N+2)/2}."""
    n, k = ctx.N, ctx.K
    half, odd = divmod(k * (n - k) * (n + 2), 2)
    if odd:
        raise ArithmeticError(f"K(N-K)(N+2) is odd for K={k}, N={n}")
    e = (n - k) * sum(kappa) - half
    return _q_fraction(ctx.q, (-1) ** (k * (n - k)), 1, e, -e)


def q_rel_dim_ratio(ctx: QDetContext, kappa: Sequence[int]) -> Rat:
    """(q-weighted trapezoid count) / (q-weighted triangular count)."""
    return q_prefactor(ctx, kappa) * coefficient_det(qA_coeff, ctx, kappa)


# ---------------------------------------------------------------------------
# general point subsets via inverse Vandermonde

@lru_cache(maxsize=64)
def _q_nodes_inverse(nu: Signature, q: Rat) -> RatMatrix:
    return vandermonde_inverse([q ** (v - j) for j, v in enumerate(nu, start=1)])


@lru_cache(maxsize=1 << 18)
def psi_T(ctx: QDetContext, tspec: TSpec, i: int, x: int) -> Rat:
    """sum_j h_{nu_j - j - x}(q^T) [V^{-1}]_{i, col(j)} where column col(j)
    of the inverse Vandermonde belongs to the node q^{nu_j - j}."""
    if not 1 <= i <= ctx.N:
        raise ValueError("row index out of range")
    inv = _q_nodes_inverse(ctx.nu, ctx.q)
    total = Fraction(0)
    for j, aj in enumerate(ctx.nodes()):
        h = h_at_q_powers(aj - x, tspec.T, ctx.q)
        if h:
            total += h * inv[i - 1, j]
    return total


def general_q_ratio(ctx: QDetContext, tspec: TSpec, kappa: Sequence[int]) -> Rat:
    """s_{nu/kappa}(q^T) / s_nu(1, q, ..., q^{N-1}) as
    (-q^N)^{sum T} V(q^{-1..-N}) / V(q^T) det[psi^T_{s'_i}(kappa_j - j)]."""
    kappa = check_signature(kappa)
    n, k, q = ctx.N, ctx.K, ctx.q
    if tspec.N != n or tspec.K != k:
        raise ValueError("subset spec does not match context")
    if len(kappa) != k:
        raise ValueError("bottom row must have length K")
    prefactor = (-(q**n)) ** sum(tspec.T)
    v_num = Fraction(1)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            v_num *= q**-a - q**-b
    v_den = Fraction(1)
    t = tspec.T
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            v_den *= q ** t[a] - q ** t[b]
    sp = tspec.S_prime
    matrix = RatMatrix(
        [[psi_T(ctx, tspec, sp[i], kappa[j] - (j + 1)) for j in range(k)] for i in range(k)]
    )
    return prefactor * v_num / v_den * matrix.det()


def general_q_projection(ctx: QDetContext, tspec: TSpec, kappa: Sequence[int]) -> Rat:
    """Probability weight s_kappa(q^S) s_{nu/kappa}(q^T) / s_nu(1..q^{N-1});
    sums to 1 over kappa and reduces to the q-link row for the bottom run
    T = {0, ..., N-K-1}."""
    kappa = check_signature(kappa)
    points = [ctx.q**s for s in tspec.S]
    return schur_bialternant(kappa, points) * general_q_ratio(ctx, tspec, kappa)


# ---------------------------------------------------------------------------
# q-link rows and the q -> 1 degeneration


def q_link_row(nu: Sequence[int], K: int, q: RatLike) -> LinkRow:
    """Markov-kernel row of the q-deformed link: q-dimension of kappa times
    the q-relative ratio, over the support box."""
    nu = check_signature(nu)
    ctx = QDetContext(K, nu, Fraction(q))
    weights = {}
    for kappa in support_box(nu, K):
        value = q_dim(kappa, ctx.q) * q_rel_dim_ratio(ctx, kappa)
        if value != 0:
            weights[kappa] = value
    return LinkRow(nu, K, weights)


def q_to_1_check(K: int, nu: Sequence[int], i: int, x: int, q: RatLike) -> tuple[Rat, Rat]:
    """Pair (qA_i(x) at this q, (-1)^{N-K} A_i(x)); the first converges to
    the second as q -> 1."""
    nu = check_signature(nu)
    qctx = QDetContext(K, nu, Fraction(q))
    ctx = DetContext(K, nu)
    target = Fraction(-1) ** (len(nu) - K) * A_coeff(ctx, i, x)
    return qA_coeff(qctx, i, x), target
