"""q-boundary coefficients and the q-Toeplitz calculus.

The boundary of the q-weighted chain is indexed by nondecreasing integer
sequences n that are eventually constant; for those, every infinite
q-Pochhammer ratio appearing in the contour formulas collapses to a rational
function, and the contour integrals become exact finite residue sums over
poles z = q^{-m}, each added in integers over one lcm and normalised once
by patterns._q_sum, the step that also ends qA_coeff.

Orientation note: the residue sums in this family are taken with the
opposite sign to the finite-top-row family; that choice is forced by the
expansion identity c_l = extract(build(c))_l and validated against the
finite-N ratios, which are anchored to the enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Rat, RatLike, det, poly_add, poly_mul, poly_scale
from .patterns import _integer, _integers, _q_diff_product, _q_sum, check_q, check_signature

__all__ = [
    "BoundarySeq",
    "qA_infinity",
    "q_ratio_infinity",
    "B_entry",
    "B_entry_via_qA",
    "basis_from_coeffs",
    "coeff_extract",
    "GeneratingCheck",
    "b_generating_check",
    "qtoeplitz_solve",
]


@dataclass(frozen=True)
class BoundarySeq:
    """Nondecreasing integer sequence given as an explicit head plus a tail
    constant c >= head[-1]; value(r) = head[r-1] for r <= len(head), else c."""

    head: tuple
    tail: int

    def __post_init__(self):
        head = _integers(self.head, "head values")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", _integer(self.tail, "tail"))
        for a, b in zip(head, head[1:]):
            if a > b:
                raise ValueError("head must be nondecreasing")
        if head and head[-1] > self.tail:
            raise ValueError("tail constant must be >= last head value")

    def value(self, r: int) -> int:
        if r < 1:
            raise ValueError("sequence is indexed from 1")
        return self.head[r - 1] if r <= len(self.head) else self.tail

    def head_pole_exponents(self) -> list:
        """Exponents m with (1 - z q^m) a head factor of the generating
        denominator: m = r + n_{r+1} for r = 0..len(head)-1 (all distinct)."""
        return [r + self.head[r] for r in range(len(self.head))]

    @property
    def tail_start(self) -> int:
        """The denominator tail is (z q^{tail_start}; q)_infinity."""
        return len(self.head) + self.tail

    def format(self) -> str:
        return ",".join(str(v) for v in self.head) + ";" + str(self.tail)


def _residue_sum(
    q: Rat, poles: Sequence[int], top: int, zeros: Sequence[int] = (), phi: Sequence[RatLike] = (1,)
) -> Rat:
    """Signed residue sum of phi(z) prod_{s in zeros} (1 - z q^s) / prod_{e in
    poles} (1 - z q^e) over the distinct poles z = q^{-e}, e <= top (this
    family's orientation). There every factor is a q-power difference, and
    phi is scaled to integers over the lcm d of its denominators, so all the
    terms are integers over one lcm, summed once by _q_sum."""
    phi = [Fraction(c) for c in phi]
    d = math.lcm(*(c.denominator for c in phi))
    phi = [c.numerator * (d // c.denominator) for c in phi]
    summed = [e for e in poles if e <= top]
    dens = [_q_diff_product(q, ((0, e2 - e) for e2 in poles if e2 != e)) for e in summed]
    lcm = d * math.lcm(*(w for w, _, _ in dens))
    terms = []  # (c, ea, eb): the term is c * a^ea * b^eb / lcm at q = a/b
    for e, (w, wa, wb) in zip(summed, dens):
        c, ea, eb = _q_diff_product(q, ((0, s - e) for s in zeros))
        c *= lcm // (d * w)
        # phi_{k-1} z^k at z = q^{-e} = a^{-e} b^e
        terms += [(c * p, ea - wa - e * k, eb - wb + e * k) for k, p in enumerate(phi, 1) if p]
    return _q_sum(q, terms, lcm)


def _reduced_zeros(s0: int, n: BoundarySeq) -> tuple[list, list]:
    """(z q^{s0}; q)_inf / (z; q | n)_inf as (zero exponents, pole exponents);
    the infinite tails cancel against each other."""
    ts = n.tail_start
    return list(range(s0, ts)), n.head_pole_exponents() + list(range(ts, s0))


def _b_exponent(x: int, i: int) -> int:
    """(x-i+1)(x+i-2)/2: the factors sum to 2x-1, which is odd, so one is even."""
    return (x - i + 1) * (x + i - 2) // 2


def qA_infinity(x: int, K: int, i: int, n: BoundarySeq, q: RatLike) -> Rat:
    """Boundary coefficient: q^{x+K} times the residue sum of
    (z q^{x+K+1}; q)_inf (z; q)_{K-i} / (z; q | n)_inf over poles q^{-m},
    m <= x + K."""
    q = check_q(q)
    if not 1 <= i <= K:
        raise ValueError("coefficient index out of range")
    zeros, poles = _reduced_zeros(x + K + 1, n)
    return q ** (x + K) * _residue_sum(q, poles, x + K, zeros + list(range(K - i)))


def q_ratio_infinity(kappa: Sequence[int], K: int, n: BoundarySeq, q: RatLike) -> Rat:
    """det[qA_infinity(kappa_j - j)]: the boundary value approached by the
    finite-top-row q-ratios along a stabilizing sequence of top rows."""
    kappa = check_signature(kappa)
    if len(kappa) != K:
        raise ValueError("bottom row must have length K")
    q = check_q(q)
    return det([[qA_infinity(kappa[j] - (j + 1), K, i, n, q) for j in range(K)] for i in range(1, K + 1)])


def B_entry(x: int, i: int, n: BoundarySeq, q: RatLike) -> Rat:
    """Level-free boundary matrix entry: q^{(x-i+1)(x+i-2)/2} times the
    residue sum of (z q^x; q)_inf (z; q)_{i-1} / (z; q | n)_inf over poles
    q^{-m}, m <= x - 1."""
    q = check_q(q)
    if i < 1:
        raise ValueError("column index starts at 1")
    zeros, poles = _reduced_zeros(x, n)
    return q ** _b_exponent(x, i) * _residue_sum(q, poles, x - 1, zeros + list(range(i - 1)))


def B_entry_via_qA(x: int, i: int, n: BoundarySeq, q: RatLike, K: int) -> Rat:
    """Same entry through the level-K boundary coefficients; the result is
    independent of K for any K >= i."""
    if not 1 <= i <= K:
        raise ValueError("need 1 <= i <= K")
    q = check_q(q)
    return qA_infinity(x - K - 1, K, K + 1 - i, n, q) * q ** _b_exponent(x - 1, i)


# ---------------------------------------------------------------------------
# expansion in the falling q-basis prod_{i<l} (q^{-i} - z)


def basis_from_coeffs(coeffs: Sequence[RatLike], q: RatLike) -> tuple:
    """Polynomial sum_l c_l prod_{i=0}^{l-1} (q^{-i} - z)."""
    q = check_q(q)
    out: tuple = ()
    basis: tuple = (Fraction(1),)
    for l, c in enumerate(coeffs):
        out = poly_add(out, poly_scale(basis, Fraction(c)))
        basis = poly_mul(basis, (q**-l, Fraction(-1)))
    return out


def coeff_extract(phi: Sequence[RatLike], l: int, q: RatLike) -> Rat:
    """Coefficient c_l of phi in the falling q-basis, extracted as
    q^{l(l+1)/2} times the residue sum of phi(z) / (z; q)_{l+1}."""
    q = check_q(q)
    if l < 0:
        raise ValueError("index must be nonnegative")
    return q ** (l * (l + 1) // 2) * _residue_sum(q, range(l + 1), l, phi=phi)


@dataclass(frozen=True)
class GeneratingCheck:
    """Witnessed outcome of the first-column generating identity."""

    ok: bool
    lhs: tuple
    rhs: tuple
    first_mismatch: int | None
    nonzero_beyond: tuple


def b_generating_check(n: BoundarySeq, q: RatLike) -> GeneratingCheck:
    """Check sum_l B(l+1, 1) prod_{i<l}(q^{-i} - z) = (z; q)_inf / (z; q|n)_inf.

    Needs n_1 >= 0, which makes the right side the polynomial
    prod over s in {0..tail_start-1} minus the head exponents of (1 - z q^s),
    of degree equal to the tail constant. Also verifies that B(l+1, 1)
    vanishes for l in tail+1 .. tail+3.
    """
    q = check_q(q)
    if n.value(1) < 0:
        raise ValueError("generating identity needs n_1 >= 0")
    rhs: tuple = (Fraction(1),)
    for s in sorted(set(range(n.tail_start)).difference(n.head_pole_exponents())):
        rhs = poly_mul(rhs, (Fraction(1), -(q**s)))
    coeffs = [B_entry(l + 1, 1, n, q) for l in range(n.tail + 1)]
    lhs = basis_from_coeffs(coeffs, q)
    first_mismatch = None
    width = max(len(lhs), len(rhs))
    for k in range(width):
        a = lhs[k] if k < len(lhs) else Fraction(0)
        b = rhs[k] if k < len(rhs) else Fraction(0)
        if a != b:
            first_mismatch = k
            break
    beyond = tuple(l for l in range(n.tail + 1, n.tail + 4) if B_entry(l + 1, 1, n, q) != 0)
    ok = first_mismatch is None and not beyond
    return GeneratingCheck(ok, lhs, rhs, first_mismatch, beyond)


def qtoeplitz_solve(phi: Sequence[RatLike], q: RatLike, x: int, i: int) -> Rat:
    """Closed-form solution d(x, i) of the two-term q-recurrence
    d(x, i+1) = d(x-1, i) + (q^{1-i} - q^{1-x}) d(x, i) whose first column
    d(l+1, 1) = c_l comes as phi = basis_from_coeffs(c, q), built once for
    many (x, i): q^{(x-i+1)(x+i-2)/2} times the residue sum of
    phi(z) (z; q)_{i-1} / (z; q)_x over poles q^{-m}, m = i-1 .. x-1."""
    q = check_q(q)
    if x < 1 or i < 1:
        raise ValueError("grid starts at x = i = 1")
    if x < i:
        return Fraction(0)
    return q ** _b_exponent(x, i) * _residue_sum(q, range(i - 1, x), x - 1, phi=phi)
