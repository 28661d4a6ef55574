"""q-boundary coefficients and the q-Toeplitz calculus.

The boundary of the q-weighted chain is indexed by nondecreasing integer
sequences n that are eventually constant; for those, every infinite
q-Pochhammer ratio appearing in the contour formulas collapses to a rational
function, and the contour integrals become exact finite residue sums over
poles z = q^{-m}. All arithmetic stays in Fraction.

Orientation note: the residue sums in this family are taken with the
opposite sign to the finite-top-row family; that choice is forced by the
expansion identity c_l = extract(build(c))_l and validated against the
finite-N ratios, which are anchored to the enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Rat, RatLike, det, poly_add, poly_eval, poly_mul, poly_scale
from .patterns import check_q, check_signature

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
        head = tuple(int(v) for v in self.head)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", int(self.tail))
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


def _residue_sum(num_poly, den_exponents: Sequence[int], max_exponent: int, q: Rat) -> Rat:
    """Signed residue sum of num_poly(z) / prod_e (1 - z q^e) over the poles
    z = q^{-e} with e <= max_exponent (this family's orientation)."""
    total = Fraction(0)
    exps = list(den_exponents)
    for s, e in enumerate(exps):
        if e > max_exponent:
            continue
        z0 = q**-e
        denom = Fraction(1)
        for t, e2 in enumerate(exps):
            if t != s:
                denom *= 1 - q ** (e2 - e)
        total += poly_eval(num_poly, z0) * z0 / denom
    return total


def _qpoch_poly(exponents: Iterable[int], q: Rat) -> tuple:
    """prod_{s in exponents} (1 - z q^s) as a polynomial in z."""
    out: tuple = (Fraction(1),)
    for s in exponents:
        out = poly_mul(out, (Fraction(1), -(q**s)))
    return out


def _reduced_ratio(s0: int, n: BoundarySeq, q: Rat) -> tuple[tuple, list]:
    """(z q^{s0}; q)_inf / (z; q | n)_inf as (numerator poly, denominator
    exponent list); the infinite tails cancel against each other."""
    ts = n.tail_start
    return _qpoch_poly(range(s0, ts), q), n.head_pole_exponents() + list(range(ts, s0))


def qA_infinity(x: int, K: int, i: int, n: BoundarySeq, q: RatLike) -> Rat:
    """Boundary coefficient: q^{x+K} times the residue sum of
    (z q^{x+K+1}; q)_inf (z; q)_{K-i} / (z; q | n)_inf over poles q^{-m},
    m <= x + K."""
    q = check_q(q)
    if not 1 <= i <= K:
        raise ValueError("coefficient index out of range")
    num, den = _reduced_ratio(x + K + 1, n, q)
    num = poly_mul(num, _qpoch_poly(range(K - i), q))
    return q ** (x + K) * _residue_sum(num, den, x + K, q)


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
    num, den = _reduced_ratio(x, n, q)
    num = poly_mul(num, _qpoch_poly(range(i - 1), q))
    exp2 = (x - i + 1) * (x + i - 2)
    if exp2 % 2:
        raise ArithmeticError(f"odd q-exponent {exp2} for x={x}, i={i}")
    return q ** (exp2 // 2) * _residue_sum(num, den, x - 1, q)


def B_entry_via_qA(x: int, i: int, n: BoundarySeq, q: RatLike, K: int) -> Rat:
    """Same entry through the level-K boundary coefficients; the result is
    independent of K for any K >= i."""
    if not 1 <= i <= K:
        raise ValueError("need 1 <= i <= K")
    q = check_q(q)
    exp2 = (x - i) * (x + i - 3)
    if exp2 % 2:
        raise ArithmeticError(f"odd q-exponent {exp2} for x={x}, i={i}")
    return qA_infinity(x - K - 1, K, K + 1 - i, n, q) * q ** (exp2 // 2)


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
    phi = tuple(Fraction(c) for c in phi)
    return q ** (l * (l + 1) // 2) * _residue_sum(phi, list(range(l + 1)), l, q)


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
    head = set(n.head_pole_exponents())
    rhs = _qpoch_poly([s for s in range(n.tail_start) if s not in head], q)
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


def qtoeplitz_solve(coeffs: Sequence[RatLike], q: RatLike, x: int, i: int) -> Rat:
    """Closed-form solution d(x, i) of the two-term q-recurrence
    d(x, i+1) = d(x-1, i) + (q^{1-i} - q^{1-x}) d(x, i) with first column
    d(l+1, 1) = coeffs[l]: q^{(x-i+1)(x+i-2)/2} times the residue sum of
    phi(z) (z; q)_{i-1} / (z; q)_x over poles q^{-m}, m = i-1 .. x-1."""
    q = check_q(q)
    if x < 1 or i < 1:
        raise ValueError("grid starts at x = i = 1")
    phi = basis_from_coeffs(coeffs, q)
    exp2 = (x - i + 1) * (x + i - 2)
    if exp2 % 2:
        raise ArithmeticError(f"odd q-exponent {exp2} for x={x}, i={i}")
    if x < i:
        return Fraction(0)
    return q ** (exp2 // 2) * _residue_sum(phi, list(range(i - 1, x)), x - 1, q)
