"""Rational Schur polynomials of integer signatures.

Signatures may have negative parts, so these are Laurent-type Schur
polynomials: evaluation points must be nonzero. The bialternant needs
pairwise distinct points; at q-power points the one-row values h_m also
have a closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .linalg import Rat, RatLike, det, vandermonde_det
from .patterns import _integer, _integers, check_signature

__all__ = [
    "RepeatedPointsError",
    "schur_bialternant",
    "h_at_q_powers",
]


class RepeatedPointsError(ValueError):
    """Bialternant evaluation at repeated points."""


def _check_points(vals: Sequence[RatLike]) -> tuple[Rat, ...]:
    out = tuple(Fraction(v) for v in vals)
    if any(v == 0 for v in out):
        raise ValueError("evaluation points must be nonzero (Laurent powers)")
    return out


def schur_bialternant(nu: Sequence[int], vals: Sequence[RatLike]) -> Rat:
    """det[u_i^{nu_j + N - j}] / det[u_i^{N - j}] at pairwise distinct points."""
    nu = check_signature(nu)
    u = _check_points(vals)
    n = len(nu)
    if len(u) != n:
        raise ValueError("need exactly one evaluation point per part")
    if n == 0:
        return Fraction(1)
    if len(set(u)) != n:
        raise RepeatedPointsError("points must be pairwise distinct")
    num = det([[u[i] ** (nu[j] + n - 1 - j) for j in range(n)] for i in range(n)])
    return num / vandermonde_det(u)


def h_at_q_powers(m: int, exponents: Sequence[int], q: RatLike) -> Rat:
    """Closed form for h_m(q^{j_1}, ..., q^{j_l}) at distinct integer
    exponents: sum_k q^{j_k m} / prod_{r != k} (1 - q^{j_r - j_k}).

    Validated on every call; the value comes from a cache keyed on
    (m, exponents, q.numerator, q.denominator)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.numerator <= 0 or q.numerator == q.denominator:
        raise ValueError("q must be positive and distinct from 1")
    m = _integer(m, "m")
    js = _integers(exponents, "exponents")
    if len(set(js)) != len(js):
        raise ValueError("exponents must be distinct")
    return _h_at_q_powers(m, js, q.numerator, q.denominator)


# A default general-T sweep asks for 168 distinct (m, T, q); 1024 entries
# hold them all, with room for wider sweeps. q = a/b is keyed as two
# integers, which hash without the modular inverse a Fraction key takes.
@lru_cache(maxsize=1024)
def _h_at_q_powers(m: int, js: tuple[int, ...], a: int, b: int) -> Rat:
    q = Fraction(a, b)
    if m < 0:
        return Fraction(0)
    if not js:
        return Fraction(1) if m == 0 else Fraction(0)
    total = Fraction(0)
    for k, jk in enumerate(js):
        denom = Fraction(1)
        for r, jr in enumerate(js):
            if r != k:
                denom *= 1 - q ** (jr - jk)
        total += q ** (jk * m) / denom
    return total
