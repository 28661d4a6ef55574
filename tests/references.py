"""Reference routes the tests compare gtkit against, which the package itself
does not call: the upward-walk trapezoid count, the combinatorial skew Schur
sum, the interlacing test and plain polynomial evaluation."""

from fractions import Fraction

from gtkit.patterns import check_signature, skew_profile
from gtkit.schur import _check_points


def interlaces(lower, upper) -> bool:
    """True when upper_1 >= lower_1 >= upper_2 >= ... >= lower_n >= upper_{n+1}."""
    if len(upper) != len(lower) + 1:
        return False
    for i, m in enumerate(lower):
        if not (upper[i] >= m >= upper[i + 1]):
            return False
    return True


def rel_dim_oracle(kappa, nu, budget=None) -> int:
    """Number of trapezoids with bottom kappa and top nu: their profile's total."""
    return sum(skew_profile(kappa, nu, budget).values())


def skew_schur_combinatorial(nu, kappa, vals, budget=None) -> Fraction:
    """Sum over interlacing chains from kappa up to nu of
    prod_m vals_m^(row-sum increment at step m), one product per distinct
    increment vector of the skew profile; kappa = () gives the Schur value."""
    nu = check_signature(nu)
    kappa = check_signature(kappa)
    u = _check_points(vals)
    if len(u) != len(nu) - len(kappa):
        raise ValueError("need one evaluation point per added row")
    total = Fraction(0)
    for diffs, count in skew_profile(kappa, nu, budget).items():
        weight = Fraction(count)
        for v, d in zip(u, diffs):
            weight *= v**d
        total += weight
    return total


def poly_eval(p, x) -> Fraction:
    """The coefficient tuple p (low degree first) at x, by Horner."""
    out = Fraction(0)
    for c in reversed(list(p)):
        out = out * x + c
    return out
