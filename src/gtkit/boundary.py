"""Boundary points, their generating functions, and minor-determinant links.

A boundary point omega is a pair of coordinate lists (alpha, beta, one pair
per direction) plus drift terms gamma; its generating function Phi(u; omega)
is holomorphic in an annulus around the unit circle and normalized by
Phi(1) = 1. Laurent coefficients phi_n come out exactly (partial fractions,
available when gamma = 0 and the alphas within each direction are distinct)
or numerically (unit-circle quadrature with doubling). Links to level K are
minor determinants of the coefficient sequence.

The embedding of a finite top row nu into the boundary coordinates uses
half-integer-shifted Frobenius-type coordinates divided by N; the drift of
an embedded point is always exactly zero, so embedded points always support
exact mode.

The float paths (the quadrature, phi_eval at a float or complex point, the
numeric minor determinant) run on the standard library: cmath and math for
the quadrature, and the exact determinant of the float entries, rounded once,
for the minor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
from typing import Sequence

from .linalg import Rat, det, poly_coeff, poly_divmod, poly_eval, poly_mul
from .patterns import check_signature, dim_product
from .reldim import DetContext, PoleError, rel_dim_ratio

__all__ = [
    "OmegaPoint",
    "LaurentWindow",
    "phi_eval",
    "phi_coeffs",
    "phi_signature",
    "link_infinity",
    "embed",
    "QuadratureError",
    "a_coeff_quadrature",
    "uat_gap",
]


def _check_coord_list(values, name: str) -> tuple[Rat, ...]:
    out = tuple(Fraction(v) for v in values)
    for v in out:
        if v < 0:
            raise ValueError(f"{name} entries must be >= 0")
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ValueError(f"{name} must be nonincreasing")
    return out


@dataclass(frozen=True)
class OmegaPoint:
    alpha_plus: tuple = ()
    beta_plus: tuple = ()
    alpha_minus: tuple = ()
    beta_minus: tuple = ()
    gamma_plus: Rat = Fraction(0)
    gamma_minus: Rat = Fraction(0)

    def __post_init__(self):
        for name in ("alpha_plus", "beta_plus", "alpha_minus", "beta_minus"):
            object.__setattr__(self, name, _check_coord_list(getattr(self, name), name))
        for name in ("gamma_plus", "gamma_minus"):
            value = Fraction(getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
            object.__setattr__(self, name, value)
        b_plus = self.beta_plus[0] if self.beta_plus else Fraction(0)
        b_minus = self.beta_minus[0] if self.beta_minus else Fraction(0)
        if b_plus + b_minus > 1:
            raise ValueError("beta_plus[0] + beta_minus[0] must be <= 1")


# ---------------------------------------------------------------------------
# evaluation


def phi_eval(omega: OmegaPoint, u):
    """Phi(u; omega). Exact for rational u when both drifts vanish; complex
    or float input switches to floating point."""
    exact = isinstance(u, (int, Fraction)) and omega.gamma_plus == 0 and omega.gamma_minus == 0
    u = Fraction(u) if exact else complex(u)
    if u == 0:
        raise PoleError("u = 0 is an essential singularity direction")
    if not exact:
        # a float pole raises ZeroDivisionError; an overflow, or any other
        # value that is not finite, raises OverflowError instead of a nan
        try:
            value = _phi_complex(omega)(u)
        except ValueError as exc:  # cmath's domain error at an infinite argument
            raise OverflowError(f"Phi({u}) overflows in floating point") from exc
        if not cmath.isfinite(value):
            raise OverflowError(f"Phi({u}) is {value} in floating point")
        return value
    out = Fraction(1)
    for b in omega.beta_plus:
        out *= 1 + b * (u - 1)
    for b in omega.beta_minus:
        out *= 1 + b * (1 / u - 1)
    for a in omega.alpha_plus:
        denom = 1 - a * (u - 1)
        if denom == 0:
            raise PoleError(f"u = {u} is the pole of the alpha_plus = {a} factor")
        out /= denom
    for a in omega.alpha_minus:
        denom = 1 - a * (1 / u - 1)
        if denom == 0:
            raise PoleError(f"u = {u} is the pole of the alpha_minus = {a} factor")
        out /= denom
    return out


# ---------------------------------------------------------------------------
# exact Laurent coefficients via partial fractions


def _rational_form(omega: OmegaPoint):
    """Phi(u) = u^shift * N(u) / D(u) with polynomial N, D; also returns the
    poles of D split into (inside unit circle, outside)."""
    if omega.gamma_plus != 0 or omega.gamma_minus != 0:
        raise ValueError("exact coefficients need gamma_plus = gamma_minus = 0; use numeric mode")
    ap = [a for a in omega.alpha_plus if a > 0]
    am = [a for a in omega.alpha_minus if a > 0]
    if len(set(ap)) != len(ap) or len(set(am)) != len(am):
        raise ValueError("exact coefficients need distinct alphas; use numeric mode")
    bp = [b for b in omega.beta_plus if b > 0]
    bm = [b for b in omega.beta_minus if b > 0]
    num: tuple = (Fraction(1),)
    for b in bp:
        num = poly_mul(num, (1 - b, b))
    for b in bm:
        num = poly_mul(num, (b, 1 - b))
    den: tuple = (Fraction(1),)
    outside = []
    inside = []
    for a in ap:
        den = poly_mul(den, (1 + a, -a))
        outside.append((1 + a) / a)
    for a in am:
        den = poly_mul(den, (-a, 1 + a))
        inside.append(a / (1 + a))
    shift = len(am) - len(bm)
    return shift, num, den, inside, outside


def _partial_fractions(num, den, inside, outside):
    quot, rem = poly_divmod(num, den)
    residues = {}
    lead = den[-1]
    for root in inside + outside:
        dval = Fraction(1)
        for other in inside + outside:
            if other != root:
                dval *= root - other
        # derivative of den = lead * prod (u - root) at a simple root
        residues[root] = poly_eval(rem, root) / (lead * dval) if rem else Fraction(0)
    return quot, residues


def _exact_coeff(shift, quot, residues, inside, outside, n: int) -> Rat:
    k = n - shift
    out = poly_coeff(quot, k)
    if k >= 0:
        for p in outside:
            out -= residues[p] * p ** (-k - 1)
    else:
        for r in inside:
            out += residues[r] * r ** (-k - 1)
    return out


# ---------------------------------------------------------------------------
# unit-circle quadrature with doubling


class QuadratureError(ArithmeticError):
    """Unit-circle quadrature that did not settle within its point budget."""


def _circle_means(integrands, tolerance: float, max_points: int) -> list[float]:
    """Real parts of the means of integrands(us) over m midpoint nodes us of
    the unit circle, m doubling from 64 until no mean moves by `tolerance`.

    integrands(us) yields one list of complex values per mean, each value at
    the node of the same position in us.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"quadrature tolerance must be positive and finite, got {tolerance}")
    m = 64
    prev = None
    while m <= max_points:
        us = [cmath.exp(1j * (2 * math.pi * (k + 0.5) / m)) for k in range(m)]
        current = [math.fsum(map(attrgetter("real"), vals)) / m for vals in integrands(us)]
        if prev is not None and max(abs(a - b) for a, b in zip(current, prev)) < tolerance:
            return current
        prev = current
        m *= 2
    raise QuadratureError(
        f"quadrature did not converge to tolerance {tolerance} within {max_points} points; "
        "raise max_points or tolerance"
    )


@dataclass
class LaurentWindow:
    """Coefficients phi_n for n_min <= n <= n_max, with provenance."""

    n_min: int
    n_max: int
    coeffs: dict
    mode: str
    tolerance: float | None = None

    def __getitem__(self, n: int):
        if not self.n_min <= n <= self.n_max:
            raise KeyError(f"n = {n} outside window [{self.n_min}, {self.n_max}]")
        return self.coeffs[n]


def phi_coeffs(
    omega: OmegaPoint,
    n_min: int,
    n_max: int,
    mode: str = "exact",
    tolerance: float = 1e-10,
    max_points: int = 1 << 16,
) -> LaurentWindow:
    """Laurent coefficients of Phi on [n_min, n_max]."""
    if n_min > n_max:
        raise ValueError("empty window")
    if mode == "exact":
        shift, num, den, inside, outside = _rational_form(omega)
        quot, residues = _partial_fractions(num, den, inside, outside)
        coeffs = {
            n: _exact_coeff(shift, quot, residues, inside, outside, n)
            for n in range(n_min, n_max + 1)
        }
        return LaurentWindow(n_min, n_max, coeffs, "exact", None)
    if mode != "numeric":
        raise ValueError("mode must be 'exact' or 'numeric'")
    ns = range(n_min, n_max + 1)
    phi = _phi_complex(omega)

    def integrands(us):
        # Phi(u) u^{-n} for n = n_min .. n_max: each list is the one before
        # it times 1/u, node by node
        invs = [1 / u for u in us]
        vals = [phi(u) * u**-n_min for u in us]
        yield vals
        for _ in ns[1:]:
            vals = list(map(mul, vals, invs))
            yield vals

    means = _circle_means(integrands, tolerance, max_points)
    return LaurentWindow(n_min, n_max, dict(zip(ns, means)), "numeric", tolerance)


def _phi_complex(omega: OmegaPoint):
    """Phi(.; omega) in floating point, as a function of one complex point u
    that takes the coordinates as floats converted once. A pole raises
    ZeroDivisionError; an overflow may leave an inf or a nan."""
    gamma_plus, gamma_minus = float(omega.gamma_plus), float(omega.gamma_minus)
    beta_plus = [float(b) for b in omega.beta_plus]
    beta_minus = [float(b) for b in omega.beta_minus]
    alpha_plus = [float(a) for a in omega.alpha_plus]
    alpha_minus = [float(a) for a in omega.alpha_minus]

    def phi(u: complex) -> complex:
        out = cmath.exp(gamma_plus * (u - 1) + gamma_minus * (1 / u - 1))
        for b in beta_plus:
            out *= 1 + b * (u - 1)
        for b in beta_minus:
            out *= 1 + b * (1 / u - 1)
        for a in alpha_plus:
            out /= 1 - a * (u - 1)
        for a in alpha_minus:
            out /= 1 - a * (1 / u - 1)
        return out

    return phi


def phi_signature(
    omega: OmegaPoint,
    sig: Sequence[int],
    mode: str = "exact",
    tolerance: float = 1e-10,
):
    """Minor determinant det[phi_{sig_i - i + j}] of the coefficient sequence."""
    sig = check_signature(sig)
    n = len(sig)
    if n == 0:
        return Fraction(1) if mode == "exact" else 1.0
    lo = min(sig[i] - (i + 1) + 1 for i in range(n))
    hi = max(sig[i] - (i + 1) + n for i in range(n))
    window = phi_coeffs(omega, lo, hi, mode=mode, tolerance=tolerance)
    entries = [[window[sig[i] - (i + 1) + (j + 1)] for j in range(n)] for i in range(n)]
    # numeric entries are floats, which det takes exactly; the float of the
    # exact determinant is correctly rounded
    value = det(entries)
    return value if mode == "exact" else float(value)


def link_infinity(
    omega: OmegaPoint,
    kappa: Sequence[int],
    mode: str = "exact",
    tolerance: float = 1e-10,
):
    """Boundary link weight to bottom row kappa: (triangular count) times the
    minor determinant of the coefficient sequence."""
    kappa = check_signature(kappa)
    return dim_product(kappa) * phi_signature(omega, kappa, mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# embedding of finite rows


def _transpose(partition: Sequence[int]) -> tuple:
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p >= i) for i in range(1, partition[0] + 1)
    )


def embed(nu: Sequence[int]) -> OmegaPoint:
    """Coordinates of a finite top row inside the boundary parameter space:
    row/column half-shifted coordinates of the positive and negative parts,
    each divided by N and clamped at zero."""
    nu = check_signature(nu)
    n = len(nu)
    if n == 0:
        raise ValueError("need a nonempty top row")
    pos = tuple(v for v in nu if v > 0)
    neg = tuple(sorted((-v for v in nu if v < 0), reverse=True))

    def coords(diagram):
        alpha = []
        for i, part in enumerate(diagram, start=1):
            if part - i < 0:
                break
            alpha.append(Fraction(2 * (part - i) + 1, 2 * n))
        beta = []
        for i, col in enumerate(_transpose(diagram), start=1):
            if col - i < 0:
                break
            beta.append(Fraction(2 * (col - i) + 1, 2 * n))
        return tuple(alpha), tuple(beta)

    a_plus, b_plus = coords(pos)
    a_minus, b_minus = coords(neg)
    return OmegaPoint(
        alpha_plus=a_plus,
        beta_plus=b_plus,
        alpha_minus=a_minus,
        beta_minus=b_minus,
    )


# ---------------------------------------------------------------------------
# unit-circle representation of the finite coefficients


def a_coeff_quadrature(
    nu: Sequence[int],
    K: int,
    i: int,
    x: int,
    tolerance: float = 1e-10,
    max_points: int = 1 << 16,
) -> float:
    """A_i(x) recovered as the mean of Phi(u; embed(nu)) R(u) over the unit
    circle, quadrature points doubled until stable. Needs N > K + x + 1."""
    nu = check_signature(nu)
    n = len(nu)
    if not n > K + x + 1:
        raise ValueError("representation requires N > K + x + 1")
    phi = _phi_complex(embed(nu))
    (mean,) = _circle_means(
        lambda us: [[phi(u) * _r_kernel_complex(n, K, x, i, u) for u in us]], tolerance, max_points
    )
    return mean


def _r_kernel_complex(N: int, K: int, x: int, i: int, u: complex) -> complex:
    """Kernel R(u) whose pairing with Phi(.; embed(nu)) over the unit circle
    gives the finite coefficient A_i(x); tends to u^{-(x+i)} as N grows."""
    y = N / (u - 1)
    out = N * (N - K) * u / (u - 1) ** 2
    for s in range(N - K - 1):
        out = out * (y - x + 0.5 + s) / (y + i - 0.5 + s)
    out = out / ((y + i - 0.5 + (N - K - 1)) * (y + i - 0.5 + (N - K)))
    return out


# ---------------------------------------------------------------------------
# approximation gap


def uat_gap(
    nu: Sequence[int],
    kappa: Sequence[int],
    mode: str = "exact",
    tolerance: float = 1e-10,
):
    """|finite link weight - boundary link weight at the embedded point|.

    Exact mode returns a rational; numeric mode recomputes the boundary side
    by quadrature (the finite side stays exact) and returns a float.
    """
    nu = check_signature(nu)
    kappa = check_signature(kappa)
    ctx = DetContext(len(kappa), nu)
    finite = dim_product(kappa) * rel_dim_ratio(ctx, kappa)
    limit = link_infinity(embed(nu), kappa, mode=mode, tolerance=tolerance)
    if mode == "exact":
        return abs(finite - limit)
    return abs(float(finite) - limit)
