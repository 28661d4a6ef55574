"""Boundary points, their generating functions, and minor-determinant links.

A boundary point omega is a pair of coordinate lists (alpha, beta, one pair
per direction) plus drift terms gamma; its generating function Phi(u; omega)
is holomorphic in an annulus around the unit circle and normalized by
Phi(1) = 1. Laurent coefficients phi_n come out exactly (a closed form in
the coordinates, when gamma = 0 and the alphas within each direction are
distinct) or numerically (unit-circle quadrature with doubling). Links to
level K are minor determinants of the coefficient sequence.

The embedding of a finite top row nu into the boundary coordinates uses
half-integer-shifted Frobenius-type coordinates divided by N; the drift of
an embedded point is always exactly zero, so embedded points always support
exact mode.

One product evaluates Phi at a point, exact or float. The float paths (the
quadrature, phi_eval at a float or complex point, the numeric minor
determinant) run on the standard library: cmath and math for the quadrature,
and the exact determinant of the float entries, rounded once, for the minor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import attrgetter, mul
from typing import Sequence

from .linalg import Rat, det
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

    @cached_property
    def closed_form(self) -> tuple[dict, list, list]:
        """(beta, P, M), built once per point: phi_n = sum_t beta[t] g(n - t)
        with g(m) = sum w r^m over (r, w) in P for m >= 0 and sum w s^-m over
        (s, w) in M for m < 0. With r = a/(1+a) per alpha_plus and s = a/(1+a)
        per alpha_minus, the alpha factors of Phi are (1-r)/(1-ru) and
        (1-s)/(1-s/u), beta(u) = prod (1-b+bu) prod (1-b+b/u), and
        1/((1-ru)(1-s/u)) has coefficients r^max(n,0) s^max(-n,0) / (1-rs)."""
        if self.gamma_plus != 0 or self.gamma_minus != 0:
            raise ValueError("exact coefficients need gamma_plus = gamma_minus = 0; use numeric mode")
        ap = [a for a in self.alpha_plus if a > 0]
        am = [a for a in self.alpha_minus if a > 0]
        if len(set(ap)) != len(ap) or len(set(am)) != len(am):
            raise ValueError("exact coefficients need distinct alphas; use numeric mode")
        bm = [b for b in self.beta_minus if b > 0]
        beta = [Fraction(1)]  # lowest power first; a beta_minus factor enters as u (1-b+b/u)
        for c0, c1 in [(1 - b, b) for b in self.beta_plus if b > 0] + [(b, 1 - b) for b in bm]:
            beta = [c0 * x + c1 * y for x, y in zip(beta + [0], [0] + beta)]
        rs = _simple_terms([a / (1 + a) for a in ap])
        ss = _simple_terms([a / (1 + a) for a in am])
        scale = math.prod(1 - r for r, _ in rs) * math.prod(1 - s for s, _ in ss)
        plus = [(r, scale * w * sum(v / (1 - r * s) for s, v in ss)) for r, w in rs]
        minus = [(s, scale * v * sum(w / (1 - r * s) for r, w in rs)) for s, v in ss]
        return dict(enumerate(beta, -len(bm))), plus, minus


def _simple_terms(roots: list) -> list:
    """[(r, w)] with prod 1/(1 - r u) = sum w / (1 - r u) over distinct roots:
    w = r^(k-1) / prod_{o != r} (r - o). The empty product is 1/(1 - 0 u)."""
    terms = [(r, r ** (len(roots) - 1) / math.prod(r - o for o in roots if o != r)) for r in roots]
    return terms or [(Fraction(0), Fraction(1))]


# ---------------------------------------------------------------------------
# evaluation


def phi_eval(omega: OmegaPoint, u):
    """Phi(u; omega). Exact for rational u when both drifts vanish; complex
    or float input switches to floating point."""
    exact = isinstance(u, (int, Fraction)) and omega.gamma_plus == 0 and omega.gamma_minus == 0
    u = Fraction(u) if exact else complex(u)
    if u == 0:
        raise PoleError("u = 0 is an essential singularity direction")
    if exact:
        try:
            return _phi(omega, Fraction)(u)
        except ZeroDivisionError as exc:
            raise PoleError(f"u = {u} is a pole of Phi") from exc
    # a float pole raises ZeroDivisionError; an overflow, or any other value
    # that is not finite, raises OverflowError instead of a nan
    try:
        value = _phi(omega, float)(u)
    except ValueError as exc:  # cmath's domain error at an infinite argument
        raise OverflowError(f"Phi({u}) overflows in floating point") from exc
    if not cmath.isfinite(value):
        raise OverflowError(f"Phi({u}) is {value} in floating point")
    return value


def _phi(omega: OmegaPoint, number):
    """Phi(.; omega) as a function of one point u, the coordinates converted
    once by `number`: Fraction for exact values (both drifts are then 0 and
    the product starts at 1), float for the float paths (u is complex and the
    product starts at the drift factor). A pole raises ZeroDivisionError; a
    float overflow may leave an inf or a nan. A coordinate beyond the float
    range raises OverflowError naming it."""

    def convert(name):
        out = []
        for k, value in enumerate(getattr(omega, name)):
            try:
                out.append(number(value))
            except OverflowError:
                raise OverflowError(f"{name}[{k}] is too large for a float; exact mode handles it") from None
        return out

    gamma_plus, gamma_minus = number(omega.gamma_plus), number(omega.gamma_minus)
    beta_plus, beta_minus = convert("beta_plus"), convert("beta_minus")
    alpha_plus, alpha_minus = convert("alpha_plus"), convert("alpha_minus")

    def phi(u):
        inv = 1 / u
        out = cmath.exp(gamma_plus * (u - 1) + gamma_minus * (inv - 1)) if number is float else number(1)
        for b in beta_plus:
            out *= 1 + b * (u - 1)
        for b in beta_minus:
            out *= 1 + b * (inv - 1)
        for a in alpha_plus:
            out /= 1 - a * (u - 1)
        for a in alpha_minus:
            out /= 1 - a * (inv - 1)
        return out

    return phi


def _poles(omega: OmegaPoint) -> list[Rat]:
    """The poles of Phi(.; omega) off u = 0: 1 + 1/a for each alpha_plus
    a > 0, outside the unit circle, and a / (1 + a) for each alpha_minus
    a > 0, inside it."""
    return [1 + 1 / a for a in omega.alpha_plus if a] + [a / (1 + a) for a in omega.alpha_minus if a]


# ---------------------------------------------------------------------------
# unit-circle quadrature with doubling


class QuadratureError(ArithmeticError):
    """Unit-circle quadrature that did not settle, or whose aliases could not
    fall below its tolerance, within its point budget."""


def _alias_floor(pole: Rat, window: range, tolerance: float) -> float:
    """The m above which the m-point aliases of one pole of the integrand are
    below `tolerance` at every n in `window`: a pole of radius r > 1 adds
    about r^-(n+m) to the mean for coefficient n, and one of radius r < 1
    about r^(m-n)."""
    # the log of a radius, from its integers: it may lie outside the float range
    log_radius = math.log(abs(pole.numerator)) - math.log(pole.denominator)
    if log_radius > 0:
        return math.log(tolerance) / -log_radius - window[0]
    if log_radius < 0:
        return math.log(tolerance) / log_radius + window[-1]
    return math.inf  # on the circle, to float precision


def _pole_text(pole: Rat) -> str:
    """The pole as a fraction or, when that runs past 40 characters, as 1
    plus or minus its float distance from 1 (1 + 1e-300): only the poles of
    Phi, at 1 + 1/a and a/(1+a), grow with the coordinates."""
    if len(str(pole)) <= 40:
        return str(pole)
    return f"1 {'-' if pole < 1 else '+'} {float(abs(pole - 1)):.2g}"


def _circle_means(integrands, poles, window: range, tolerance: float, max_points: int) -> list[float]:
    """Real parts of the means of integrands(us) over m midpoint nodes us of
    the unit circle, m doubling from 64 until no mean moves by `tolerance`.

    integrands(us) yields one list of complex values per mean, each value at
    the node of the same position in us: the mean for n in `window`
    estimates the n-th Laurent coefficient of a function with the given
    poles. Two means that agree can both be aliased, so the loop stops only
    at an m above every pole's `_alias_floor`; a floor above max_points
    raises QuadratureError naming its pole.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"quadrature tolerance must be positive and finite, got {tolerance}")
    floor, pole = max(((_alias_floor(p, window, tolerance), p) for p in poles), default=(0.0, None))
    if floor >= max_points:
        if math.isinf(floor):
            reach = f"never fall below tolerance {tolerance}"
        else:
            reach = f"stay above tolerance {tolerance} below about {floor:.3g} points, over max_points = {max_points}"
        raise QuadratureError(f"the pole at u = {_pole_text(pole)} is too near the unit circle: its aliases {reach}")
    m = 64
    prev = None
    while m <= max_points:
        us = [cmath.exp(1j * (2 * math.pi * (k + 0.5) / m)) for k in range(m)]
        current = [math.fsum(map(attrgetter("real"), vals)) / m for vals in integrands(us)]
        if m > floor and prev is not None and max(abs(a - b) for a, b in zip(current, prev)) < tolerance:
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
        beta, plus, minus = omega.closed_form
        g = {
            m: sum(w * r**m for r, w in plus) if m >= 0 else sum(w * s**-m for s, w in minus)
            for m in range(n_min - max(beta), n_max - min(beta) + 1)
        }
        coeffs = {n: sum(c * g[n - t] for t, c in beta.items()) for n in range(n_min, n_max + 1)}
        return LaurentWindow(n_min, n_max, coeffs, "exact", None)
    if mode != "numeric":
        raise ValueError("mode must be 'exact' or 'numeric'")
    ns = range(n_min, n_max + 1)
    phi = _phi(omega, float)

    def integrands(us):
        # Phi(u) u^{-n} for n = n_min .. n_max: each list is the one before
        # it times 1/u, node by node
        invs = [1 / u for u in us]
        vals = [phi(u) * u**-n_min for u in us]
        yield vals
        for _ in ns[1:]:
            vals = list(map(mul, vals, invs))
            yield vals

    means = _circle_means(integrands, _poles(omega), ns, tolerance, max_points)
    return LaurentWindow(n_min, n_max, dict(zip(ns, means)), "numeric", tolerance)


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

    def shifted(lengths):
        # (2 (l_i - i) + 1) / 2N while l_i - i >= 0, which is at most N terms
        out = []
        for i, length in enumerate(lengths, start=1):
            if length - i < 0:
                break
            out.append(Fraction(2 * (length - i) + 1, 2 * n))
        return tuple(out)

    def coords(diagram):
        # rows, then columns: column i has #{parts >= i} boxes, computed
        # only while shifted still reads it
        return shifted(diagram), shifted(sum(1 for p in diagram if p >= i) for i in count(1))

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
    circle, quadrature points doubled until stable. Needs N > K + x + 1 and
    x + i >= 1, and, as the mean takes only the poles inside the circle,
    every pole of R inside it."""
    nu = check_signature(nu)
    n = len(nu)
    if not n > K + x + 1:
        raise ValueError("representation requires N > K + x + 1")
    kernel_poles = _r_kernel_poles(n, K, i, x)
    if x + i < 1:
        # the pole at s = 0 is then one that no zero of R cancels
        raise ValueError(f"representation requires x + i >= 1; R keeps its pole at u = {kernel_poles[0]}")
    for pole in kernel_poles:
        if abs(pole) >= 1:
            raise ValueError(f"representation requires every pole of R inside the unit circle; R has one at u = {pole}")
    omega = embed(nu)
    phi = _phi(omega, float)
    (mean,) = _circle_means(
        lambda us: [[phi(u) * _r_kernel_complex(n, K, x, i, u) for u in us]],
        _poles(omega) + kernel_poles,
        range(1),
        tolerance,
        max_points,
    )
    return mean


def _r_kernel_poles(N: int, K: int, i: int, x: int) -> list[Rat]:
    """The poles of R: u = 1 - N/c at each c = i - 1/2 + s, s = 0..N-K, that
    R's zero at c = s' + 1/2 - x, s' = 0..N-K-2, does not cancel (the zero
    with s' = x + i + s - 1 cancels it)."""
    return [
        1 - Fraction(2 * N, 2 * (i + s) - 1)
        for s in range(N - K + 1)
        if not 0 <= x + i + s - 1 <= N - K - 2
    ]


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
