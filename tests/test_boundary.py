"""Boundary points: coefficients, minor determinants, and the embedding."""

import re
import signal
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import omega_points, top_rows

from gtkit.boundary import (
    LaurentWindow,
    OmegaPoint,
    QuadratureError,
    a_coeff_quadrature,
    embed,
    link_infinity,
    phi_coeffs,
    phi_eval,
    phi_signature,
    uat_gap,
)
from gtkit.linalg import poly_coeff, poly_divmod, poly_eval, poly_mul
from gtkit.reldim import A_coeff, DetContext, PoleError

BETA = OmegaPoint(beta_plus=(F(1, 3),))
ALPHA = OmegaPoint(alpha_plus=(F(1),))


def test_omega_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        OmegaPoint(alpha_plus=(F(1, 3), F(1, 2)))
    with pytest.raises(ValueError, match=">= 0"):
        OmegaPoint(beta_minus=(F(-1, 2),))
    with pytest.raises(ValueError, match="<= 1"):
        OmegaPoint(beta_plus=(F(2, 3),), beta_minus=(F(1, 2),))
    with pytest.raises(ValueError):
        OmegaPoint(gamma_plus=F(-1))


def test_phi_eval():
    assert phi_eval(BETA, 1) == 1  # normalization at u = 1
    assert phi_eval(OmegaPoint(beta_plus=(F(1),)), 2) == 2  # Phi(u) = u
    assert phi_eval(ALPHA, F(3, 2)) == 2  # 1 / (1 - (u-1))
    with pytest.raises(PoleError):
        phi_eval(ALPHA, 2)
    with pytest.raises(PoleError):
        phi_eval(BETA, 0)
    # complex input switches to floating point
    val = phi_eval(BETA, complex(1.0, 0.0))
    assert isinstance(val, complex) and abs(val - 1) < 1e-12
    with pytest.raises(ArithmeticError):
        phi_eval(ALPHA, 2.0)  # the float pole of 1 / (1 - (u-1))


@pytest.mark.parametrize(
    "omega, u",
    [
        (ALPHA, 1e-320),  # 1/u overflows to inf, and 0 * inf is nan
        (ALPHA, 1e-310j),
        (OmegaPoint(gamma_plus=F(1)), float("nan")),
        (OmegaPoint(gamma_plus=F(1)), float("inf")),
        (OmegaPoint(gamma_plus=F(1000)), 800.0),  # cmath.exp overflows
        (OmegaPoint(gamma_plus=F(10)), complex(1e308, 1e308)),  # cmath.exp(inf + inf j) is a domain error
    ],
)
def test_phi_eval_raises_an_overflow_error_instead_of_a_value_that_is_not_finite(omega, u):
    with pytest.raises(OverflowError):
        phi_eval(omega, u)


def test_phi_coeffs_beta_factors():
    # beta_plus b: Phi = (1-b) + b u; beta_minus b: Phi = (1-b) + b/u
    w = phi_coeffs(BETA, -2, 3)
    assert [w[n] for n in range(-2, 4)] == [0, 0, F(2, 3), F(1, 3), 0, 0]
    w = phi_coeffs(OmegaPoint(beta_minus=(F(1, 4),)), -2, 2)
    assert [w[n] for n in range(-2, 3)] == [0, F(1, 4), F(3, 4), 0, 0]


def test_phi_coeffs_alpha_factors():
    # alpha_plus a: geometric tail (1/(1+a)) (a/(1+a))^n for n >= 0
    w = phi_coeffs(ALPHA, -2, 4)
    assert [w[n] for n in range(-1, 5)] == [0] + [F(1, 2 ** (n + 1)) for n in range(5)]
    # alpha_minus a: mirrored tail on n <= 0
    a = F(1, 2)
    w = phi_coeffs(OmegaPoint(alpha_minus=(a,)), -4, 1)
    ratio = a / (1 + a)
    assert w[1] == 0
    assert [w[-j] for j in range(4)] == [(1 - ratio) * ratio**j for j in range(4)]


def test_phi_coeffs_window_and_modes():
    with pytest.raises(ValueError):
        phi_coeffs(BETA, 2, 1)
    with pytest.raises(ValueError):
        phi_coeffs(BETA, 0, 1, mode="fast")
    with pytest.raises(KeyError):
        phi_coeffs(BETA, 0, 1)[5]
    # gamma != 0 has no rational form; numeric mode still works
    drift = OmegaPoint(gamma_plus=F(1, 2))
    with pytest.raises(ValueError, match="numeric"):
        phi_coeffs(drift, 0, 1)
    w = phi_coeffs(drift, 0, 2, mode="numeric")
    # exp(g(u-1)): phi_n = e^{-g} g^n / n!
    import math

    for n in range(3):
        want = math.exp(-0.5) * 0.5**n / math.factorial(n)
        assert abs(w[n] - want) < 1e-10
    with pytest.raises(ValueError, match="distinct"):
        phi_coeffs(OmegaPoint(alpha_plus=(F(1, 2), F(1, 2))), 0, 1)


# The partial-fraction route the closed form replaced, kept as a reference:
# Phi = u^shift N(u) / D(u) with polynomials N and D, N divided by D, and the
# remainder evaluated at each pole of D.


def _reference_coeffs(omega, n_min, n_max):
    ap = [a for a in omega.alpha_plus if a > 0]
    am = [a for a in omega.alpha_minus if a > 0]
    bm = [b for b in omega.beta_minus if b > 0]
    num = (F(1),)
    for b in omega.beta_plus:
        if b > 0:
            num = poly_mul(num, (1 - b, b))
    for b in bm:
        num = poly_mul(num, (b, 1 - b))
    den = (F(1),)
    for a in ap:
        den = poly_mul(den, (1 + a, -a))
    for a in am:
        den = poly_mul(den, (-a, 1 + a))
    outside = [(1 + a) / a for a in ap]
    inside = [a / (1 + a) for a in am]
    quot, rem = poly_divmod(num, den)
    residues = {}
    for root in inside + outside:
        dval = F(1)
        for other in inside + outside:
            if other != root:
                dval *= root - other
        residues[root] = poly_eval(rem, root) / (den[-1] * dval) if rem else F(0)
    out = {}
    for n in range(n_min, n_max + 1):
        k = n - (len(am) - len(bm))
        value = poly_coeff(quot, k)
        if k >= 0:
            value -= sum(residues[p] * p ** (-k - 1) for p in outside)
        else:
            value += sum(residues[r] * r ** (-k - 1) for r in inside)
        out[n] = value
    return out


@st.composite
def wide_exact_points(draw):
    """A point exact mode takes: up to 4 distinct alphas in [0, 3] and 4
    betas per direction, any of them empty, at times a beta_plus of 1, and
    at times an alpha of 10**300."""
    omega = draw(omega_points(max_alpha=3, max_len=4))
    if draw(st.integers(0, 4)) == 0:
        omega = replace(omega, beta_plus=(F(1),) + omega.beta_plus[1:], beta_minus=())
    huge = draw(st.sampled_from([None, None, "alpha_plus", "alpha_minus"]))
    if huge:
        omega = replace(omega, **{huge: (F(10**300),) + getattr(omega, huge)[:3]})
    return omega


@settings(max_examples=150, deadline=None)
@given(wide_exact_points(), st.integers(-12, 12), st.data())
def test_exact_coefficients_equal_the_partial_fraction_route(omega, n_min, data):
    n_max = data.draw(st.integers(n_min, 12))
    assert phi_coeffs(omega, n_min, n_max).coeffs == _reference_coeffs(omega, n_min, n_max)


def test_closed_form_is_built_once_per_point_and_stays_out_of_equality():
    omega = embed((4, 2, 0, 0, -1, -1, -3))
    assert omega.closed_form is omega.closed_form
    phi_signature(omega, (1, 0, -1))
    assert "closed_form" in vars(omega)
    twin = embed((4, 2, 0, 0, -1, -1, -3))
    assert twin == omega and hash(twin) == hash(omega) and repr(twin) == repr(omega)


@settings(max_examples=150, deadline=None)
@given(
    wide_exact_points(),
    st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=3), min_size=1, max_size=10),
)
def test_minors_are_nonnegative_at_exact_points(omega, parts_lists):
    # the coefficient sequence of a boundary point is totally nonnegative
    for parts in parts_lists:
        sig = tuple(sorted(parts, reverse=True))
        assert phi_signature(omega, sig) >= 0, sig


def test_numeric_matches_exact():
    omega = embed((2, 1, 0))
    exact = phi_coeffs(omega, -2, 2)
    numeric = phi_coeffs(omega, -2, 2, mode="numeric")
    for n in range(-2, 3):
        assert abs(numeric[n] - float(exact[n])) < 1e-8


@settings(max_examples=40, deadline=None)
@given(omega_points(), st.integers(-3, 3), st.integers(0, 3))
def test_numeric_coefficients_match_exact(omega, n_min, width):
    tolerance = 1e-10
    exact = phi_coeffs(omega, n_min, n_min + width)
    numeric = phi_coeffs(omega, n_min, n_min + width, mode="numeric", tolerance=tolerance)
    for n in range(n_min, n_min + width + 1):
        assert abs(numeric[n] - float(exact[n])) < 100 * tolerance, n


@settings(max_examples=40, deadline=None)
@given(omega_points(), st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_numeric_minors_match_exact(omega, parts):
    tolerance = 1e-10
    sig = tuple(sorted(parts, reverse=True))
    numeric = phi_signature(omega, sig, mode="numeric", tolerance=tolerance)
    assert abs(numeric - float(phi_signature(omega, sig))) < 100 * tolerance


def test_phi_signature_values():
    assert phi_signature(BETA, ()) == 1
    assert phi_signature(BETA, (1, 1)) == F(1, 9)  # det [[b, 0], [1-b, b]]
    assert phi_signature(BETA, (1, 0)) == F(2, 9)  # det [[b, 0], [2/3, 1/3]] -> b(1-b)
    assert phi_signature(BETA, (3, 0)) == 0  # top row of the minor is all zeros
    assert abs(phi_signature(BETA, (1, 0), mode="numeric") - F(2, 9)) < 1e-8


def test_link_infinity_values_and_mass():
    assert link_infinity(BETA, (1, 0)) == 2 * F(2, 9)
    # K = 1 masses: beta point has finite support, alpha point a geometric tail
    assert sum(link_infinity(BETA, (k,)) for k in range(-1, 3)) == 1
    alpha_mass = sum(link_infinity(ALPHA, (k,)) for k in range(0, 40))
    assert abs(float(alpha_mass) - 1) < 1e-9


def test_embed_frozen_coordinates():
    p = embed((4, 2, 0, 0, -1, -1, -3))
    assert p.alpha_plus == (F(1, 2), F(1, 14))
    assert p.beta_plus == (F(3, 14), F(1, 14))
    assert p.alpha_minus == (F(5, 14),)
    assert p.beta_minus == (F(5, 14),)
    assert p.gamma_plus == 0 and p.gamma_minus == 0
    assert embed((0, 0)) == OmegaPoint()
    with pytest.raises(ValueError):
        embed(())


def test_embed_reads_at_most_n_columns_of_a_wide_row():
    # a part of 10**12 costs what a part of 10 does; should the columns past
    # the N-th be built, SIGALRM stops the test instead of the transpose
    # filling memory
    def too_slow(signum, frame):
        raise TimeoutError("embed builds the columns it does not read")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        p = embed((10**12, 0, 0))
        q = embed((10**12, 0, -(10**12)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert p == OmegaPoint(alpha_plus=(F(2 * 10**12 - 1, 6),), beta_plus=(F(1, 6),))
    assert q == OmegaPoint(
        alpha_plus=(F(2 * 10**12 - 1, 6),),
        beta_plus=(F(1, 6),),
        alpha_minus=(F(2 * 10**12 - 1, 6),),
        beta_minus=(F(1, 6),),
    )


def _embed_by_transpose(nu):
    """embed through the whole transpose of each diagram, one column per
    unit of its largest part."""
    n = len(nu)

    def shifted(lengths):
        return tuple(F(2 * (length - i) + 1, 2 * n) for i, length in enumerate(lengths, 1) if length >= i)

    def coords(diagram):
        transpose = [sum(1 for p in diagram if p >= i) for i in range(1, max(diagram, default=0) + 1)]
        return shifted(diagram), shifted(transpose)

    a_plus, b_plus = coords([v for v in nu if v > 0])
    a_minus, b_minus = coords(sorted((-v for v in nu if v < 0), reverse=True))
    return OmegaPoint(a_plus, b_plus, a_minus, b_minus)


@settings(max_examples=100, deadline=None)
@given(top_rows(max_n=8, bound=6))
def test_embed_equals_the_transpose_reference(nu):
    assert embed(nu) == _embed_by_transpose(nu)


def test_a_coeff_quadrature_matches_exact():
    nu = (1,) + (0,) * 7
    got = a_coeff_quadrature(nu, 1, 1, 0)
    want = float(A_coeff(DetContext(1, nu), 1, 0))
    assert abs(got - want) < 1e-8
    with pytest.raises(ValueError):
        a_coeff_quadrature((1, 0, 0), 1, 1, 1)  # needs N > K + x + 1


def _kernel_blocks():
    """(nu, K, i, x) with N > K + x + 1, over five row families at N = 3..7."""
    for n in range(3, 8):
        for nu in (
            (0,) * n,
            (n // 2,) + (0,) * (n - 1),
            tuple(range(n - 1, -1, -1)),
            (2, 1) + (0,) * (n - 3) + (-2,),
            tuple(sorted(((j * 7) % 5 - 2 for j in range(n)), reverse=True)),
        ):
            for k in range(1, n - 1):
                for i in range(1, k + 1):
                    for x in range(-3, n - k - 1):
                        yield nu, k, i, x


def test_a_coeff_quadrature_refuses_a_pole_the_circle_does_not_enclose():
    # R's pole at u = 1 - N / (i - 1/2 + s), not cancelled by a zero of R,
    # lies outside the circle (u = -5/3) or on it (u = -1)
    with pytest.raises(ValueError, match="u = -5/3"):
        a_coeff_quadrature((1, 0, 0, 0), 2, 1, 0)
    with pytest.raises(ValueError, match="u = -1$"):
        a_coeff_quadrature((0, 0, 0), 1, 1, 0)
    # x + i <= 0 leaves a pole no zero cancels, inside the circle here
    with pytest.raises(ValueError, match="x \\+ i >= 1"):
        a_coeff_quadrature((6, 5, 3, 1, 1, 1), 4, 4, -4)
    accepted = 0
    for nu, k, i, x in _kernel_blocks():
        try:
            got = a_coeff_quadrature(nu, k, i, x)
        except ValueError as err:
            assert "pole" in str(err)
            continue
        accepted += 1
        assert abs(got - float(A_coeff(DetContext(k, nu), i, x))) < 1e-8, (nu, k, i, x)
    assert accepted > 100


def test_quadrature_refuses_a_pole_whose_aliases_outlast_max_points():
    # alpha_plus is about 1e6, so Phi's pole at 1 + 1/alpha_plus sits 1e-6
    # outside the circle and its coefficients decay like (1 - 1e-6)^n: two
    # aliased means agree long before any is near phi_0 = 1/1200001
    omega = embed((3000000, 0, 0))
    assert phi_coeffs(omega, 0, 0)[0] == F(1, 1200001)
    with pytest.raises(QuadratureError, match="pole at u = 6000005/5999999"):
        phi_coeffs(omega, 0, 1, mode="numeric")
    with pytest.raises(QuadratureError, match="pole at u = 6000005/5999999"):
        uat_gap((3000000, 0, 0), (0,), mode="numeric")


@pytest.mark.parametrize("direction, pole", [("alpha_plus", "1 \\+ 1e-300"), ("alpha_minus", "1 - 1e-300")])
def test_quadrature_names_a_long_pole_by_its_distance_from_the_circle(direction, pole):
    # the exact pole is a 600-digit fraction, and the float log of its radius
    # rounds to 0, so no number of points is enough
    omega = OmegaPoint(**{direction: (F(10**300),)})
    with pytest.raises(QuadratureError) as err:
        phi_coeffs(omega, 0, 1, mode="numeric")
    assert re.fullmatch(
        f"the pole at u = {pole} is too near the unit circle: its aliases never fall below tolerance 1e-10",
        str(err.value),
    )


def test_numeric_mode_names_a_coordinate_beyond_the_float_range():
    with pytest.raises(OverflowError, match=r"alpha_plus\[0\] is too large for a float; exact mode handles it"):
        phi_coeffs(embed((10**400, 0, 0)), 0, 1, mode="numeric")
    assert uat_gap((10**400, 0, 0), (0,)) >= 0  # exact mode takes it


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
def test_quadrature_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        phi_coeffs(BETA, 0, 1, mode="numeric", tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        a_coeff_quadrature((1,) + (0,) * 7, 1, 1, 0, tolerance=tolerance)


def test_quadrature_that_does_not_settle_raises_quadrature_error():
    # 64 points give one mean and nothing to compare it with
    with pytest.raises(QuadratureError, match="did not converge"):
        phi_coeffs(BETA, 0, 1, mode="numeric", max_points=64)
    with pytest.raises(QuadratureError, match="did not converge"):
        a_coeff_quadrature((1,) + (0,) * 7, 1, 1, 0, max_points=64)


def test_uat_gap_frozen_values():
    assert uat_gap((0,) * 6, (0,)) == 0
    gaps = [uat_gap((n // 2,) + (0,) * (n - 1), (0,)) for n in (6, 10, 14)]
    assert gaps == [F(3, 136), F(5, 406), F(7, 820)]
    assert gaps[0] > gaps[1] > gaps[2]
    numeric = uat_gap((3,) + (0,) * 5, (0,), mode="numeric")
    assert abs(numeric - float(F(3, 136))) < 1e-8


def test_laurent_window_bounds():
    w = LaurentWindow(0, 1, {0: F(1), 1: F(0)}, "exact")
    assert w[0] == 1
    with pytest.raises(KeyError):
        w[2]
