"""Boundary points: coefficients, minor determinants, and the embedding."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import omega_points

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


def test_a_coeff_quadrature_matches_exact():
    nu = (1,) + (0,) * 7
    got = a_coeff_quadrature(nu, 1, 1, 0)
    want = float(A_coeff(DetContext(1, nu), 1, 0))
    assert abs(got - want) < 1e-8
    with pytest.raises(ValueError):
        a_coeff_quadrature((1, 0, 0), 1, 1, 1)  # needs N > K + x + 1


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
