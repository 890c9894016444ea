"""Closure functions, derived constants, parameter validation and the
standing hypotheses every valid parameter set meets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from filmcav.errors import ConfigurationError, NonPositiveRadiusError
from filmcav.physics import (
    PhysicalParams, compute_derived, eval_alpha, eval_alpha_prime, eval_f1,
    eval_f1_prime, eval_f2, eval_f2_prime, eval_f3, eval_f3_prime, eval_f4,
    eval_f4_prime, eval_f5, eval_f5_prime,
)

DEFAULT = PhysicalParams()


# ---------------------------------------------------------------------------
# closure values against independent literal arithmetic
# ---------------------------------------------------------------------------

def test_f1_literal_value_without_gas_pressure_surplus():
    # With P0 = p_bnd the gas term cancels the ambient at R = R0 and only
    # capillarity is left: f1(R0) = -2 sigma / (R0 rho_l).
    p = PhysicalParams(P0=DEFAULT.p_bnd)
    expected = -2.0 * p.sigma / (p.R0 * p.rho_l)
    assert eval_f1(p.R0, p) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-212.901852246, rel=1e-9)


def test_f1_is_zero_at_reference_radius_for_laplace_default():
    # The default P0 is chosen so R0 is the equilibrium radius.
    assert abs(eval_f1(DEFAULT.R0, DEFAULT)) < 1e-10 * abs(
        eval_f1(0.5 * DEFAULT.R0, DEFAULT))


def test_alpha_at_reference_radius():
    assert eval_alpha(DEFAULT.R0, DEFAULT) == pytest.approx(
        DEFAULT.alpha0 / (1.0 + DEFAULT.alpha0), rel=1e-14)


def test_alpha_limits():
    assert eval_alpha(1e-6 * DEFAULT.R0, DEFAULT) == pytest.approx(0.0, abs=1e-12)
    assert eval_alpha(1e4 * DEFAULT.R0, DEFAULT) == pytest.approx(1.0, rel=1e-9)


def test_mixture_closures_at_reference_radius():
    # f3 = mixture density / (12 mu_eff), both averaged by the gas fraction
    al = DEFAULT.alpha0 / (1.0 + DEFAULT.alpha0)
    rho_mix = al * DEFAULT.rho_g + (1 - al) * DEFAULT.rho_l
    mu_eff = al * DEFAULT.mu_g + (1 - al) * DEFAULT.mu_l
    assert eval_f3(DEFAULT.R0, DEFAULT) == pytest.approx(
        rho_mix / (12 * mu_eff), rel=1e-14)


def test_f2_literal():
    R = 2.0 * DEFAULT.R0
    expected = 4.0 * (DEFAULT.mu_l + DEFAULT.kappa_s / R) / (DEFAULT.rho_l * R ** 2)
    assert eval_f2(R, DEFAULT) == pytest.approx(expected, rel=1e-14)


def test_f4_halves_at_dilute_limit():
    p = PhysicalParams(alpha0=0.0)
    r = np.geomspace(0.1 * p.R0, 10 * p.R0, 64)
    np.testing.assert_allclose(eval_f4(r, p), 0.5, rtol=0, atol=0)
    np.testing.assert_allclose(eval_f5(r, p), 0.0, rtol=0, atol=0)
    assert eval_f3(r, p).std() == 0.0  # constant mobility without bubbles


def test_mobility_limits_and_bounds():
    # pure liquid (alpha -> 0) and pure gas (alpha -> 1) endpoints, and the
    # sampled mobility staying between them on a wide radius range
    pure_liquid = DEFAULT.rho_l / (12.0 * DEFAULT.mu_l)
    pure_gas = DEFAULT.rho_g / (12.0 * DEFAULT.mu_g)
    assert eval_f3(1e-4 * DEFAULT.R0, DEFAULT) == pytest.approx(pure_liquid, rel=1e-9)
    assert eval_f3(1e4 * DEFAULT.R0, DEFAULT) == pytest.approx(pure_gas, rel=1e-8)
    r = np.geomspace(DEFAULT.R0 / 100, 100 * DEFAULT.R0, 512)
    vals = eval_f3(r, DEFAULT)
    lo, hi = min(pure_liquid, pure_gas), max(pure_liquid, pure_gas)
    assert np.all(vals >= lo * (1 - 1e-12)) and np.all(vals <= hi * (1 + 1e-12))


def test_f5_equals_f4_prime():
    r = np.geomspace(0.2 * DEFAULT.R0, 5 * DEFAULT.R0, 256)
    np.testing.assert_array_equal(eval_f5(r, DEFAULT), eval_f4_prime(r, DEFAULT))


def test_scalar_in_scalar_out():
    out = eval_f1(DEFAULT.R0, DEFAULT)
    assert isinstance(out, float)
    arr = eval_f1(np.full((3, 2), DEFAULT.R0), DEFAULT)
    assert arr.shape == (3, 2)


# ---------------------------------------------------------------------------
# analytic derivatives against central finite differences
# ---------------------------------------------------------------------------

PAIRS = [
    (eval_f1, eval_f1_prime),
    (eval_f2, eval_f2_prime),
    (eval_f3, eval_f3_prime),
    (eval_f4, eval_f4_prime),
    (eval_f5, eval_f5_prime),
    (eval_alpha, eval_alpha_prime),
]


@pytest.mark.parametrize("fn,dfn", PAIRS, ids=lambda f: f.__name__)
def test_derivatives_match_finite_differences(fn, dfn):
    rng = np.random.default_rng(1234)
    R = DEFAULT.R0 * np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=100))
    hr = 1e-6 * R
    fd = (fn(R + hr, DEFAULT) - fn(R - hr, DEFAULT)) / (2.0 * hr)
    exact = dfn(R, DEFAULT)
    scale = np.max(np.abs(exact))
    np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-6 * scale)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_critical_radius_closed_form():
    # f1' vanishes where gas decompression and capillarity balance:
    # R_crit/R0 = (3 k P0 R0 / (2 sigma))^(1/(3k-1)).
    c = compute_derived(DEFAULT)
    n = 3.0 * DEFAULT.k_poly
    expected = DEFAULT.R0 * (n * DEFAULT.P0 * DEFAULT.R0
                             / (2.0 * DEFAULT.sigma)) ** (1.0 / (n - 1.0))
    assert c.R_crit == pytest.approx(expected, rel=1e-10)


def test_critical_radius_hat_in_expected_band():
    c = compute_derived(DEFAULT)
    assert 1.7 <= c.R_crit / DEFAULT.R0 <= 1.9


def test_equilibrium_radius_against_brentq():
    for P0 in (DEFAULT.P0, 1.15 * DEFAULT.P0, 3e5):
        p = PhysicalParams(P0=P0)
        c = compute_derived(p)
        root = brentq(lambda r: eval_f1(r, p), 1e-3 * p.R0, c.R_crit,
                      xtol=1e-300, rtol=1e-13)
        assert c.R_bar == pytest.approx(root, rel=1e-10)
        assert abs(eval_f1(c.R_bar, p)) <= 1e-8 * abs(eval_f1(0.5 * c.R_bar, p))


def test_equilibrium_radius_is_reference_radius_for_laplace_default():
    c = compute_derived(DEFAULT)
    assert c.R_bar == pytest.approx(DEFAULT.R0, rel=1e-10)


def test_cavitation_pressure_is_f1_minimum():
    c = compute_derived(DEFAULT)
    assert c.p_cav == pytest.approx(eval_f1(c.R_crit, DEFAULT), rel=1e-14)
    r = np.geomspace(0.05 * DEFAULT.R0, 20 * DEFAULT.R0, 4096)
    assert c.p_cav <= eval_f1(r, DEFAULT).min() + 1e-9 * abs(c.p_cav)


def test_frozen_reference_constants():
    # Regression pins for the default parameter set (independent evaluations
    # of the closed forms, frozen at package creation).
    c = compute_derived(DEFAULT)
    assert c.R_crit / DEFAULT.R0 == pytest.approx(1.7983766, rel=1e-7)
    assert c.p_cav == pytest.approx(-208.84607, rel=1e-7)
    assert c.b1 == pytest.approx(7.958209e15, rel=1e-6)
    assert c.b2 == pytest.approx(6.443246e12, rel=1e-6)
    assert c.b3 == pytest.approx(10022.0930, rel=1e-7)
    assert c.b5 == pytest.approx(321615.018, rel=1e-7)
    assert c.b_r == pytest.approx(2597402.6, rel=1e-7)
    assert c.b1 / c.b2 == pytest.approx(1235.12427, rel=1e-7)
    assert c.R_bar * c.b3 * c.b2 == pytest.approx(2.48613e10, rel=1e-5)


def test_constant_set_internal_consistency():
    c = compute_derived(DEFAULT)
    # one closure supplies both couplings
    assert c.b5 == -eval_f4_prime(c.R_bar, DEFAULT)
    assert c.b1 == pytest.approx(-eval_f1_prime(c.R_bar, DEFAULT) / c.R_bar,
                                 rel=1e-12)


def test_derived_constants_all_positive():
    c = compute_derived(DEFAULT)
    for name in ("b1", "b2", "b3", "b5", "b_r"):
        assert getattr(c, name) > 0.0, name


# ---------------------------------------------------------------------------
# hypotheses and validation
# ---------------------------------------------------------------------------

def test_hypotheses_hold_below_critical_radius():
    c = compute_derived(DEFAULT)
    r = np.geomspace(0.3 * DEFAULT.R0, 0.999 * c.R_crit, 512)
    assert np.all(eval_f1_prime(r, DEFAULT) < 0.0)
    assert np.all(eval_f2(r, DEFAULT) > 0.0)
    assert np.all(eval_f3(r, DEFAULT) > 0.0)
    assert np.all(eval_f4(r, DEFAULT) > 0.0)
    assert np.all(eval_f5(r, DEFAULT) <= 0.0)


def test_monotone_response_fails_past_critical_radius():
    c = compute_derived(DEFAULT)
    r = np.geomspace(0.3 * DEFAULT.R0, 3.0 * c.R_crit, 512)
    violating = r[eval_f1_prime(r, DEFAULT) >= 0.0]
    assert violating.size > 0
    assert violating[0] >= 0.99 * c.R_crit


#: valid parameter sets spanning the desk and gentle regimes; the gas
#: density and the reference gas pressure are drawn relative to the liquid
#: density and the ambient pressure, up to equal densities
VALID_PARAMS = st.builds(
    lambda rho_l, gas_ratio, p_bnd, gas_excess, **kw: PhysicalParams(
        rho_l=rho_l, rho_g=gas_ratio * rho_l, p_bnd=p_bnd,
        P0=p_bnd * gas_excess, **kw),
    rho_l=st.floats(500.0, 2000.0), gas_ratio=st.floats(1e-4, 1.0),
    p_bnd=st.floats(500.0, 2e5), gas_excess=st.floats(1.01, 3.0),
    mu_l=st.floats(1e-3, 5.0), mu_g=st.floats(1e-5, 0.1),
    kappa_s=st.floats(0.0, 0.05), k_poly=st.sampled_from([1.0, 1.4]),
    sigma=st.floats(1e-2, 3.0), R0=st.floats(1e-7, 0.2),
    alpha0=st.floats(0.0, 0.4))


@settings(max_examples=100)
@given(params=VALID_PARAMS)
def test_standing_hypotheses_hold_below_critical_radius(params):
    # f1' < 0, f2, f3, f4 > 0 and f5 <= 0 on (0, R_crit), and the
    # monotone response ends at R_crit
    c = compute_derived(params)
    r = np.geomspace(1e-3 * params.R0, 0.999 * c.R_crit, 512)
    assert np.all(eval_f1_prime(r, params) < 0.0)
    assert np.all(eval_f2(r, params) > 0.0)
    assert np.all(eval_f3(r, params) > 0.0)
    assert np.all(eval_f4(r, params) > 0.0)
    assert np.all(eval_f5(r, params) <= 0.0)
    assert eval_f1_prime(1.001 * c.R_crit, params) > 0.0


@pytest.mark.parametrize("kwargs", [
    {"rho_l": -1.0},
    {"mu_l": 0.0},
    {"alpha0": 1.0},
    {"alpha0": -0.1},
    {"ecc": 1.0},
    {"k_poly": 1.2},
    {"kappa_s": -1e-9},
    {"omega": np.nan},
    {"rho_g": 1000.0},
    {"h0": np.inf},
    {"rho_l": np.inf, "rho_g": 1.0},
])
def test_parameter_validation(kwargs):
    with pytest.raises(ConfigurationError):
        PhysicalParams(**kwargs)


def test_equal_densities_are_valid_and_decouple_the_squeeze():
    p = PhysicalParams(rho_g=DEFAULT.rho_l)
    r = np.geomspace(0.3 * p.R0, 3.0 * p.R0, 64)
    np.testing.assert_array_equal(eval_f5(r, p), 0.0)


def test_nonpositive_radius_rejected():
    with pytest.raises(NonPositiveRadiusError):
        eval_f1(0.0, DEFAULT)
    with pytest.raises(NonPositiveRadiusError):
        eval_f2(np.array([1e-7, -1e-7]), DEFAULT)
    with pytest.raises(NonPositiveRadiusError):
        eval_f3(np.nan, DEFAULT)
