"""Profile integrals and optimal constants against independent Gamma
arithmetic (mpmath) and the closed-form cross identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fdstab.constants import embedding_constant
from fdstab.params import derive_exponents
from fdstab.profiles import (BarenblattSpec, barenblatt, barenblatt_mass,
                             closed_form_moments, eval_barenblatt,
                             gns_optimal_constants, log_integral_inv_power,
                             sobolev_constant)

mp.mp.dps = 40


def test_mass_reference_value():
    ex = derive_exponents(3, m=2.0 / 3.0)
    mass = barenblatt_mass(ex)
    assert abs(mass - math.pi ** 2 / 4.0) <= 1e-13 * mass


def test_moment_table_d3():
    ex = derive_exponents(3, m=2.0 / 3.0)
    mt = closed_form_moments(ex)
    assert math.isclose(mt.second_moment, 3.0 * mt.mass, rel_tol=1e-13)
    assert math.isclose(mt.entropy, 4.0 * mt.mass, rel_tol=1e-13)
    # entropy and moment tie together through the phase coefficients:
    # S_star = 4 K_star / a with a = 2d(1-m)/m
    assert math.isclose(mt.entropy, 4.0 * mt.second_moment / ex.a_param,
                        rel_tol=1e-13)


def test_moment_identities_all_pairs():
    for d, m in [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8), (1, 0.6)]:
        ex = derive_exponents(d, m=m)
        mt = closed_form_moments(ex)
        assert math.isclose(mt.pow_2m, 0.5 * ex.alpha * mt.mass, rel_tol=1e-13)
        assert math.isclose(mt.second_moment_pow_2m,
                            0.5 * d * (1 - m) * mt.mass, rel_tol=1e-13)
        # consistency: mass = pow_2m + second_moment_pow_2m
        assert math.isclose(mt.mass, mt.pow_2m + mt.second_moment_pow_2m,
                            rel_tol=1e-13)


def test_moments_reject_fat_tails():
    with pytest.raises(ValueError):
        closed_form_moments(derive_exponents(3, m=0.58))  # below d/(d+2)


def test_mass_against_mpmath():
    for d, m in [(3, 0.75), (2, 0.6), (5, 0.85)]:
        ex = derive_exponents(d, m=m)
        s = 1.0 / (1.0 - m)
        hp = float(mp.pi ** (mp.mpf(d) / 2) * mp.gamma(s - mp.mpf(d) / 2)
                   / mp.gamma(s))
        assert abs(barenblatt_mass(ex) - hp) <= 1e-13 * hp


def test_sobolev_constant_highprec():
    # independent Gamma evaluation of sqrt(pi d(d-2)) (G(d/2)/G(d))^{1/d}
    for d in (3, 4, 7):
        hp = float(mp.sqrt(mp.pi * d * (d - 2))
                   * mp.power(mp.gamma(mp.mpf(d) / 2) / mp.gamma(d),
                              mp.mpf(1) / d))
        assert abs(sobolev_constant(d) - hp) <= 1e-13 * hp


def sobolev_constant_sq_duplication(d):
    """S_d^2 through the sphere-area form (d(d-2)/4)|S^d|^{2/d}."""
    log_sphere = math.log(2.0) + 0.5 * (d + 1.0) * math.log(math.pi) \
        - gammaln(0.5 * (d + 1.0))
    return 0.25 * d * (d - 2.0) * math.exp(2.0 * log_sphere / d)


def test_sobolev_duplication_identity():
    for d in range(3, 11):
        s2 = sobolev_constant(d) ** 2
        assert abs(s2 - sobolev_constant_sq_duplication(d)) <= 1e-12 * s2


# -- the Gamma ratio against mpmath over the admissible range --------------
#
# Each closed form is a sum of logs and log-Gammas, exponentiated at the
# end.  Its ln is compared with the same sum in mpmath at 200 bits, on the
# same float inputs.  The bound is K roundings (u = 2^-53) of 1 + the sum
# of the magnitudes of the terms: the terms grow like s ln s as m -> 1, so
# an absolute bound could not hold on the whole range.  K is twice the
# worst case measured over these draws and a 400-point sweep of m per d.

_U = 2.0 ** -53
_GAMMA_PROPS = settings(derandomize=True, max_examples=200, deadline=None)


def _ln_sum(terms):
    """(sum, 1 + sum of magnitudes) of mpmath terms, as floats."""
    return float(mp.fsum(terms)), float(1 + mp.fsum(abs(t) for t in terms))


def _ref_log_integral_inv_power(d, s):
    with mp.workprec(200):
        d_, s_ = mp.mpf(d), mp.mpf(s)
        return _ln_sum([d_ / 2 * mp.log(mp.pi), mp.loggamma(s_ - d_ / 2),
                        -mp.loggamma(s_)])


def _ref_log_cgns(ex):
    """ln c_gns, with theta = 1 and denom = 2 snapped as the library snaps
    them at the critical point."""
    with mp.workprec(200):
        d, p = mp.mpf(ex.d), mp.mpf(ex.p)
        if ex.is_critical:
            theta, denom = mp.mpf(1), mp.mpf(2)
        else:
            denom = d + 2 - p * (d - 2)
            theta = d * (p - 1) / (denom * p)
        s = 2 * p / (p - 1)
        return _ln_sum([theta / 2 * mp.log(4 * d * mp.pi / (p - 1)),
                        (1 - theta) / (p + 1) * mp.log(2 * (p + 1)),
                        -(d - p * (d - 4)) / (2 * p * denom) * mp.log(denom),
                        theta / d * mp.loggamma(s - d / 2),
                        -theta / d * mp.loggamma(s)])


@st.composite
def _admissible_dm(draw):
    """(d, m) over the whole admissible range: m = m_1 for d >= 3, and m up
    to the float below 1, where s = 1/(1-m) reaches 9e15."""
    d = draw(st.integers(1, 10))
    lo = 0.5 if d <= 2 else (d - 1.0) / d
    return derive_exponents(d, m=draw(st.floats(lo, 1.0, exclude_min=d <= 2,
                                                exclude_max=True)))


@st.composite
def _admissible_dp(draw):
    """(d, p) over the admissible range: p = p_star for d >= 3; for d <= 2,
    p below 2^53, where m = (p+1)/(2p) still exceeds 1/2 (at p = 2^53 it
    rounds to 1/2)."""
    d = draw(st.integers(1, 10))
    hi = d / (d - 2.0) if d >= 3 else 2.0 ** 53
    return derive_exponents(d, p=draw(st.floats(1.0, hi, exclude_min=True,
                                                exclude_max=d <= 2)))


@_GAMMA_PROPS
@given(_admissible_dm())
def test_log_integral_inv_power_matches_mpmath(ex):
    # the mass, s = 1/(1-m), and the integral of g^{3p-1} = B^{2-m},
    # s = (3p-1)/(p-1) = 1/(1-m) + 1; measured worst 7.8 u
    for s in (1.0 / (1.0 - ex.m), (3.0 * ex.p - 1.0) / (ex.p - 1.0)):
        want, scale = _ref_log_integral_inv_power(ex.d, s)
        assert abs(log_integral_inv_power(ex.d, s) - want) <= 16 * _U * scale


@_GAMMA_PROPS
@given(_admissible_dm())
def test_pow_2m_is_half_alpha_mass(ex):
    # int B^{2-m} = (alpha/2) int B by Gamma(s+1) = s Gamma(s), with
    # (s-d/2)/s = alpha/2: the identity that halves the f-side
    # Csiszar-Kullback constant.  In u of the mass's scale: measured worst
    # 8.9 u over these draws, 15.2 u over a 20 000-point sweep of m per d
    # (at d = 1, s near 2.5) and 1.9 u on m = 1 - 2^-k up to k = 52; the
    # bound is twice the worst.
    s = 1.0 / (1.0 - ex.m)
    _, scale = _ref_log_integral_inv_power(ex.d, s)
    shifted = math.log(ex.alpha / 2.0) + log_integral_inv_power(ex.d, s)
    assert abs(log_integral_inv_power(ex.d, s + 1.0) - shifted) <= 32 * _U * scale


@_GAMMA_PROPS
@given(_admissible_dp())
def test_cgns_matches_mpmath(ex):
    # measured worst 2.0 u
    want, scale = _ref_log_cgns(ex)
    assert abs(math.log(gns_optimal_constants(ex).c_gns) - want) <= 4 * _U * scale


def test_sobolev_and_embedding_constants_match_mpmath():
    # the d-only constants, at every d they take: measured worst 0.83 u
    # (S_d) and 0.69 u (K)
    for d in range(3, 11):
        with mp.workprec(200):
            d_ = mp.mpf(d)
            want_s, scale_s = _ln_sum([mp.log(mp.pi * d_ * (d_ - 2)) / 2,
                                       mp.loggamma(d_ / 2) / d_, -mp.loggamma(d_) / d_])
            want_k, scale_k = _ln_sum([mp.log(4), 2 / d_ * mp.loggamma((d_ + 1) / 2),
                                       -(2 / d_) * mp.log(2), -(1 + 1 / d_) * mp.log(mp.pi)])
        assert abs(math.log(sobolev_constant(d)) - want_s) <= 2 * _U * scale_s
        assert abs(math.log(embedding_constant(d)) - want_k) <= 2 * _U * scale_k


def test_cgns_matches_sobolev_at_critical():
    for d in (3, 4, 5):
        ex = derive_exponents(d, p=d / (d - 2.0))
        g = gns_optimal_constants(ex)
        assert g.sobolev is not None
        assert abs(g.c_gns - g.sobolev) <= 1e-12 * g.c_gns


def test_c_small_balanced_case():
    # when the two optimization exponents balance, the constant is 2
    # a = b requires 2 - d + d/p = d(p-1)/(2p); at d = 2: 2/p = (p-1)/p, p...
    # solve numerically for d = 3: 2 - 3 + 3/p = 3(p-1)/(2p) -> p = 9/5
    ex = derive_exponents(3, p=1.8)
    a = 2.0 - 3.0 + 3.0 / 1.8
    b = 3.0 * 0.8 / 3.6
    assert math.isclose(a, b, rel_tol=1e-12)
    assert math.isclose(gns_optimal_constants(ex).c_small, 2.0, rel_tol=1e-12)


def test_gns_constant_positive_chain():
    ex = derive_exponents(3, p=2.0)
    g = gns_optimal_constants(ex)
    assert g.c_gns > 0 and g.k_gns > 0 and g.c_pd > 0
    assert math.isclose(g.k_gns, g.c_pd * g.c_gns ** (2 * ex.p * ex.gamma),
                        rel_tol=1e-12)


# the verification battery's four (d, m) pairs and three pairs given by p
NORM_GRID = [derive_exponents(d, m=m) for d, m in
             [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8)]] \
    + [derive_exponents(d, p=p) for d, p in [(3, 2.0), (2, 3.0), (4, 1.5)]]


def test_g_norm_consistency():
    # ||g||_{p+1}^{p+1} = ||g||_{2p}^{2p} + int |x|^2 g^{2p}, i.e. int B^m =
    # int B + int |x|^2 B in the one closed-form table
    for ex in NORM_GRID:
        mt = closed_form_moments(ex)
        assert math.isclose(mt.entropy, mt.mass + mt.second_moment, rel_tol=1e-12)


def test_eval_barenblatt_values():
    ex = derive_exponents(3, m=2.0 / 3.0)
    assert math.isclose(float(barenblatt(ex, 0.0)), 1.0, rel_tol=1e-15)
    assert math.isclose(float(barenblatt(ex, 1.0)), 0.125, rel_tol=1e-14)
    spec = BarenblattSpec(ex)
    # stationary in self-similar scale at t=0 equals the profile scaled by
    # lambda_bullet
    v0 = eval_barenblatt(spec, 0.0, 0.0)
    lb = ex.lambda_bullet
    assert math.isclose(float(v0), lb ** 3, rel_tol=1e-13)


def test_point_source_form():
    # shifted by -1/alpha the solution takes the pure power form
    ex = derive_exponents(3, m=2.0 / 3.0)
    mass = barenblatt_mass(ex)
    spec = BarenblattSpec(ex, mass=2.0 * mass, time_shift=-1.0 / ex.alpha)
    b = ((1 - ex.m) / (2 * ex.m * ex.alpha)) ** (1 / ex.alpha)
    for t in (1.0, 1.7, 2.5):  # domain requires t >= -time_shift
        got = float(eval_barenblatt(spec, t, 0.0))
        want = 2.0 ** (2.0 / ex.alpha) * b ** 3 * t ** (-3.0 / ex.alpha)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_eval_barenblatt_domain_checks():
    ex = derive_exponents(3, m=0.75)
    spec = BarenblattSpec(ex, time_shift=-1.0 / ex.alpha)
    with pytest.raises(ValueError):
        eval_barenblatt(spec, -0.5, 1.0)
    with pytest.raises(ValueError):
        eval_barenblatt(spec, 1.0, -1.0)
    with pytest.raises(ValueError):
        BarenblattSpec(ex, time_shift=-2.0 / ex.alpha)
    with pytest.raises(ValueError):
        BarenblattSpec(ex, mass=-1.0)


def test_evaluated_profile_positive_decreasing():
    ex = derive_exponents(3, m=0.75)
    r = np.linspace(0.0, 30.0, 2001)
    for spec in (BarenblattSpec(ex), BarenblattSpec(ex, lam=1.4),
                 BarenblattSpec(ex, mass=2.0, time_shift=0.3)):
        for t in (0.0, 1.5):
            vals = np.asarray(eval_barenblatt(spec, t, r))
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) < 0.0)


def test_mass_conserved_under_selfsimilar_scaling():
    # quadrature of the time-dependent solution keeps the prescribed mass
    ex = derive_exponents(3, m=0.75)
    mass = 1.7 * barenblatt_mass(ex)
    spec = BarenblattSpec(ex, mass=mass)
    r = np.linspace(0.0, 400.0, 400001)
    om = 4.0 * math.pi
    for t in (0.0, 1.0, 4.0):
        vals = eval_barenblatt(spec, t, r)
        quad = float(np.trapezoid(vals * om * r ** 2, r))
        assert abs(quad - mass) <= 2e-4 * mass
