"""Profile integrals and optimal constants against independent Gamma
arithmetic (mpmath) and the closed-form cross identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from fdstab.params import derive_exponents
from fdstab.profiles import (BarenblattSpec, barenblatt, barenblatt_mass,
                             closed_form_moments, eval_barenblatt,
                             gns_optimal_constants, sobolev_constant)

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
