"""Entropy functionals against frozen independent-quadrature oracles.

The frozen reference numbers below were produced by adaptive Gauss
quadrature (scipy.integrate.quad, abs err < 1e-10) of the closed-form
integrands, independent of the trapezoid+tail machinery under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdstab import functionals as F
from fdstab.fields import RadialField, TailModel, barenblatt_field, \
    graded_mesh, profile_tail, quadrature_mesh
from fdstab.params import derive_exponents
from fdstab.profiles import barenblatt_mass, closed_form_moments

# adaptive-quadrature oracles (see module docstring)
F_B12_D3_M23 = 0.134864738821443       # F[B_1.2], d=3, m=2/3
F_B12_D3_M34 = 0.04182696866467499     # F[B_1.2], d=3, m=3/4
I_B12_D3_M23 = 0.5394589552857713      # I[B_1.2], d=3, m=2/3
L1_B15_D3_M23 = 0.6336493664372855     # ||B_1.5 - B||_1, d=3, m=2/3

MESH = quadrature_mesh()


def aubin_talenti(ex, r):
    """Optimizer profile g(r) = (1+r^2)^(-1/(p-1)); B = g^(2p)."""
    return (1.0 + np.asarray(r, dtype=float) ** 2) ** (-1.0 / (ex.p - 1.0))


def field_from_function(ex, fn, mesh, tail_power):
    """Sample fn(r) on the mesh; fit the tail amplitude at the last node."""
    v = np.asarray(fn(mesh), dtype=float)
    return RadialField(ex, mesh, v, TailModel(1.0, tail_power).through(mesh, v))


def entropy_vs_optimizer(field, lam, mu):
    """E[f | g_{lam,mu,0}] via quadrature scalars and exact optimizer norms."""
    return F._relative_entropy(field.exponents, field.entropy_integral(),
                               field.mass(), field.second_moment(), lam, mu)


def test_entropy_zero_at_profile():
    # the sampled profile against itself: every nodal difference is 0
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH)
    assert F.relative_entropy(fld, fld) == 0.0
    assert abs(F.fisher_information(fld)) < 1e-9


def test_entropy_infinite_for_divergent_second_moment():
    # a tail r^-4.6 at d = 3: the mass and int v^m converge, the second
    # moment does not
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = field_from_function(ex, lambda rr: (1.0 + rr * rr) ** -2.3,
                              MESH, tail_power=-4.6)
    assert F.relative_entropy(fld, barenblatt_field(ex, MESH)) == math.inf


def test_entropy_rejects_a_reference_off_the_mesh():
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH, lam=1.2)
    with pytest.raises(ValueError, match="share the mesh"):
        F.relative_entropy(fld, barenblatt_field(ex, MESH * 1.5))


# -- F against its closed form over the admissible range -------------------
#
# F[B_lam] = (S*(lam^{d(1-m)/2} - 1) - m K*(lam - 1))/(m - 1), with the
# profile's moments S* = 2m M/((d+2)m - d) and K* = d(1-m) M/((d+2)m - d)
# taken in mpmath at 200 bits, since the library's Gamma ratio loses digits
# as m -> 1.  quadrature_mesh() resolves profiles of unit width; the core
# of B narrows like sqrt(1 - m), so from 1 - m < 0.1 on the core of the
# mesh narrows with it.  F is an O(M) difference divided by m - 1, and its
# second-moment tail divides by d + 2 + 2/(m - 1), so its rounding floor
# grows like u kappa M with kappa = 1/(1 - m) + 1/((d + 2)m - d).  The bound
# |F - F*| <= 5e-6 |F*| + 4 u kappa M is twice the worst measured on each
# term (2.4e-6 relative at d = 2 near m = 1/2; 1.85 u kappa M near m = 1)
# over these draws, 4 000 random ones and a sweep of m per d to the float
# below 1.  Since F* ~ (d/2)(lam - 1 - ln lam) M as m -> 1, the rounding
# term exceeds |F*| once 1 - m falls below 7e-13 (d = 1, lam = 0.95) to
# 5e-16 (d = 10, lam = 1/2): there the bound holds F to its sign at best.

_F_PROPS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _admissible_dm_lam(draw):
    """(d, m) over the whole admissible range, and a dilation lam at least
    0.05 away from 1."""
    d = draw(st.integers(1, 10))
    lo = 0.5 if d <= 2 else (d - 1.0) / d
    ex = derive_exponents(d, m=draw(st.floats(lo, 1.0, exclude_min=d <= 2,
                                              exclude_max=True)))
    return ex, draw(st.floats(0.5, 0.95) | st.floats(1.05, 2.0))


def _closed_form_free_energy(ex, lam):
    """(F[B_lam], M) in mpmath from the Gamma closed form of the moments."""
    with mp.workprec(200):
        d, m, lam = mp.mpf(ex.d), mp.mpf(ex.m), mp.mpf(lam)
        s = 1 / (1 - m)
        mass = mp.pi ** (d / 2) * mp.exp(mp.loggamma(s - d / 2) - mp.loggamma(s))
        denom = (d + 2) * m - d
        s_star, k_star = 2 * m * mass / denom, d * (1 - m) * mass / denom
        f_star = (s_star * (lam ** (d * (1 - m) / 2) - 1) - m * k_star * (lam - 1)) \
            / (m - 1)
        return float(f_star), float(mass)


@_F_PROPS
@given(_admissible_dm_lam())
def test_entropy_matches_closed_form(ex_lam):
    ex, lam = ex_lam
    d, m = ex.d, ex.m
    width = min(1.0, math.sqrt(10.0 * (1.0 - m)))
    mesh = graded_mesh(8.0 * width, 12000, 1e3, 9000)
    try:
        fld = barenblatt_field(ex, mesh, lam)
    except ValueError:
        # the field is refused only where its tail amplitude
        # lam^{1/(1-m) - d/2} overflows float64
        assert (1.0 / (1.0 - m) - d / 2.0) * math.log(lam) > 709.0
        return
    f_star, mass = _closed_form_free_energy(ex, lam)
    kappa = 1.0 / (1.0 - m) + 1.0 / ((d + 2.0) * m - d)
    f_val = F.relative_entropy(fld, barenblatt_field(ex, mesh))
    assert abs(f_val - f_star) <= 5e-6 * abs(f_star) + 4.0 * 2.0 ** -53 * kappa * mass


def test_entropy_frozen_values():
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH, lam=1.2)
    assert abs(F.relative_entropy(fld, barenblatt_field(ex, MESH)) - F_B12_D3_M23) \
        < 2e-6 * F_B12_D3_M23
    assert abs(F.fisher_information(fld) - I_B12_D3_M23) < 2e-6 * I_B12_D3_M23
    ex2 = derive_exponents(3, m=0.75)
    fld2 = barenblatt_field(ex2, MESH, lam=1.2)
    assert abs(F.relative_entropy(fld2, barenblatt_field(ex2, MESH)) - F_B12_D3_M34) \
        < 2e-6 * F_B12_D3_M34


def test_entropy_production_inequality():
    # I >= 4F on every evaluated field, 1% slack for quadrature
    for d, m, lam in [(3, 2.0 / 3.0, 1.2), (3, 0.75, 0.8), (4, 0.8, 1.5)]:
        ex = derive_exponents(d, m=m)
        fld = barenblatt_field(ex, MESH, lam=lam)
        f_val = F.relative_entropy(fld, barenblatt_field(ex, MESH))
        i_val = F.fisher_information(fld)
        assert i_val >= 4.0 * f_val * (1.0 - 0.01)


def test_quotient_approaches_flow_gap():
    # scaling perturbations: I/F -> 4*alpha as the dilation approaches 1.
    # The smaller epsilon is kept above the quadrature noise floor of F.
    ex = derive_exponents(3, m=0.75)
    ref = barenblatt_field(ex, MESH)
    gaps = []
    for eps in (3e-2, 1e-2):
        fld = barenblatt_field(ex, MESH, lam=1.0 + eps)
        q = F.fisher_information(fld) / F.relative_entropy(fld, ref)
        gaps.append(abs(q - 4.0 * ex.alpha))
    assert gaps[0] < 0.02 * 4.0 * ex.alpha
    assert gaps[1] < 0.5 * gaps[0]  # shrinks with eps


def test_deficit_identity_and_zero():
    # (p+1)/(p-1) delta[f] = I - 4F at matched mass
    ex = derive_exponents(3, p=2.0)
    fld = barenblatt_field(ex, MESH, lam=1.2)
    delta = F.deficit(fld)
    f_val = F.relative_entropy(fld, barenblatt_field(ex, MESH))
    i_val = F.fisher_information(fld)
    lhs = (ex.p + 1.0) / (ex.p - 1.0) * delta
    rhs = i_val - 4.0 * f_val
    assert abs(lhs - rhs) < 1e-6 * max(abs(rhs), 1.0)
    assert abs(F.deficit(barenblatt_field(ex, MESH))) < 1e-7


def test_report_consistency():
    ex = derive_exponents(3, m=0.75)
    fld = barenblatt_field(ex, MESH, lam=1.3)
    ref = barenblatt_field(ex, MESH)
    rep = F.entropy_report(fld, ref)
    assert math.isclose(rep.quotient * rep.free_energy, rep.fisher,
                        rel_tol=1e-12)
    assert rep.deficit >= -1e-8
    assert math.isclose(rep.rel_second_moment,
                        rep.second_moment - ref.second_moment(), rel_tol=1e-12)


def test_heisenberg_on_fields():
    # equality on the optimizer family (a + b r^2)^(-1/(p-1)), so on every
    # dilation of B (rhs/lhs - 1 reads 1.8e-8 to 1.5e-7 here)
    for d, m, lam in [(3, 2.0 / 3.0, 1.2), (3, 0.75, 1.5), (2, 0.7, 0.9)]:
        ex = derive_exponents(d, m=m)
        fld = barenblatt_field(ex, MESH, lam=lam)
        lhs, rhs = F.heisenberg_sides(fld)
        assert 0.0 <= rhs / lhs - 1.0 <= 1e-6
    # and strict off it: g^{1.1} reads 4.8e-3
    ex = derive_exponents(3, p=2.0)
    fld = field_from_function(ex, lambda r: aubin_talenti(ex, r) ** (1.1 * 2 * ex.p),
                              MESH, tail_power=1.1 * 2 / (ex.m - 1))
    lhs, rhs = F.heisenberg_sides(fld)
    assert rhs / lhs - 1.0 > 1e-3


def test_xm_norm_profile_and_compact():
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH)
    val = F.xm_norm(fld)
    # analytic limit of r^{alpha/(1-m)} * tail mass for the profile:
    # tail ~ omega r^{-(d + 2/(1-m)) + d}/... = omega/(alpha/(1-m)) at infinity
    om = 4.0 * math.pi
    limit = om / ex.xm_tail_exponent
    assert val >= limit * (1.0 - 1e-3)
    assert math.isfinite(val)
    # compact support: supremum attained inside, no tail flag
    r = MESH
    vals = np.where(r < 2.0, 1.0 - (r / 2.0) ** 2, 0.0)
    compact = RadialField(ex, r, vals, profile_tail(ex, 0.0))
    assert math.isfinite(F.xm_norm(compact))


def test_xm_norm_infinite_for_fat_tail():
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = field_from_function(ex, lambda rr: (1.0 + rr * rr) ** -2.3,
                              MESH, tail_power=-4.6)
    assert F.xm_norm(fld) == math.inf


def test_csiszar_kullback():
    ex = derive_exponents(3, m=2.0 / 3.0)
    mass = barenblatt_mass(ex)
    # constant of the bound at (3, 2/3): (4 alpha/m) M = 6 M
    assert math.isclose(4.0 * ex.alpha / ex.m, 6.0, rel_tol=1e-13)
    fld = barenblatt_field(ex, MESH, lam=1.5)
    ref = barenblatt_field(ex, MESH)
    lhs, rhs = F.csiszar_kullback_gap(fld, ref)
    assert abs(math.sqrt(lhs) - L1_B15_D3_M23) < 1e-5 * L1_B15_D3_M23
    assert rhs == pytest.approx(6.0 * mass * F.relative_entropy(fld, ref), rel=1e-12)
    assert lhs < rhs
    # the sampled profile against itself: both sides vanish exactly
    lhs0, rhs0 = F.csiszar_kullback_gap(ref, ref)
    assert lhs0 == 0.0 and rhs0 == 0.0
    # f-side variant
    lhs2, rhs2 = F.csiszar_kullback_fg_gap(fld, ref)
    assert lhs2 < rhs2


def test_csiszar_kullback_takes_the_mass_once(monkeypatch):
    # one quadrature each for the mass gate, ||v - B||_1 and the two
    # nodal differences of F[v]; the sampled profile is not measured
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH, lam=1.5)
    ref = barenblatt_field(ex, MESH)
    calls = []
    quad = RadialField.quad

    def counted(self, integrand, moment=0):
        calls.append(moment)
        return quad(self, integrand, moment)

    monkeypatch.setattr(RadialField, "quad", counted)
    F.csiszar_kullback_fg_gap(fld, ref)
    assert len(calls) == 4


def test_csiszar_kullback_mass_gate():
    ex = derive_exponents(3, m=2.0 / 3.0)
    fld = barenblatt_field(ex, MESH)
    bad = fld.with_values(fld.v * 1.01)
    with pytest.raises(ValueError):
        F.csiszar_kullback_gap(bad, fld)


def test_best_match_identity_and_scaling():
    ex = derive_exponents(3, p=2.0)
    fld = barenblatt_field(ex, MESH)   # v = g^{2p}
    bm = F.best_match(fld)
    assert abs(bm.lam - 1.0) < 1e-6 and abs(bm.mu - 1.0) < 1e-6
    assert abs(bm.entropy) < 1e-6
    # scaled optimizer: g_{lambda=2, mu=1}
    lam0 = 2.0
    def vfun(r):
        pref = lam0 ** (ex.d / (2 * ex.p))
        return pref ** (2 * ex.p) * aubin_talenti(ex, lam0 * r) ** (2 * ex.p)
    fld2 = field_from_function(ex, vfun, MESH, tail_power=2 / (ex.m - 1))
    bm2 = F.best_match(fld2)
    assert abs(bm2.lam - 2.0) < 1e-6
    assert abs(bm2.mu - 1.0) < 1e-6
    assert abs(bm2.entropy) < 1e-6


def test_best_match_is_local_minimum():
    # 5x5 grid around the optimum cannot beat it
    ex = derive_exponents(3, p=2.0)
    def vfun(r):
        g = aubin_talenti(ex, r)
        return (g * (1.0 + 0.05 * np.exp(-r * r))) ** (2 * ex.p)
    fld = field_from_function(ex, vfun, MESH, tail_power=2 / (ex.m - 1))
    bm = F.best_match(fld)
    for dl in np.linspace(-0.02, 0.02, 5):
        for dm in np.linspace(-0.02, 0.02, 5):
            trial = entropy_vs_optimizer(fld, bm.lam * (1 + dl),
                                           bm.mu * (1 + dm))
            assert trial >= bm.entropy - 1e-10


def test_best_match_rejects_zero():
    ex = derive_exponents(3, p=2.0)
    zero = RadialField(ex, MESH, np.zeros_like(MESH), profile_tail(ex, 0.0))
    with pytest.raises(ValueError):
        F.best_match(zero)


def test_normalization_map():
    ex = derive_exponents(3, p=2.0)
    # On the optimizer manifold the two scales are reciprocal:
    # sigma[g_lam] = 1/lam, hence lam[g] * sigma[g] = 1.  (This is what the
    # definition of sigma forces, and what N g = g requires; a circulating
    # display attaches an extra exponent (d - p(d-4))/(2p) to sigma, which
    # is inconsistent with that definition.)
    for lam0 in (0.5, 1.0, 2.0):
        def vfun(r, L=lam0):
            pref = L ** (ex.d / (2 * ex.p))
            return pref ** (2 * ex.p) * aubin_talenti(ex, L * r) ** (2 * ex.p)
        fld = field_from_function(ex, vfun, MESH, tail_power=2 / (ex.m - 1))
        bm = F.best_match(fld)
        nm = F.normalization_map(fld)
        assert abs(bm.lam * nm.sigma - 1.0) < 1e-6
    # identity case
    fldg = barenblatt_field(ex, MESH)
    nm = F.normalization_map(fldg)
    assert abs(nm.sigma - 1.0) < 1e-6 and abs(nm.kappa - 1.0) < 1e-6
    assert abs(nm.e_p) < 1e-6


def test_normalized_entropy_dual_paths():
    # path A: transformed norms of f; path B: quadrature of the resampled
    # normalized profile built analytically
    ex = derive_exponents(3, p=2.0)
    def ffun(r):
        return aubin_talenti(ex, r) * (1.0 + 0.1 * np.exp(-0.5 * r * r))
    def vfun(r):
        return ffun(r) ** (2 * ex.p)
    fld = field_from_function(ex, vfun, MESH, tail_power=2 / (ex.m - 1))
    nm = F.normalization_map(fld)
    sigma, kappa = nm.sigma, nm.kappa

    def v_normalized(r):
        return (sigma ** (ex.d / (2 * ex.p)) * kappa * ffun(sigma * r)) ** (2 * ex.p)
    fld_n = field_from_function(ex, v_normalized, MESH, tail_power=2 / (ex.m - 1))
    path_b = entropy_vs_optimizer(fld_n, 1.0, 1.0)
    assert abs(nm.e_p - path_b) < 1e-8 * max(1.0, abs(path_b))
    # the normalized field has the optimizer's mass
    assert abs(fld_n.mass() - barenblatt_mass(ex)) < 1e-6


def test_normalized_field_nodal_transform():
    ex = derive_exponents(3, p=2.0)
    fld = barenblatt_field(ex, MESH, lam=1.3)
    nm = F.normalization_map(fld)
    out = fld.dilated(nm.sigma, nm.sigma ** ex.d * nm.kappa ** (2.0 * ex.p))
    assert abs(out.mass() - barenblatt_mass(ex)) < 1e-6
    # the scaling identity behind e_p: E[N f | g] read off the transformed
    # norms of f equals E of the transformed field itself
    e_n = entropy_vs_optimizer(out, 1.0, 1.0)
    assert abs(nm.e_p - e_n) <= 1e-12 * max(1.0, abs(e_n))


def test_rigidity_residual():
    ex = derive_exponents(3, p=2.0)
    fldg = barenblatt_field(ex, MESH)
    t1, t2 = F.rigidity_residual(fldg)
    assert abs(t1) < 1e-6 and abs(t2) < 1e-6
    # g^{1.1} has a strictly positive residual
    def vfun(r):
        return aubin_talenti(ex, r) ** (1.1 * 2 * ex.p)
    fld = field_from_function(ex, vfun, MESH,
                              tail_power=1.1 * 2 / (ex.m - 1))
    s1, s2 = F.rigidity_residual(fld)
    assert s1 > 1e-3 and s2 > 1e-3


def test_rigidity_quadratic_scaling():
    ex = derive_exponents(3, p=2.0)
    totals = []
    for eps in (1e-2, 1e-3):
        def vfun(r, e=eps):
            f = aubin_talenti(ex, r) * (1.0 + e * np.exp(-r * r))
            return f ** (2 * ex.p)
        fld = field_from_function(ex, vfun, MESH, tail_power=2 / (ex.m - 1))
        t1, t2 = F.rigidity_residual(fld)
        totals.append(t1 + t2)
    slope = math.log(totals[0] / totals[1]) / math.log(10.0)
    assert abs(slope - 2.0) < 0.1


def test_constraint_box_on_fields():
    # K >= -K_star and -S_star <= S <= psi(K) <= m K on evaluated fields
    from fdstab.moments import psi_upper
    ex = derive_exponents(3, m=2.0 / 3.0)
    mt = closed_form_moments(ex)
    ref = barenblatt_field(ex, MESH)
    for lam in (0.6, 0.9, 1.4):
        fld = barenblatt_field(ex, MESH, lam=lam)
        rep = F.entropy_report(fld, ref)
        k, s = rep.rel_second_moment, rep.rel_entropy
        assert k >= -mt.second_moment
        assert s >= -mt.entropy * (1 + 1e-9)
        cap = psi_upper(ex, k)
        assert s <= cap + 1e-6
        assert cap <= ex.m * k + 1e-12
