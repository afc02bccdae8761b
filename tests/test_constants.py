"""Constant chains: exact anchors, scalings and the golden regression."""

import importlib.resources
import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdstab import constants as C
from fdstab.ledger import ConstantLedger
from fdstab.logscale import ONE, logreal
from fdstab.params import derive_exponents

mp.mp.dps = 40


def test_embedding_constants():
    assert abs(C.embedding_constant(2) - 2.25675) <= 1e-5
    hp3 = float(4 / (mp.power(2, mp.mpf(2) / 3) * mp.power(mp.pi, mp.mpf(4) / 3)))
    assert abs(C.embedding_constant(3) - hp3) <= 1e-13 * hp3
    hp1 = float(mp.power(2, mp.mpf(5) / 4) * 6 / mp.pi ** 2)
    assert abs(C.embedding_constant(1, 8.0) - hp1) <= 1e-13 * hp1
    with pytest.raises(ValueError):
        C.embedding_constant(1)          # p required
    with pytest.raises(ValueError):
        C.embedding_constant(1, 3.0)     # p must exceed 4


def test_sigma_series_truncation_stability():
    s30 = C.sigma_series(3, rel_tail=1e-30)
    s35 = C.sigma_series(3, rel_tail=1e-35)
    assert abs(s30.ln_float() - s35.ln_float()) <= 1e-12 * abs(s30.ln_float())
    # larger dimensions stay finite through the log-space sum
    s20 = C.sigma_series(20)
    assert s20.log_representable


def test_sigma_series_matches_numpy_logaddexp():
    # the reference accumulates with np.logaddexp, as the series once did
    def reference(d, rel_tail=1e-40):
        q, total, j = 2.0 * d + 4.0, -math.inf, 0
        while True:
            term = j * math.log(0.75) + q * math.log((2.0 + j) * (1.0 + j))
            total = np.logaddexp(total, term)
            if term < total + math.log(rel_tail) and j > q / math.log(4.0 / 3.0):
                return float(total)
            j += 1

    for d in range(1, 21):
        assert C.sigma_series(d).ln_float().hex() == reference(d).hex()


def test_moser_chain_anchors():
    mc = C.moser_chain(3, 0.5, 2.0)
    assert mc.c2 == 2592.0
    assert mc.mu.to_float() == 4.0
    # nu stays in (0, 1) and matches 1/hbar at log-space resolution
    assert mc.nu.lnsign < 0
    assert mc.nu.lndepth == 0 and mc.hbar.lndepth == 0
    assert -mc.nu.lnmag >= -mc.hbar.lnmag * (1.0 + 1e-12)
    # vartheta = nu/(d + nu) collapses to nu/d at this scale
    assert mc.vartheta.lnmag == pytest.approx(mc.nu.lnmag, rel=1e-12)


def test_moser_chain_against_mpmath():
    # end-to-end recomputation of ln h at d = 3 with arbitrary-precision
    # arithmetic, fully independent of the tower representation
    d = 3
    K = 4 / (mp.power(2, mp.mpf(2) / 3) * mp.power(mp.pi, mp.mpf(4) / 3))
    q = 2 * d + 4
    sigma = mp.nsum(lambda j: (mp.mpf(3) / 4) ** j * ((2 + j) * (1 + j)) ** q,
                    [0, mp.inf])
    c0 = mp.power(3, mp.mpf(2) / d) \
        * mp.power(2, ((d + 2) * (3 * d * d + 18 * d + 24) + 13) / mp.mpf(2 * d)) \
        * mp.power(mp.power(2 + d, 1 + mp.mpf(4) / d ** 2)
                   / mp.power(d, 1 + mp.mpf(2) / d ** 2), (d + 1) * (d + 2)) \
        * mp.power(K, mp.mpf(2 * d + 4) / d)
    bracket = 1 + mp.power(2, d + 2) / mp.power(mp.sqrt(2) - 1, 2 * (d + 2))
    ln_h = mp.power(2, d + 4) * mp.power(3, d) * d \
        + c0 ** 3 * mp.power(2, 2 * (d + 2) + 3) * bracket * sigma
    mc = C.moser_chain(3, 0.5, 2.0)
    assert abs(mc.sigma.ln_float() - float(mp.log(sigma))) \
        <= 1e-13 * float(mp.log(sigma))
    assert abs(mc.c0.ln_float() - float(mp.log(c0))) \
        <= 1e-13 * float(mp.log(c0))
    assert abs(mc.h.ln_float() - float(ln_h)) <= 1e-12 * float(ln_h)


def test_nu_small_hbar_branches():
    # moderate hbar exercises the exact log1p branch
    assert math.isclose(C._nu_from_hbar(logreal(2.0)).to_float(), 0.5,
                        rel_tol=1e-12)
    nu = C._nu_from_hbar(logreal(4.0 / 3.0))
    assert math.isclose(nu.to_float(), 1.0, rel_tol=1e-12)


def test_kappa0_and_small_lemma_constants():
    k0 = C.bombieri_giusti_kappa0(5.0, 2.0, 2592.0, 0.5)
    # exponent max(2*2592, 8*8/(1/2)^10) = max(5184, 65536)
    assert math.isclose(k0.ln_float(), 65536.0, rel_tol=1e-12)
    assert math.isclose(C.aleksandrov_constant(1), 2.0, rel_tol=1e-14)


def test_positivity_constants_exact_anchor():
    ex = derive_exponents(3, m=2.0 / 3.0)
    _, kappa_star = C.positivity_constants(ex, C.smoothing_constant(ex))
    assert kappa_star == 96.0


def test_c_alpha():
    assert C.c_alpha_min(2.0) == 1.0
    # alpha = 1: the quotient at (x, y) = (1, 1) equals 1/3 and is optimal
    val = C.c_alpha_min(1.0)
    assert abs(val - 1.0 / 3.0) <= 2.0 * math.ulp(1.0 / 3.0)
    v125 = C.c_alpha_min(1.25)
    assert 0.0 < v125 < 1.0
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            C.c_alpha_min(bad)


_CLOSED_FORM = settings(derandomize=True, max_examples=200, deadline=None)
# alpha >= 0.01 keeps 3^{1-2/alpha} >= 3^-199 a normal float
_ALPHA = st.floats(0.01, 2.0)


def _mp_quotient(alpha, x, y):
    """(1 + x^q + y)/(1 + x + y^{1/q})^q in 40 digits, at the float exponent
    q = 2/alpha that c_alpha_min evaluates."""
    q = mp.mpf(2.0 / alpha)
    x, y = mp.mpf(x), mp.mpf(y)
    return (1 + x ** q + y) / (1 + x + y ** (1 / q)) ** q


@_CLOSED_FORM
@given(_ALPHA, st.floats(1e-6, 1e6),
       st.one_of(st.just(0.0), st.floats(1e-6, 1e6)))
def test_c_alpha_bounds_the_quotient(alpha, x, y):
    assert _mp_quotient(alpha, x, y) >= C.c_alpha_min(alpha) * (1.0 - 1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.2, 1.25, 1.5, 1.9, 2.0])
def test_c_alpha_bounds_the_quotient_on_a_log_grid(alpha):
    floor = C.c_alpha_min(alpha) * (1.0 - 1e-15)
    xs = np.logspace(-6.0, 6.0, 25)
    for x in xs:
        for y in np.concatenate([[0.0], xs]):
            assert _mp_quotient(alpha, x, y) >= floor, (x, y)


@_CLOSED_FORM
@given(_ALPHA)
def test_c_alpha_is_the_quotient_at_one_one(alpha):
    q = 2.0 / alpha
    at_one = (1.0 + 1.0 ** q + 1.0) / (1.0 + 1.0 + 1.0 ** (0.5 * alpha)) ** q
    val = C.c_alpha_min(alpha)
    assert abs(at_one - val) <= 2.0 * math.ulp(val)


@st.composite
def _threshold_inputs(draw):
    """Admissible (d, m) with eps_md and c_shift drawn over their ranges and
    kappa_star as the chain sets it (it does not depend on kappa_bar)."""
    d = draw(st.integers(1, 8))
    lo = 0.5 if d == 1 else (d - 1.0) / d
    ex = derive_exponents(d, m=lo + draw(st.floats(0.01, 0.99)) * (1.0 - lo))
    return (ex, draw(st.floats(1e-8, 0.5)), draw(st.floats(1.0, 1e12)),
            C.positivity_constants(ex, ONE)[1])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_threshold_inputs())
def test_cbar_star_bounded_part_is_the_sampled_supremum(point):
    # with K_control = 1 the eps-independent middle term is (4 alpha)^{alpha-1}
    # whatever vartheta is, so the three bounded terms decide the supremum
    ex, eps_md, c_shift, kappa_star = point
    m, al = ex.m, ex.alpha
    sup = C.cbar_star(ex, eps_md, logreal(c_shift), kappa_star, ONE,
                      logreal(0.5)).ln_float()
    worst = -math.inf
    for eps in eps_md * np.logspace(-12.0, 0.0, 1201):
        up = math.expm1((1.0 - m) * math.log1p(eps))      # (1+eps)^{1-m} - 1
        dn = -math.expm1((1.0 - m) * math.log1p(-eps))    # 1 - (1-eps)^{1-m}
        term = math.log(max(8.0 * c_shift * eps / up,
                            2.0 ** (3.0 - m) * kappa_star * eps / dn,
                            8.0 * eps / (al * dn)))
        # near eps = 0 the terms meet their limit below float64 resolution
        assert sup >= term - 4.0 * math.ulp(term), eps
        worst = max(worst, term)
    assert sup - worst <= 1e-6


def test_ghp_chain_values_and_scalings():
    ex = derive_exponents(3, m=0.75)
    chain = C.ghp_chain(ex, 1.0)
    assert math.isclose(chain.kappa_star, 2.0 ** (3 * ex.alpha + 2) * 3 ** ex.alpha,
                        rel_tol=1e-13)
    assert chain.eps_md == 0.5
    assert chain.lam0 < chain.lam1
    # epsilon scalings of the outer radii and times
    eps = np.logspace(-4, -2, 7)
    rr = [C.outer_times_radii(chain, float(e)) for e in eps]
    for key, slope_want in (("rho_under", -0.5), ("rho_over", -0.5),
                            ("T_under", -1.0), ("T_over", -1.0)):
        # T_under is a float, T_over and the radii are LogReals
        log_vals = np.array([math.log(r[key]) if key == "T_under"
                             else r[key].ln_float() for r in rr])
        slope = np.polyfit(np.log(eps), log_vals, 1)[0]
        assert abs(slope - slope_want) <= 0.05
    with pytest.raises(ValueError):
        C.outer_times_radii(chain, 0.9)
    with pytest.raises(ValueError):
        C.ghp_chain(derive_exponents(3, m=0.75), -1.0)
    with pytest.raises(ValueError):
        C.ghp_chain(derive_exponents(3, m=0.6), 1.0)  # below m_1


def test_threshold_time_structure():
    ex = derive_exponents(3, m=0.75)
    chain = C.ghp_chain(ex, 1.0)
    thr = C.threshold_time(chain, 1e-3, 1.0)
    # Monotonicity in A, G and eps.  The A/G dependence enters through the
    # factor 1 + A^{1-m} + G^{alpha/2}, which sits below the resolution of
    # the astronomically large leading term, so the representation-level
    # statement is "never smaller", with the driving factor checked as a
    # plain float.
    up_a = C.threshold_time(C.ghp_chain(ex, 4.0), 1e-3, 1.0)
    up_g = C.threshold_time(chain, 1e-3, 9.0)
    dn_e = C.threshold_time(chain, 1e-2, 1.0)
    assert not (up_a.t_star < thr.t_star)
    assert not (up_g.t_star < thr.t_star)
    assert not (thr.t_star < dn_e.t_star)
    m = ex.m
    assert 1 + 4.0 ** (1 - m) + 1 > 1 + 1 + 1          # A-factor grows
    assert 1 + 1 + 9.0 ** (ex.alpha / 2) > 1 + 1 + 1   # G-factor grows
    # T_star consistency: c_star = cbar_star lambda_bullet^{-alpha}
    want = chain.cbar_star * logreal(ex.lambda_bullet ** -ex.alpha)
    assert thr.c_star.close_to(want, rel=1e-12)
    with pytest.raises(ValueError):
        C.threshold_time(chain, 1e-3, 0.0)


def test_cbar_star_divergence_near_m_one():
    # the eps kappa_3 term alone forces cbar >= 8/(alpha(1-m))
    for m in (0.75, 0.9):
        ex = derive_exponents(3, m=m)
        cbar = C.ghp_chain(ex, 1.0).cbar_star
        floor = logreal(8.0 / (ex.alpha * (1.0 - m)))
        assert floor < cbar


def test_subcritical_stability_constants():
    ex = derive_exponents(3, m=0.75)
    stab = C.stability_constants_subcritical(C.ghp_chain(ex, 1.0), 1.0)
    assert math.isclose(stab.eta, 0.5, rel_tol=1e-12)
    assert math.isclose(stab.chi, 1.0 / 580.0, rel_tol=1e-15)
    assert stab.zeta.lnsign < 0            # zeta is (astronomically) small
    assert stab.zeta_star.lnsign < 0
    # Z(A, G) never increases in A (the divisor change sits below the
    # resolution of the leading magnitude)
    z_big_a = C.stability_constants_subcritical(C.ghp_chain(ex, 100.0), 1.0).Z
    assert not (stab.Z < z_big_a)
    with pytest.raises(ValueError):
        C.stability_constants_subcritical(
            C.ghp_chain(derive_exponents(3, m=2.0 / 3.0), 1.0), 1.0)


def _critical(d, A):
    return C.stability_constants_critical(
        C.ghp_chain(derive_exponents(d, m=(d - 1.0) / d), A))


def test_critical_stability_constants():
    cs = _critical(3, 1.0)
    assert math.isclose(cs.eta, 1.0 / 24.0, rel_tol=1e-12)
    assert cs.tau_bullet > 0
    assert math.isclose(cs.q_scale, 2.0 ** -0.5 / 5.0, rel_tol=1e-13)
    # C_star(A) never increases in A, and the dividing factor
    # 1 + A^{1/(2d)} is strictly increasing (the ratio itself saturates
    # at the representation's resolution)
    cs_big = _critical(3, 64.0)
    assert not (cs.C_star < cs_big.C_star)
    assert not (cs.F_frak_star < cs.C_star)   # dividing by 1+A^{..} >= 1
    assert 1.0 + 64.0 ** (1.0 / 6.0) > 2.0
    # m = m_1 is not admissible for d = 2, so the critical chain rejects it
    with pytest.raises(ValueError):
        C.stability_constants_critical(C.ghp_chain(derive_exponents(2, m=0.7), 1.0))
    with pytest.raises(ValueError):
        C.stability_constants_critical(C.ghp_chain(derive_exponents(3, m=0.75), 1.0))
    # the refined time bound dominates the base one by more than the delay
    chain = C.ghp_chain(derive_exponents(3, m=2.0 / 3.0), 1.0)
    lead, tau_b = C.critical_time_margin(chain, cs)
    assert lead > tau_b
    assert math.isclose(lead, 1.8360565660333492, rel_tol=1e-14)
    assert math.isclose(tau_b, 1.618422593162074, rel_tol=1e-14)


def test_ledger_regression_against_golden():
    led = C.build_ledger(3, 0.75, 0.5, 2.0, 1.0, 1.0)
    golden = ConstantLedger.from_json(importlib.resources.files("fdstab").joinpath(
        "data/golden_ledger_d3_m075.json").read_text())
    bad = led.close_to(golden, rel=1e-12)
    assert not bad, f"ledger drifted from golden values: {bad}"


def test_ledger_picks_one_regime_next_to_m_1():
    # 0.6666666666666667 and 0.6666666666666665 are the floats above and
    # below m_1 = 2/3 at d = 3, within the critical chain's 1e-12 tolerance
    # on either side: the ledger is the critical one, with the critical
    # default eps, and agrees with the ledger at m_1 itself
    at_m1 = C.build_ledger(3, 0.6666666666666666, 0.5, 2.0, 1.0, 1.0)
    assert len(at_m1.names()) == 43
    for m in (0.6666666666666667, 0.6666666666666665):
        sliver = C.build_ledger(3, m, 0.5, 2.0, 1.0, 1.0)
        assert ("eta" in sliver) != ("eta_crit" in sliver)
        assert sliver.names() == at_m1.names()
        assert sliver.close_to(at_m1, rel=1e-12) == []


def test_ledger_evaluates_one_chain(monkeypatch):
    # one GHP chain per (exponents, A), shared by the threshold time and the
    # stability constants; moser_chain runs for the pinned (lam0, lam1) and
    # once inside the chain
    calls = dict.fromkeys(("ghp_chain", "smoothing_constant", "cbar_star",
                           "moser_chain"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(C, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(C, name, counted)
    C.build_ledger(3, 0.75, 0.5, 2.0, 1.0, 1.0)
    assert calls == {"ghp_chain": 1, "smoothing_constant": 1, "cbar_star": 1,
                     "moser_chain": 2}


@pytest.mark.parametrize("d, m", [(1, 0.58), (1, 0.9), (2, 0.56), (2, 0.93),
                                  (3, 0.99), (8, 0.99)])
def test_ledger_builds_where_rho_under_overflowed_float64(d, m):
    # 1 - eps_under is astronomically small here, so rho_under only fits
    # in log form
    led = C.build_ledger(d, m, 0.5, 2.0, 1.0, 1.0)
    assert all(math.isfinite(led[name].lnmag) for name in led.names())
    assert led["rho_under_eps"].lnsign == 1


def _sweep_points():
    """(d, m) over d = 1..10: 16 points across each admissible interval
    [m_1, 1) (open at 1/2 for d = 1, 2), the near-1 end from m = 0.995 to
    1 - 1e-15, where the powers with exponents ~ 1/(1-m) leave float64
    once 1/(1-m) exceeds about 1020 and (1 -+ eps)^(1-m) rounds to 1, and
    d = 2, m = 0.505..0.525, where c_shift leaves float64."""
    pts = [(2, 0.505 + 0.005 * k) for k in range(5)]
    for d in range(1, 11):
        lo = 0.5 if d <= 2 else (d - 1.0) / d
        ks = range(1 if d <= 2 else 0, 16)
        pts += [(d, lo + (1.0 - lo) * k / 16) for k in ks]
        pts += [(d, m) for m in (0.995, 0.998, 0.9995, 0.9999, 1.0 - 1e-6,
                                 1.0 - 1e-12, 1.0 - 1e-15)]
    return pts


def test_ledger_builds_canonically_over_the_admissible_range():
    for d, m in _sweep_points():
        led = C.build_ledger(d, m, 0.5, 2.0, 1.0, 1.0)
        for name in led.names():
            x = led[name]
            # depth >= 1 only where |ln x| does not fit a float64
            assert x.lndepth == 0 or x.lnmag > math.log(sys.float_info.max), \
                (d, m, name)
            assert math.isfinite(x.lnmag), (d, m, name)


def test_ledger_builds_next_to_m_equal_one():
    # 2^(2/((1-m) alpha)), 1.5^(...) and alpha^(alpha/(2(1-m))) overflowed
    # as floats here; in log form C_under and C_over keep their definitions
    led = C.build_ledger(3, 0.9995, 0.5, 2.0, 1.0, 1.0)
    ex = derive_exponents(3, m=0.9995)
    chain = C.ghp_chain(ex, 1.0)
    e_c = 2.0 / ((1.0 - ex.m) * ex.alpha)
    assert e_c * math.log(1.5) > math.log(sys.float_info.max)
    assert math.isclose(chain.C_under.ln_float(),
                        chain.one_minus_eps_under.ln_float() - e_c * math.log(2.0),
                        rel_tol=1e-14)
    assert math.isclose(chain.C_over.ln_float(),
                        ONE.add(chain.eps_bar).ln_float() + e_c * math.log(1.5),
                        rel_tol=1e-14)
    assert led["C_under"] == chain.C_under and led["C_over"] == chain.C_over


def test_ledger_json_schema():
    led = C.build_ledger(3, 0.75, 0.5, 2.0, 1.0, 1.0)
    payload = json.loads(led.to_json())
    assert [e["name"] for e in payload] == led.names()
    for e in payload:
        assert set(e) == {"name", "log_value", "value", "formula", "log_scale"}
        if e["value"] is not None:
            assert math.isfinite(e["value"]) and e["value"] > 0
        if e["log_value"] is not None:
            assert math.isfinite(e["log_value"])
        # every entry carries a finite leveled representation
        assert math.isfinite(e["log_scale"]["lnmag"])


def test_holder_interp_constant_plain_values():
    # at nu = 1/2, p = 1, d = 3 everything is order one
    val = C.holder_lp_interp_constant(3, 0.5).to_float()
    d, nu, p = 3, 0.5, 1.0
    om = 4.0 * math.pi
    lead = 2.0 ** (((p - 1) * (d + p * nu) + d * p) / (p * (d + p * nu)))
    vol = (1.0 + d / om) ** (1 / p)
    dn = d / (p * nu)
    mid = (1.0 + dn ** (1 / p)) ** (d / (d + p * nu))
    last = (dn ** (p * nu / (d + p * nu)) + (1 / dn) ** (d / (d + p * nu))) ** (1 / p)
    assert math.isclose(val, lead * vol * mid * last, rel_tol=1e-12)
