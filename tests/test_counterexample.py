"""Escape-family behavior: exact invariants and the published limits."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fdstab import counterexample as CE
from fdstab.counterexample import counterexample_report
from fdstab.params import derive_exponents
from fdstab.profiles import barenblatt_mass, closed_form_moments

EX = derive_exponents(3, p=1.5)


@functools.cache
def _report(k):
    # a report at the default center is a pure function of k, so the
    # tests share them
    return counterexample_report(EX, k)


# (deficit, entropy, xm_norm, ratio) at the default centers k^2, as the
# full-grid quadrature computed them before the row-blocked kernel.  The
# k = 4 deficit is that of the Gauss-Legendre s panels; it equals, to the
# last bit, the deficit from a Richardson extrapolation of the all-trapezoid
# (z, s) sums on the former grid and on its 2x refinement in both axes.
PINNED = {
    4: (0.7458119467132724, 344.55163006732454,
        12918187927.794437, 1.9512846152952448),
    8: (0.5609585713206711, 2762.8397366718486,
        2124126066676817.0, 1.0847149592369099),
    16: (0.3849517913771936, 22107.48306516144,
         3.015818072199522e+20, 0.6216706743131168),
    32: (0.2538157669457979, 176863.03790704918,
         4.096462019305572e+25, 0.3597415909452143),
    64: (0.16362198511423953, 1414906.3185877982,
         5.369598189059758e+30, 0.2098223433664423),
}


@pytest.mark.parametrize("k", sorted(PINNED))
def test_pinned_battery_values(k):
    rep = _report(k)
    got = (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio)
    assert got == pytest.approx(PINNED[k], rel=1e-12)
    assert all(type(v) is float for v in got)


def test_quadrature_memory_is_blocked():
    # the k = 4 grid has 599 x 136 points.  The quadrature works on blocks
    # of z rows and the tail scan on chunks of its bands, so a warm report
    # peaks at 0.74 MB (measured), below 1.09 MiB: one full-grid array of
    # the 1049 x 136 grid that an 800-node z core gives
    z, s, _ = CE._axisym_grids(16.0)
    assert (z.size, s.size) == (599, 136)
    counterexample_report(EX, 4)
    tracemalloc.start()
    try:
        counterexample_report(EX, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1049 * 136 * 8


def _hex(rep):
    return [v.hex() for v in (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio)]


def test_moment_bookkeeping():
    # the entropy is dominated by the exact second-moment term
    rep = _report(16)
    mass = barenblatt_mass(EX)
    moment_term = (EX.p + 1.0) / (EX.p - 1.0) * (2.0 / 16) * 256.0 ** 2 * mass
    assert rep.entropy <= moment_term
    assert rep.entropy >= 0.8 * moment_term


def test_monotonicity_suite():
    reports = [_report(k) for k in (8, 16, 32)]
    ds = [r.deficit for r in reports]
    es = [r.entropy for r in reports]
    ratios = [r.ratio for r in reports]
    assert ds[0] > ds[1] > ds[2] > 0
    assert es[0] < es[1] < es[2]
    assert ratios[0] > ratios[1] > ratios[2]


def test_vanishing_ratio_slope():
    reports = [_report(k) for k in (8, 16, 32, 64)]
    slope = float(np.polyfit(np.log([r.center for r in reports]),
                             np.log([r.ratio for r in reports]), 1)[0])
    pred = -(2.0 - (EX.d + 2.0) * (1.0 - EX.m)) / (2.0 * EX.alpha)
    assert abs(slope - pred) <= 0.25 * abs(pred)


def test_overlap_and_dimension_guards():
    with pytest.raises(ValueError):
        counterexample_report(EX, 3)  # centers 9 < 12: bumps overlap
    with pytest.raises(ValueError):
        counterexample_report(EX, 1)
    with pytest.raises(ValueError):
        counterexample_report(derive_exponents(2, p=1.5), 8)


@pytest.mark.parametrize("center", [math.nan, math.inf])
def test_non_finite_center_is_rejected(center):
    # nan passes a "< 12" guard, since it compares false
    with pytest.raises(ValueError, match=f"bump center {center} is not finite"):
        counterexample_report(EX, 8, center=center)


def test_far_separation_report_is_finite():
    # at center 1e30 the corrector's powers of A would overflow float64;
    # its logs do not.  The interaction has died off, so the deficit is the
    # far-separation value, 9.41e-11 relative from the k = 8 deficit at
    # center 64 (measured)
    rep = counterexample_report(EX, 8, center=1e30)
    assert all(math.isfinite(v) for v in (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio))
    assert rep.deficit == pytest.approx(_report(8).deficit, rel=2e-10)


def test_zero_center_weight_is_finite():
    # at k = 2 the center bump's weight is 0 and its log weight -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = counterexample_report(EX, 2, center=20.0)
    assert all(math.isfinite(v) for v in (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio))


def test_tail_norm_near_p_one_raises_before_overflow():
    # r^(alpha/(1-m)) = r^401 at p = 1.01 overflows float64 on the scan's
    # radii up to 1.6 X = 160; the report refuses instead of returning nan
    with pytest.raises(OverflowError, match=r"p = 1\.01: the weight r\^401 overflows"):
        counterexample_report(derive_exponents(3, p=1.01), 8, center=100.0)
    # exponent 81 at p = 1.05 still fits
    rep = counterexample_report(derive_exponents(3, p=1.05), 8, center=100.0)
    assert math.isfinite(rep.xm_norm) and math.isfinite(rep.ratio)


def test_alternative_center_rule():
    # any centers with |x_k|^2/k -> infinity work.  The weight-driven
    # parts of the entropy and the tail norm both scale like 1/k with a
    # center factor that cancels in the ratio, so the rule-independent
    # statement is the k-slope ((d+2)(1-m)-2)/alpha; the slope against
    # the center distance is that divided by the rule's growth exponent.
    ks = (16, 32, 64)
    centers = [3.0 * k ** 1.5 for k in ks]
    reports = [counterexample_report(EX, k, center=c)
               for k, c in zip(ks, centers)]
    ds = [r.deficit for r in reports]
    es = [r.entropy for r in reports]
    assert ds[0] > ds[1] > ds[2] > 0
    assert es[0] < es[1] < es[2]
    slope_k = float(np.polyfit(np.log(ks),
                               np.log([r.ratio for r in reports]), 1)[0])
    pred_k = ((EX.d + 2.0) * (1.0 - EX.m) - 2.0) / EX.alpha
    assert abs(slope_k - pred_k) <= 0.25 * abs(pred_k)


def test_deficit_separation_independence():
    # once the bumps are far apart the deficit depends only on the weights,
    # not on the separation: the interaction corrections have died off
    rep_near = counterexample_report(EX, 8, center=64.0)
    rep_far = counterexample_report(EX, 8, center=640.0)
    assert abs(rep_near.deficit - rep_far.deficit) < 5e-3 * rep_far.deficit


def _single_bump_totals(k):
    # the exact single-bump parts of int A^m and of int |grad A^(1/2p)|^2
    mt = closed_form_moments(EX)
    c0, c1 = 1.0 - 2.0 / k, 1.0 / k
    return np.array([(c0 ** EX.m + 2.0 * c1 ** EX.m) * mt.entropy,
                     (c0 ** (1.0 / EX.p) + 2.0 * c1 ** (1.0 / EX.p)) * mt.grad_sq])


def _cancellation_free_rows(cor, b):
    # the corrector rows of z block b written so that nothing cancels: with
    # j the largest bump at each point and rho = sum_{i != j} a_i / a_j,
    # A^m - sum a_i^m = a_j^m expm1(m log1p(rho)) - sum_{i != j} a_i^m and
    # |grad A^r|^2 - sum |grad f_i|^2 = (theta_j^2 - 1)|grad f_j|^2
    # + 2 theta_j grad f_j . V + |V|^2 - sum_{i != j} |grad f_i|^2
    p, m, q = cor.p, cor.m, cor.q
    r = 1.0 / (2.0 * p)
    rows = slice(b * CE._BLOCK_ROWS, (b + 1) * CE._BLOCK_ROWS)
    dz, s = cor.dz[:, rows], cor.s
    t = 1.0 + dz ** 2 + s ** 2
    a = np.array(cor.c)[:, None, None] * t ** -q
    j = np.argmax(a, axis=0)[None]
    others = np.arange(3)[:, None, None] != j
    a_j = np.take_along_axis(a, j, 0)[0]
    log1p_rho = np.log1p(np.sum(others * a, axis=0) / a_j)
    corr_p = a_j ** m * np.expm1(m * log1p_rho) - np.sum(others * a ** m, axis=0)

    # grad f_i = -(2/(p-1)) a_i^r (dz_i, s) / t_i, theta_i = (a_i/A)^(1-r)
    scale = -2.0 / (p - 1.0) * a ** r / t
    grads = (scale * dz, scale * s)
    theta = (a / (a_j * np.exp(log1p_rho))) ** (1.0 - r)
    sq = grads[0] ** 2 + grads[1] ** 2
    gj = [np.take_along_axis(g, j, 0)[0] for g in grads]
    v = [np.sum(others * theta * g, axis=0) for g in grads]
    corr_g = (np.expm1(-2.0 * (1.0 - r) * log1p_rho) * (gj[0] ** 2 + gj[1] ** 2)
              + 2.0 * np.take_along_axis(theta, j, 0)[0] * (gj[0] * v[0] + gj[1] * v[1])
              + v[0] ** 2 + v[1] ** 2 - np.sum(others * sq, axis=0))
    return corr_p @ cor.w, corr_g @ cor.w


# (k, center) at the default centers k^2, with the ids of k alone
_DEFAULT_CENTERS = [pytest.param(k, float(k * k), id=str(k)) for k in (4, 8, 16, 32, 64)]


@pytest.mark.parametrize("k, center", _DEFAULT_CENTERS + [(2, 20.0)])
def test_block_bound_is_sound(k, center):
    # on every block the bound holds for the corrector evaluated without
    # cancellation, and for the report's own kernel, which agrees with that
    # evaluation to rounding
    cor = CE._Corrector(EX, k, center)
    bound_p, bound_g = cor.block_bounds()
    total_p, total_g = _single_bump_totals(k)
    skipped = (bound_p <= CE._SKIP_REL * total_p) & (bound_g <= CE._SKIP_REL * total_g)
    assert np.count_nonzero(skipped) == counterexample_report(EX, k, center).skipped_blocks
    cor.fill(np.arange(cor.n_blocks))
    w_z = 4.0 * math.pi * CE._trapezoid_weights(cor.z)

    for b in range(cor.n_blocks):
        rows = slice(b * CE._BLOCK_ROWS, (b + 1) * CE._BLOCK_ROWS)
        exact_p, exact_g = (w_z[rows] @ r for r in _cancellation_free_rows(cor, b))
        kernel_p, kernel_g = w_z[rows] @ cor.rows_p[rows], w_z[rows] @ cor.rows_g[rows]
        assert abs(exact_p) <= bound_p[b] and abs(kernel_p) <= bound_p[b]
        assert abs(exact_g) <= bound_g[b] and abs(kernel_g) <= bound_g[b]
        assert abs(kernel_p - exact_p) <= 1e-14 * abs(exact_p) + 1e-16 * total_p
        assert abs(kernel_g - exact_g) <= 1e-14 * abs(exact_g) + 1e-16 * total_g


@pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
def test_s_rule_integrates_odd_powers_exactly(k):
    # the s weights exclude the measure factor s, and each 8-node panel is
    # exact to degree 15, so sum w_s s^j is int_0^s_max s^j ds up to rounding;
    # a node or weight mapped to the wrong panel would show here
    _, s, w_s = CE._axisym_grids(float(k * k))
    s_max = max(k * k, 24.0)
    for j in (1, 3):
        assert float(w_s @ s ** j) == pytest.approx(s_max ** (j + 1) / (j + 1), rel=1e-14)


def _corrector_totals(k):
    # 4 pi sum_z w_z row_z of both correctors, every block filled
    cor = CE._Corrector(EX, k, float(k * k))
    cor.fill(np.arange(cor.n_blocks))
    return np.array([4.0 * math.pi * float(np.trapezoid(rows, cor.z))
                     for rows in (cor.rows_p, cor.rows_g)])


@pytest.mark.parametrize("k", [4, 8, 16])
def test_s_rule_has_converged(k, monkeypatch):
    # the corrector totals on the shipped s panels and on panels of half
    # the width agree to 1e-13 of the single-bump totals
    shipped = _corrector_totals(k)
    panels = CE._gl_panels

    def halved(edges):
        return panels(np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])))

    monkeypatch.setattr(CE, "_gl_panels", halved)
    refined = _corrector_totals(k)
    assert np.all(np.abs(shipped - refined) <= 1e-13 * _single_bump_totals(k))


@pytest.mark.parametrize("k, center", _DEFAULT_CENTERS
                         + [(k, c) for c in (12.0, 149.0, 151.0) for k in (4, 8, 16, 32, 64)])
def test_z_rule_has_converged(k, center, monkeypatch):
    # the z trapezoid is spectrally accurate: the reports on the shipped z
    # grid and on one with 4x the nodes in every segment agree bit for bit,
    # on both sides of the core/far switch at center 150
    shipped = counterexample_report(EX, k, center)
    for name in ("_Z_CORE", "_Z_NEAR", "_Z_MID", "_Z_FAR", "_Z_TAIL"):
        monkeypatch.setattr(CE, name, 4 * getattr(CE, name))
    refined = counterexample_report(EX, k, center)
    assert refined.blocks > shipped.blocks
    assert _hex(refined) == _hex(shipped)


@pytest.mark.parametrize("k", [32, 64])
def test_far_bumps_skip_most_blocks(k):
    rep = _report(k)
    assert rep.skipped_blocks >= 0.9 * rep.blocks


def _dense_shifted_masses(u, w, X, radii):
    # the cap fraction integrated over every radial node, one radius at a time
    out = []
    for r in radii:
        mu0 = (r * r - X * X - u ** 2) / (2.0 * X * np.maximum(u, 1e-300))
        out.append(float(np.trapezoid(w * np.clip(0.5 * (1.0 - mu0), 0.0, 1.0), u)))
    return np.array(out)


@pytest.mark.parametrize("X", [float(k * k) for k in (4, 8, 16, 32, 64)]
                         + [3.0 * k ** 1.5 for k in (4, 8, 16, 32, 64)] + [640.0])
def test_band_tail_scan_matches_dense_scan(X):
    u, w = CE._tail_quadrature(EX, X)
    radii = CE._tail_radii(X)
    dense = _dense_shifted_masses(u, w, X, radii)
    assert CE._tail_masses(u, w, X, radii)[1] == pytest.approx(dense, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("X", [float(k * k) for k in (4, 8, 16, 32, 64)]
                         + [3.0 * k ** 1.5 for k in (4, 8, 16, 32, 64)] + [640.0])
def test_closed_form_band_matches_dense_scan(X):
    # for r < X the band comes from two suffix sums and keeps the dense
    # scan's sum to 5.8e-15 (measured); the far end node alone weighs up
    # to 6.3e-14 of the mass there
    u, w = CE._tail_quadrature(EX, X)
    radii = CE._tail_radii(X)
    near = radii[radii < X]
    dense = _dense_shifted_masses(u, w, X, near)
    assert CE._tail_masses(u, w, X, near)[1] == pytest.approx(dense, rel=2e-14, abs=0.0)
