import math

import numpy as np
import pytest

from fdstab import moments as M
from fdstab.params import derive_exponents
from fdstab.profiles import closed_form_moments

EX = derive_exponents(3, m=2.0 / 3.0)
MT = closed_form_moments(EX)


def test_fixed_point():
    st = M.PhaseState.make(EX, 0.0, 0.0)
    x, y = M.xy_closed_form(st, np.linspace(0, 5, 11))
    assert np.all(x == 0.0) and np.all(y == 0.0)


def test_closed_form_peak():
    # from (0, 1): X(t) = (1/m)(e^{-2t} - e^{-4t}), peak 3/8 at t = ln2/2
    st = M.PhaseState.make(EX, 0.0, 1.0)
    assert st.a == 3.0 and st.b == 2.0
    assert math.isclose(EX.a_param / (4.0 - EX.b_param), 1.0 / EX.m,
                        rel_tol=1e-14)
    x, _ = M.xy_closed_form(st, math.log(2.0) / 2.0)
    assert math.isclose(float(x), 0.375, rel_tol=1e-13)
    tt = np.linspace(0.0, 3.0, 300)
    xs, _ = M.xy_closed_form(st, tt)
    assert xs.max() <= 0.375 + 1e-12


def test_rk4_matches_closed_form():
    st = M.PhaseState.make(EX, -2.0, 1.5)
    path = M.xy_integrate(st, 10.0)
    xc, yc = M.xy_closed_form(st, path["t"])
    assert np.max(np.abs(path["x"] - xc)) < 1e-8
    assert np.max(np.abs(path["y"] - yc)) < 1e-8


def test_energy_dissipation_identity():
    # dL/dt = -2(b+4)(aY-4X)^2 along the flow
    st = M.PhaseState.make(EX, 1.0, -1.0)
    path = M.xy_integrate(st, 2.0, dt=1e-3)
    t, L = path["t"], path["energy"]
    a, b = st.a, st.b
    mid_rate = np.gradient(L, t)[1:-1]
    pred = -2.0 * (b + 4.0) * (a * path["y"] - 4.0 * path["x"]) ** 2
    err = np.max(np.abs(mid_rate - pred[1:-1])) / np.max(np.abs(pred) + 1e-30)
    assert err < 5e-3
    assert np.all(np.diff(L) <= 1e-12)


def test_state_energy_matches_path_energy():
    # one formula for L: the point-wise level equals the path's column
    # bit for bit (the phase command's path from (0, 1))
    st = M.PhaseState.make(EX, 0.0, 1.0)
    path = M.xy_integrate(st, 10.0)
    levels = [M.PhaseState.make(EX, float(x), float(y)).energy()
              for x, y in zip(path["x"], path["y"])]
    assert levels == path["energy"].tolist()


def test_region_classification():
    info = M.classify_region(EX, 0.0, 0.0)
    assert info.region == "A" and info.k_bullet == 0.0
    # the tangency abscissa is -a S_star/(2 sqrt(4+b)); relative to K_star
    # this is -2/sqrt(4+b) (the entropy/moment ratio is 4/a)
    want = -2.0 / math.sqrt(4.0 + EX.b_param)
    assert math.isclose(info.x_star / MT.second_moment, want, rel_tol=1e-12)
    assert M.classify_region(EX, -2.0, -5.0).region == "B"
    info_c = M.classify_region(EX, -6.0, -9.0).region
    assert info_c == "C"
    # region-C bound formula
    rc = M.classify_region(EX, -6.0, -9.0)
    a, b = EX.a_param, EX.b_param
    disc = (4 + b) * 36.0 - 2 * a * (-6.0) * (-9.0) + a * a * 81.0 / 4.0
    assert math.isclose(rc.k_bullet, -math.sqrt(disc / b), rel_tol=1e-12)


def test_region_rejections_name_constraint():
    with pytest.raises(ValueError, match="X >= -K_star"):
        M.classify_region(EX, -1.01 * MT.second_moment, 0.0)
    with pytest.raises(ValueError, match="Y >= -S_star"):
        M.classify_region(EX, 0.0, -1.01 * MT.entropy)
    with pytest.raises(ValueError, match="psi"):
        M.classify_region(EX, 0.0, 1.0)


def test_ellipse_tangency():
    # the special level touches Y = -S_star at X = -a S_star/(4+b)
    a, b = EX.a_param, EX.b_param
    s_star = MT.entropy
    level = a * a * b * s_star ** 2 / (4.0 + b)
    x_t = -a * s_star / (4.0 + b)
    val = (a * (-s_star) - 4.0 * x_t) ** 2 + 4.0 * b * x_t ** 2
    assert math.isclose(val, level, rel_tol=1e-12)
    # and the level is strictly above at neighbouring X on that line
    for dx in (-1e-3, 1e-3):
        x = x_t + dx
        v = (a * (-s_star) - 4.0 * x) ** 2 + 4.0 * b * x ** 2
        assert v > level


def test_region_invariance_under_flow():
    rng = np.random.default_rng(7)
    a = EX.a_param
    starts = []
    for _ in range(40):
        x0 = rng.uniform(-0.9 * MT.second_moment, 2.0)
        y0 = rng.uniform(-0.9 * MT.entropy, min(M.psi_upper(EX, x0), 1.0))
        starts.append((x0, y0))
    x0s, y0s = np.array(starts).T
    path = M.xy_integrate_batch(EX, x0s, y0s, 6.0)
    for j, (x0, y0) in enumerate(starts):
        xs, ys = path["x"][:, j], path["y"][:, j]
        assert np.all(xs >= -MT.second_moment - 1e-9)
        assert np.all(ys >= -MT.entropy - 1e-9)
        if y0 >= 0:
            assert np.all(ys >= -1e-12)
        if y0 <= 0:
            assert np.all(ys <= 1e-12)
        if x0 >= 0 and 0 <= y0 <= 4 * x0 / a:
            assert np.all(ys <= 4 * xs / a + 1e-10)
            assert np.all(xs >= -1e-12)


def test_delay_bound_branches():
    db = M.delay_bound(EX, 0.0, 0.0)
    assert db.t1 == 0.0
    assert math.isclose(db.tau_bound, MT.second_moment / 8.0, rel_tol=1e-12)
    assert db.tau_bullet is not None
    t1u = M.t1_uniform(EX)
    assert math.isclose(db.tau_bullet, t1u + MT.second_moment / 8.0,
                        rel_tol=1e-12)
    # positive entropy excess switches t1 on
    s_hi = 2.0 * EX.m * MT.second_moment
    db2 = M.delay_bound(EX, 3.0, min(M.psi_upper(EX, 3.0), 1.2 * s_hi))
    if db2.t1 > 0:
        assert db2.tau_bound > MT.second_moment / 8.0
    assert db2.tau_bullet is None


def test_c_alpha_integral_bound():
    # int_0^inf ((1 - e^{-2 alpha s}/2)^{-alpha/2} - 1) ds < 1/4 for alpha <= 2
    for alpha in (0.5, 1.0, 1.5, 2.0):
        val = M.c_alpha_integral(alpha)
        assert 0.0 < val < 0.25


def test_delay_record_validation():
    with pytest.raises(ValueError):
        M.DelayRecord(t=0.0, tau=0.0, r_factor=1.0, lam=-1.0)
