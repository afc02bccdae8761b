import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdstab import moments as M
from fdstab.params import derive_exponents
from fdstab.profiles import closed_form_moments

EX = derive_exponents(3, m=2.0 / 3.0)
MT = closed_form_moments(EX)


def test_fixed_point():
    x, y = M.xy_closed_form(EX, 0.0, 0.0, np.linspace(0, 5, 11))
    assert np.all(x == 0.0) and np.all(y == 0.0)


def test_closed_form_peak():
    # from (0, 1): X(t) = (1/m)(e^{-2t} - e^{-4t}), peak 3/8 at t = ln2/2
    assert EX.a_param == 3.0 and EX.b_param == 2.0
    assert math.isclose(EX.a_param / (4.0 - EX.b_param), 1.0 / EX.m,
                        rel_tol=1e-14)
    x, _ = M.xy_closed_form(EX, 0.0, 1.0, math.log(2.0) / 2.0)
    assert math.isclose(float(x), 0.375, rel_tol=1e-13)
    tt = np.linspace(0.0, 3.0, 300)
    xs, _ = M.xy_closed_form(EX, 0.0, 1.0, tt)
    assert xs.max() <= 0.375 + 1e-12


def test_rk4_matches_closed_form():
    path = M.xy_integrate_batch(EX, -2.0, 1.5, 10.0)
    xc, yc = M.xy_closed_form(EX, -2.0, 1.5, path["t"])
    assert np.max(np.abs(path["x"] - xc)) < 1e-8
    assert np.max(np.abs(path["y"] - yc)) < 1e-8


def _rk4_loop(a, b, x, y, n, dt):
    """The stepping RK4 reference: n classical steps of X' = aY - 4X, Y' = -bY
    on plain floats, returning the lists of X and Y (start included)."""
    xs, ys = [x], [y]
    for _ in range(n):
        k1x, k1y = a * y - 4.0 * x, -b * y
        x2, y2 = x + 0.5 * dt * k1x, y + 0.5 * dt * k1y
        k2x, k2y = a * y2 - 4.0 * x2, -b * y2
        x3, y3 = x + 0.5 * dt * k2x, y + 0.5 * dt * k2y
        k3x, k3y = a * y3 - 4.0 * x3, -b * y3
        x4, y4 = x + dt * k3x, y + dt * k3y
        k4x, k4y = a * y4 - 4.0 * x4, -b * y4
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def test_closed_form_power_matches_stepping_loop():
    x0 = np.array([0.1, -2.0, 0.0, 1.0, 0.3])
    y0 = np.array([0.05, 1.5, 1.0, 0.0, -0.4])
    path = M.xy_integrate_batch(EX, x0, y0, 10.0)
    assert path["x"].shape == (10001, 5)
    assert np.array_equal(path["x"][0], x0) and np.array_equal(path["y"][0], y0)
    for j in range(x0.size):
        xs, ys = _rk4_loop(EX.a_param, EX.b_param, x0[j], y0[j], 10000, 1e-3)
        assert np.max(np.abs(path["x"][:, j] - xs)) < 1e-13
        assert np.max(np.abs(path["y"][:, j] - ys)) < 1e-13


def test_energy_is_the_level_of_the_returned_path():
    # formed in place a block of steps at a time, it is _energy bit for bit
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.95 * MT.second_moment, 2.0 * MT.second_moment, 100)
    y0 = rng.uniform(-0.95 * MT.entropy, 1.0, 100)
    for path in (M.xy_integrate_batch(EX, x0, y0, 10.0),
                 M.xy_integrate_batch(EX, 0.1, 0.05, 10.0)):
        assert np.array_equal(path["energy"],
                              M._energy(EX.a_param, EX.b_param, path["x"], path["y"]))


def test_batch_memory_is_its_three_outputs():
    # x, y and energy of 10 001 x 100 and a block-sized scratch (0.25 MB)
    x0, y0 = np.linspace(-0.5, 1.0, 100), np.linspace(0.5, -0.2, 100)
    M.xy_integrate_batch(EX, x0, y0, 10.0)
    tracemalloc.start()
    try:
        M.xy_integrate_batch(EX, x0, y0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10001 * 100 * 8 + 1e6


@st.composite
def _admissible_dm(draw):
    """(d, m) over the admissible range, with m also drawn within 1e-6 of 1,
    where b = 2 alpha -> 4 and the two diagonal entries of the step meet."""
    d = draw(st.integers(1, 10))
    lo = 0.5 if d <= 2 else (d - 1.0) / d
    gap = draw(st.one_of(st.floats(1e-12, 1e-6),
                         st.floats(0.0, 0.999).map(lambda u: (1.0 - u) * (1.0 - lo))))
    m = 1.0 - gap
    if not lo < m < 1.0:
        m = lo + 0.5 * (1.0 - lo)
    return derive_exponents(d, m=m)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_admissible_dm())
def test_propagator_divided_differences_match_stepping_loop(ex):
    # the columns of R^k are the loop's paths from (1, 0) and (0, 1); the
    # upper corner c D_k is the divided difference that b -> 4 makes delicate
    a, b, n, dt = ex.a_param, ex.b_param, 3000, 1e-3
    p11, p12, p22 = M._rk4_propagator(a, b, dt, n)
    x10, _ = _rk4_loop(a, b, 1.0, 0.0, n, dt)
    x01, y01 = _rk4_loop(a, b, 0.0, 1.0, n, dt)
    for got, want in ((p11, x10), (p12, x01), (p22, y01)):
        assert got[0] == want[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_energy_dissipation_identity():
    # dL/dt = -2(b+4)(aY-4X)^2 along the flow
    path = M.xy_integrate_batch(EX, 1.0, -1.0, 2.0, dt=1e-3)
    t, L = path["t"], path["energy"]
    a, b = EX.a_param, EX.b_param
    mid_rate = np.gradient(L, t)[1:-1]
    pred = -2.0 * (b + 4.0) * (a * path["y"] - 4.0 * path["x"]) ** 2
    err = np.max(np.abs(mid_rate - pred[1:-1])) / np.max(np.abs(pred) + 1e-30)
    assert err < 5e-3
    assert np.all(np.diff(L) <= 1e-12)


def test_state_energy_matches_path_energy():
    # one formula for L: the point-wise level equals the path's column
    # bit for bit (the phase command's path from (0, 1))
    path = M.xy_integrate_batch(EX, 0.0, 1.0, 10.0)
    levels = [float(M._energy(EX.a_param, EX.b_param, float(x), float(y)))
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


def c_alpha_integral(alpha):
    """int_0^infty ((1 - e^{-2 alpha s}/2)^{-alpha/2} - 1) ds by the trapezoid rule."""
    s = np.linspace(0.0, 40.0 / alpha, 400001)
    g = (1.0 - 0.5 * np.exp(-2.0 * alpha * s)) ** (-alpha / 2.0) - 1.0
    return float(np.trapezoid(g, s))


def test_c_alpha_integral_bound():
    # int_0^inf ((1 - e^{-2 alpha s}/2)^{-alpha/2} - 1) ds < 1/4 for alpha <= 2
    for alpha in (0.5, 1.0, 1.5, 2.0):
        val = c_alpha_integral(alpha)
        assert 0.0 < val < 0.25


def test_delay_record_validation():
    with pytest.raises(ValueError):
        M.DelayRecord(t=0.0, tau=0.0, lam=-1.0)
