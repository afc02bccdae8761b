import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from scipy.optimize import brentq

from fdstab import shooting
from fdstab.shooting import emden_fowler_verify, shoot_disk_radial


def _scipy_rhs(r, y):
    # the disk equation written out again, so the oracle shares no code
    # with fdstab's field
    return [y[1], -y[1] / r + y[0] - y[0] ** 3]


def _scipy_solve(a, rtol=shooting._RTOL):
    """One height from the series start by scipy's RK45, the independent
    oracle of fdstab's own Dormand-Prince pair."""
    sol = scipy.integrate.solve_ivp(_scipy_rhs, (shooting._R0, 1.0), shooting._series_start(a),
                                    method="RK45", rtol=rtol, atol=shooting._ATOL,
                                    dense_output=True)
    assert sol.success
    return sol


def _one_height(a, rtol=shooting._RTOL):
    """fdstab's pair on one height (rows f, f'): (y at r = 1, accepted steps)."""
    y0 = np.array(shooting._series_start(a))[:, None]
    y, _, steps = shooting._rk45(shooting._disk_field, y0, rtol, np.ones(1), 1, f"a = {a}")
    return y[:, 0], steps


def test_disk_constants():
    res = shoot_disk_radial()
    assert abs(res.a_star - 7.52449) <= 0.01
    assert abs(res.constant - 0.0564922) <= 5e-4
    assert res.sign_changes == 1
    assert res.residual < 1e-8
    # a* and C of the collocation Newton, 1.8e-13 and -3.1e-13 relative
    # from the DOP853 reference (rtol 1e-13, adaptive quad)
    # a* = 7.5244908433865, C = 0.0564922327500806, and 1.1e-13 and
    # -2.2e-13 from the pinned values, the Newton's rounding floor for a
    # start that moved by the integrator's rounding; the residual is the
    # defect of the flux identity r f' - R0 f'(R0) = q on the sign grid,
    # with q integrated as a third row of the profile at this a*
    assert res.a_star == pytest.approx(7.5244908433870625, rel=1e-12)
    assert res.constant == pytest.approx(0.056492232750075484, rel=1e-12)
    assert res.residual == pytest.approx(1.7245502803575619e-09, rel=1e-12)
    assert abs(res.slope_at_one) < 1e-7


def test_scan_is_one_stacked_solve(monkeypatch):
    shapes = []
    rk45 = shooting._rk45

    def counting_rk45(fun, y0, *args):
        shapes.append(y0.shape)
        return rk45(fun, y0, *args)

    monkeypatch.setattr(shooting, "_rk45", counting_rk45)
    res = shoot_disk_radial()
    # one solve for all 75 heights (rows f and f'), then the profile at a*
    # with its flux row; the root is collocated from the scan's samples
    # and needs no solve of its own
    assert shapes == [(2, len(res.scan)), (3, 1)] == [(2, 75), (3, 1)]


def test_pair_matches_scipy_rk45():
    # the same tableau and step control as scipy's RK45: the same accepted
    # steps on one height, and f'(1) within 3.1e-15 measured (bound 1e-13,
    # 30x); the arithmetic differs only in BLAS summation order
    sol = _scipy_solve(7.5)
    y, steps = _one_height(7.5)
    assert steps == len(sol.t) - 1 == 148
    assert abs(y[1] - sol.y[1][-1]) < 1e-13


def test_brentq_root_matches_collocated_root():
    # brentq on the one-height slope of scipy's RK45 over the scan's
    # bracket is the collocation's independent oracle: the roots agree to
    # the RK45 tolerance (6.06e-11 relative measured)
    res = shoot_disk_radial()
    bracket = next((a0, a1) for (a0, s0, n0), (a1, s1, n1) in zip(res.scan, res.scan[1:])
                   if n0 == n1 == 1 and s0 * s1 < 0.0)
    root = brentq(lambda a: float(_scipy_solve(a).y[1][-1]), *bracket, xtol=1e-12)
    assert root == pytest.approx(res.a_star, rel=1e-9)


def test_collocation_has_converged_in_n():
    # from scipy's RK45 profile at a*, 60 points give a* and C within 1e-12
    # of the shipped 40 (measured 2.1e-14 and 2.9e-14; 48-80 points stay
    # below 5.9e-13, and at 100 the rounding of D^2 reaches 2.3e-12)
    res = shoot_disk_radial()
    r, _ = shooting._cheb(60)
    start = _scipy_solve(res.a_star).sol(np.maximum(r, shooting._R0))[0]
    a_star, constant, steps = shooting.collocate_disk(start)
    assert a_star == pytest.approx(res.a_star, rel=1e-12)
    assert constant == pytest.approx(res.constant, rel=1e-12)
    assert steps <= 3


def test_scan_failure_names_the_range(monkeypatch):
    # y' = 1 + y^2 blows up at r = R0 + pi/2 - atan(y0), first near 0.05
    # for a = 20, so the steps shrink until they underflow
    rk45 = shooting._rk45

    def blowing_up_rk45(fun, y0, *args):
        return rk45(lambda r, y: 1.0 + y * y, y0, *args)

    monkeypatch.setattr(shooting, "_rk45", blowing_up_rk45)
    with pytest.raises(RuntimeError,
                       match=r"scan over a in \[1.5, 20.0\]: step .* below 10 ulp of r"):
        shoot_disk_radial()


def test_non_finite_state_is_loud(monkeypatch):
    # a field that turns NaN past r = 1/2 in the solve at a*: the pair
    # raises at once instead of shrinking the step down to underflow
    rk45 = shooting._rk45

    def poisoned_rk45(fun, y0, *args):
        if len(y0) == 3:
            fun = lambda r, y, field=fun: field(r, y) if r < 0.5 else np.full_like(y, np.nan)
        return rk45(fun, y0, *args)

    monkeypatch.setattr(shooting, "_rk45", poisoned_rk45)
    with pytest.raises(RuntimeError, match=r"disk ODE at a = 7\.52\d*: non-finite state"):
        shoot_disk_radial()


def test_collocation_failure_is_loud(monkeypatch):
    # a Newton that has not converged raises instead of returning its iterate
    monkeypatch.setattr(shooting, "_NEWTON_MAX", 1)
    with pytest.raises(RuntimeError, match=r"n = 40: Newton did not converge in 1 steps"):
        shoot_disk_radial()


def _serial_row(a, rtol):
    """f'(1) and the sign changes of f on 2000 points, from one serial
    scipy solve."""
    sol = _scipy_solve(a, rtol=rtol)
    s = np.sign(sol.sol(np.linspace(1e-4, 1.0, 2000))[0])
    s = s[s != 0]
    return sol.y[1][-1], int(np.sum(s[1:] != s[:-1]))


def test_batched_scan_matches_serial_solves():
    # the stacked scan shares one step sequence and one error norm across
    # heights, which moves its slopes by about 1e-8 relative from serial
    # scipy solves; the sign changes must agree exactly
    serial = {}
    for rtol in (1e-10, 5e-11):
        for lo in (1.5, 1.6, 1.75):
            grid = np.arange(lo, 20.125, 0.25)  # shoot_disk_radial's default scan
            trace, _ = shooting._disk_scan(grid, rtol, np.ones(1))
            for a, slope, changes in trace:
                if (a, rtol) not in serial:
                    serial[a, rtol] = _serial_row(a, rtol)
                ref_slope, ref_changes = serial[a, rtol]
                assert changes == ref_changes
                assert slope == pytest.approx(ref_slope, rel=1e-6)


def test_shoot_peak_memory():
    # no dense output is kept: each step samples the scan's f rows at the
    # 2 041 radii (sign grid and collocation radii) as it is taken, so the
    # peak is those samples (1.22 MB) plus about 0.04 MB, 1.26 MB measured
    # (bound 1.5 MB, 19% margin)
    tracemalloc.start()
    try:
        shoot_disk_radial()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_disk_trivial_branch():
    # the constant solution: a = 1 gives f == 1 and zero slope, but no
    # sign change, so it is excluded from the shooting branch
    y, _ = _one_height(1.0)
    assert abs(y[0] - 1.0) < 1e-9
    assert abs(y[1]) < 1e-9


def test_disk_richardson_stability():
    # the integration tolerance reaches the shooting root, so the brentq
    # roots of the one-height slope at two tolerances must agree to 1e-6;
    # it reaches the collocated a* only through the Newton start, which
    # leaves the root to rounding (1.9e-13 apart, measured)
    res = shoot_disk_radial(rtol=1e-10)
    res2 = shoot_disk_radial(rtol=5e-11)
    bracket = next((a0, a1) for (a0, s0, n0), (a1, s1, n1) in zip(res.scan, res.scan[1:])
                   if n0 == n1 == 1 and s0 * s1 < 0.0)
    roots = [brentq(lambda a: float(_scipy_solve(a, rtol=rtol).y[1][-1]),
                    *bracket, xtol=1e-12) for rtol in (1e-10, 5e-11)]
    assert abs(roots[0] - roots[1]) < 1e-6
    assert abs(res.a_star - res2.a_star) < 1e-12


def test_emden_fowler_d4():
    sol = emden_fowler_verify(4)
    assert abs(sol.a_coef - math.sqrt(2.0)) < 1e-12
    assert abs(sol.b_coef - 1.0) < 1e-12
    assert sol.residual < 1e-10
    assert sol.first_integral_error < 1e-10


def test_emden_fowler_heights():
    for d in (3, 4, 5, 6):
        sol = emden_fowler_verify(d)
        g0 = (0.25 * d * (d - 2.0)) ** ((d - 2.0) / 4.0)
        assert abs(sol.a_coef - g0) <= 1e-12 * g0
        assert sol.residual < 1e-10
        assert sol.first_integral_error < 1e-10


def test_emden_fowler_rejects_low_dimension():
    with pytest.raises(ValueError):
        emden_fowler_verify(2)
