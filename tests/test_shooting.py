import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from scipy.optimize import brentq

from fdstab import shooting
from fdstab.shooting import _integrate_disk, emden_fowler_verify, shoot_disk_radial


def test_disk_constants():
    res = shoot_disk_radial()
    assert abs(res.a_star - 7.52449) <= 0.01
    assert abs(res.constant - 0.0564922) <= 5e-4
    assert res.sign_changes == 1
    assert res.residual < 1e-8
    # a* and C of the collocation Newton, 7.5e-14 and -9.1e-14 relative
    # from the DOP853 reference (rtol 1e-13, adaptive quad)
    # a* = 7.5244908433865, C = 0.0564922327500806; the residual is the
    # flux defect of the RK45 profile at this a*
    assert res.a_star == pytest.approx(7.5244908433870625, rel=1e-12)
    assert res.constant == pytest.approx(0.056492232750075484, rel=1e-12)
    assert res.residual == pytest.approx(2.337663396190237e-09, rel=1e-12)
    assert abs(res.slope_at_one) < 1e-7


def test_scan_is_one_stacked_solve(monkeypatch):
    sizes = []
    solve_ivp = scipy.integrate.solve_ivp

    def counting_solve_ivp(fun, t_span, y0, **kwargs):
        sizes.append(len(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting_solve_ivp)
    res = shoot_disk_radial()
    # one solve for all 75 heights, then the profile at a*; the root is
    # collocated from the scan's samples and needs no solve of its own
    assert sizes == [2 * len(res.scan), 2] == [150, 2]


def test_brentq_root_matches_collocated_root():
    # brentq on the one-height RK45 slope over the scan's bracket is the
    # collocation's independent oracle: the roots agree to the RK45
    # tolerance (6.07e-11 relative measured)
    res = shoot_disk_radial()
    bracket = next((a0, a1) for (a0, s0, n0), (a1, s1, n1) in zip(res.scan, res.scan[1:])
                   if n0 == n1 == 1 and s0 * s1 < 0.0)
    root = brentq(lambda a: float(_integrate_disk(a).y[1][-1]), *bracket, xtol=1e-12)
    assert root == pytest.approx(res.a_star, rel=1e-9)


def test_collocation_has_converged_in_n():
    # from the RK45 profile at a*, 60 points give a* and C within 1e-12 of
    # the shipped 40 (measured 5.5e-14 and 1.4e-13; 48-80 points stay below
    # 5.9e-13, and at 100 the rounding of D^2 reaches 2.3e-12)
    res = shoot_disk_radial()
    r, _ = shooting._cheb(60)
    start = _integrate_disk(res.a_star).sol(np.maximum(r, shooting._R0))[0]
    a_star, constant, steps = shooting.collocate_disk(start)
    assert a_star == pytest.approx(res.a_star, rel=1e-12)
    assert constant == pytest.approx(res.constant, rel=1e-12)
    assert steps <= 3


def test_scan_failure_names_the_range(monkeypatch):
    def failing_solve_ivp(fun, t_span, y0, **kwargs):
        return SimpleNamespace(success=False, message="step size underflow")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failing_solve_ivp)
    with pytest.raises(RuntimeError, match=r"scan over a in \[1.5, 20.0\]"):
        shoot_disk_radial()


def test_collocation_failure_is_loud(monkeypatch):
    # a Newton that has not converged raises instead of returning its iterate
    monkeypatch.setattr(shooting, "_NEWTON_MAX", 1)
    with pytest.raises(RuntimeError, match=r"n = 40: Newton did not converge in 1 steps"):
        shoot_disk_radial()


def _serial_row(a, rtol):
    """f'(1) and the sign changes of f on 2000 points, from one serial solve."""
    sol = _integrate_disk(a, rtol=rtol)
    s = np.sign(sol.sol(np.linspace(1e-4, 1.0, 2000))[0])
    s = s[s != 0]
    return sol.y[1][-1], int(np.sum(s[1:] != s[:-1]))


def test_batched_scan_matches_serial_solves():
    # the stacked scan shares one step sequence and one error norm across
    # heights, which moves its slopes by about 1e-8 relative; the sign
    # changes must agree exactly
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
    # the sign grid is sampled in chunks and only the signs of the f rows
    # are kept: the peak is the stacked dense output plus about 0.4 MB
    # (7.0 MB when the whole grid was evaluated at once)
    tracemalloc.start()
    try:
        shoot_disk_radial()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_disk_trivial_branch():
    # the constant solution: a = 1 gives f == 1 and zero slope, but no
    # sign change, so it is excluded from the shooting branch
    sol = _integrate_disk(1.0)
    assert abs(sol.y[0][-1] - 1.0) < 1e-9
    assert abs(sol.y[1][-1]) < 1e-9


def test_disk_richardson_stability():
    # the RK45 tolerance reaches the shooting root, so the brentq roots of
    # the one-height slope at two tolerances must agree to 1e-6; it reaches
    # the collocated a* only through the Newton start, which leaves the
    # root to rounding (3.8e-13 apart, measured)
    res = shoot_disk_radial(rtol=1e-10)
    res2 = shoot_disk_radial(rtol=5e-11)
    bracket = next((a0, a1) for (a0, s0, n0), (a1, s1, n1) in zip(res.scan, res.scan[1:])
                   if n0 == n1 == 1 and s0 * s1 < 0.0)
    roots = [brentq(lambda a: float(_integrate_disk(a, rtol=rtol).y[1][-1]),
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
