import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fdstab import shooting
from fdstab.shooting import _integrate_disk, emden_fowler_verify, shoot_disk_radial


def test_disk_constants():
    res = shoot_disk_radial()
    assert abs(res.a_star - 7.52449) <= 0.01
    assert abs(res.constant - 0.0564922) <= 5e-4
    assert res.sign_changes == 1
    assert res.residual < 1e-8
    # the refinement and the profile are serial solves, so they keep the
    # values computed before the scan was batched
    assert res.a_star == pytest.approx(7.5244908438440445, rel=1e-12)
    assert res.constant == pytest.approx(0.056492233111174815, rel=1e-12)
    assert res.residual == pytest.approx(2.3376864888291493e-09, rel=1e-12)


def test_scan_is_one_stacked_solve(monkeypatch):
    sizes = []
    solve_ivp = shooting.solve_ivp

    def counting_solve_ivp(fun, t_span, y0, **kwargs):
        sizes.append(len(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(shooting, "solve_ivp", counting_solve_ivp)
    res = shoot_disk_radial()
    # one solve for all 75 heights, then brentq's and the profile's
    assert sizes[0] == 2 * len(res.scan) == 150
    assert len(sizes) <= 10


def test_scan_failure_names_the_range(monkeypatch):
    def failing_solve_ivp(fun, t_span, y0, **kwargs):
        return SimpleNamespace(success=False, message="step size underflow")

    monkeypatch.setattr(shooting, "solve_ivp", failing_solve_ivp)
    with pytest.raises(RuntimeError, match=r"scan over a in \[1.5, 20.0\]"):
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
            for a, slope, changes in shooting._disk_scan(grid, rtol):
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
    res = shoot_disk_radial(rtol=1e-10)
    res2 = shoot_disk_radial(rtol=5e-11)
    assert abs(res.a_star - res2.a_star) < 1e-6


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
