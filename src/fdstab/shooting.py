"""Radial ODE shooting problems with numerically determined constants.

Two self-contained boundary-value problems are solved here:

* the radial optimizer on the unit disk, -f'' - f'/r + f = f^3 with
  f'(0) = 0, shot on the initial height f(0) = a with the Neumann
  criterion f'(1) = 0 on the one-sign-change branch; the heights of the
  bracketing scan are integrated together as one stacked system, the
  root is found by a Chebyshev collocation Newton started from the two
  bracketing heights, and the profile at the root is one RK45 solve; the
  optimal interpolation constant on radial functions is
  (2 pi int_0^1 f^4 r dr)^{-1/2}, integrated by Clenshaw-Curtis on the
  collocated profile;

* the line problem -g'' + ((d-2)^2/4) g = g^{(d+2)/(d-2)}, whose even
  solution is g(s) = A sech(B s)^{2/(d-2)}; the coefficients are fixed by
  the height g(0) = (d(d-2)/4)^{(d-2)/4} and the residual of the ansatz
  is evaluated on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.integrate loads at first use, so importing fdstab skips it
from numpy.polynomial.chebyshev import chebvander

_R0 = 1e-4         # series start radius removing the coordinate singularity
_ATOL, _RTOL = 1e-12, 1e-10
_SIGN_GRID = np.linspace(_R0, 1.0, 2000)  # where sign changes are counted
_SIGN_CHUNK = 100  # grid points per dense-output evaluation
_SCAN_HI, _SCAN_STEP = 20.0, 0.25  # top and spacing of the height scan
# collocation degree, and the Newton step after which only rounding is
# left: a* and C settle to rounding from n = 40, and the step's rounding
# floor is 1e-12 at n = 40 and 1e-11 at n = 140
_CHEB_N = 40
_NEWTON_TOL, _NEWTON_MAX = 1e-10, 20
_LINE_S_MAX, _LINE_N = 12.0, 4001  # residual grid of the line problem


@dataclass(frozen=True)
class ShootResult:
    a_star: float
    constant: float
    residual: float
    sign_changes: int
    # f'(1) of the RK45 profile at a_star, which the collocated root
    # zeroes only to the RK45 tolerance
    slope_at_one: float
    # the scan that bracketed a_star: (a, f'(1), sign changes) per height
    scan: tuple[tuple[float, float, int], ...] = ()


def _disk_field(r, f, fp):
    return fp, -fp / r + f - f ** 3


def _disk_rhs(r, y):
    # one height: f and f' are numpy scalars, so f ** 3 rounds as C pow,
    # which fixes the digits of a* and the profile; numpy's vectorized
    # array power may round differently
    return list(_disk_field(r, *y))


def _stacked_disk_rhs(r, y):
    # the whole scan: y holds every height's f ahead of every height's f'
    n = y.size // 2
    out = np.empty_like(y)
    out[:n], out[n:] = _disk_field(r, y[:n], y[n:])
    return out


def _series_start(a: float) -> list[float]:
    """Two-term series start f = a + (a - a^3) r^2 / 4 at r = _R0: (f, f')."""
    return [a + (a - a ** 3) * _R0 ** 2 / 4.0, (a - a ** 3) * _R0 / 2.0]


def _integrate_disk(a: float, rtol: float = _RTOL):
    """Solve one height from the series start."""
    sol = scipy.integrate.solve_ivp(_disk_rhs, (_R0, 1.0), _series_start(a), method="RK45",
                                    rtol=rtol, atol=_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"disk ODE integration failed at a = {a}: {sol.message}")
    return sol


def _sign_changes(signs: np.ndarray) -> list[int]:
    """Sign changes along each row of sampled signs, zeros skipped."""
    counts = []
    for row in signs:
        s = row[row != 0]
        counts.append(int(np.sum(s[1:] != s[:-1])))
    return counts


def _signs_on_grid(sol, n: int) -> np.ndarray:
    """Signs of the n f rows of a dense output on _SIGN_GRID, as int8.

    The grid is evaluated a chunk at a time, so the f' rows and scipy's
    intermediate copies are never held for the whole grid.
    """
    signs = np.empty((n, _SIGN_GRID.size), dtype=np.int8)
    for lo in range(0, _SIGN_GRID.size, _SIGN_CHUNK):
        hi = lo + _SIGN_CHUNK
        np.sign(sol.sol(_SIGN_GRID[lo:hi])[:n], out=signs[:, lo:hi], casting="unsafe")
    return signs


def _disk_scan(grid: np.ndarray, rtol: float, radii: np.ndarray):
    """(a, f'(1), sign changes) for every height of the grid, and every
    height's f at the given radii (clipped to the start radius _R0).

    All heights are integrated as one stacked system, so they share one
    RK45 step sequence and one RMS error norm over the 2 N components.
    The dense output is sampled here and dropped on return.
    """
    n = len(grid)
    y0 = np.array([_series_start(a) for a in grid]).T.ravel()
    sol = scipy.integrate.solve_ivp(_stacked_disk_rhs, (_R0, 1.0), y0, method="RK45",
                                    rtol=rtol, atol=_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"stacked disk scan over a in [{grid[0]}, {grid[-1]}] "
                           f"failed: {sol.message}")
    slopes = sol.y[n:, -1]
    changes = _sign_changes(_signs_on_grid(sol, n))
    profiles = sol.sol(np.maximum(radii, _R0))[:n]
    return [(float(a), float(s), c) for a, s, c in zip(grid, slopes, changes)], profiles


def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev radii r_j = (1 + cos(pi j/n))/2, from r = 1 down to r = 0,
    and the matrix of d/dr there (Trefethen, Spectral Methods in MATLAB,
    SIAM 2000, ch. 6, ``cheb``, mapped from [-1, 1] to [0, 1])."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return 0.5 * (1.0 + x), 2.0 * (d - np.diag(d.sum(axis=1)))


def _clenshaw_curtis(n: int) -> np.ndarray:
    """Weights of int_0^1 at the radii of _cheb(n), exact on polynomials
    of degree n: int_{-1}^1 T_k = 2/(1 - k^2) for even k, 0 for odd k."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    moments = np.zeros(n + 1)
    k = np.arange(0, n + 1, 2)
    moments[k] = 2.0 / (1.0 - k * k)
    return 0.5 * np.linalg.solve(chebvander(x, n).T, moments)


def collocate_disk(f0: np.ndarray) -> tuple[float, float, int]:
    """Newton on the Chebyshev collocation of the disk problem.

    ``f0`` is a start profile at the radii of _cheb(n), n = len(f0) - 1.
    The equation is collocated as r f'' + f' - r (f - f^3) = 0, whose
    r = 0 row is f'(0) = 0; the r = 1 row is replaced by f'(1) = 0.
    Newton with dense solves stops after a step of at most _NEWTON_TOL,
    below which quadratic convergence leaves only rounding (Trefethen,
    ch. 13-14).  Returns a* = f(0), the constant from the Clenshaw-Curtis
    integral of r f^4, and the Newton steps taken; ``RuntimeError`` when
    _NEWTON_MAX steps do not converge.
    """
    n = len(f0) - 1
    r, d = _cheb(n)
    lin = r[:, None] * (d @ d) + d
    f = np.array(f0, dtype=float)
    for steps in range(1, _NEWTON_MAX + 1):
        res = lin @ f - r * (f - f ** 3)
        jac = lin - np.diag(r * (1.0 - 3.0 * f ** 2))
        res[0], jac[0] = d[0] @ f, d[0]
        step = np.linalg.solve(jac, res)
        f -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            quartic = 2.0 * math.pi * float(_clenshaw_curtis(n) @ (r * f ** 4))
            return float(f[-1]), quartic ** -0.5, steps
    raise RuntimeError(f"disk collocation at n = {n}: Newton did not converge in "
                       f"{_NEWTON_MAX} steps (last step {np.max(np.abs(step)):.2e})")


def shoot_disk_radial(scan_lo: float = 1.5, rtol: float = _RTOL) -> ShootResult:
    """Locate the one-sign-change Neumann solution on the unit disk.

    Scans the initial height for a bracket of s(a) = f'(1) restricted to
    the branch with exactly one sign change, refines the root by the
    collocation Newton from the bracket's two profiles, blended by their
    slopes, and takes the radial optimal constant from it; the scan trace
    is returned with the result.  a = 1 solves the ODE trivially (f == 1,
    no sign change) and is excluded by the scan range.
    """
    grid = np.arange(scan_lo, _SCAN_HI + 0.5 * _SCAN_STEP, _SCAN_STEP)
    trace, profiles = _disk_scan(grid, rtol, _cheb(_CHEB_N)[0])
    for j, ((a0, s0, n0), (a1, s1, n1)) in enumerate(zip(trace, trace[1:])):
        if n0 == 1 and n1 == 1 and s0 * s1 < 0.0:
            break
    else:
        lines = "\n".join(f"  a={a:.3f}  s={s:+.4e}  changes={n}" for a, s, n in trace)
        raise RuntimeError("no bracket on the one-sign-change branch; scan trace:\n" + lines)
    theta = s0 / (s0 - s1)
    a_star, constant, _ = collocate_disk((1.0 - theta) * profiles[j]
                                         + theta * profiles[j + 1])

    sol = _integrate_disk(a_star, rtol=rtol)
    r = np.linspace(_R0, 1.0, 20001)
    f, fp = sol.sol(r)
    # defect of the integrated flux identity (r f')' = r (f - f^3),
    # which avoids re-differentiating the dense output
    source = scipy.integrate.cumulative_simpson(r * (f - f ** 3), x=r, initial=0.0)
    residual = float(np.max(np.abs(r * fp - _R0 * fp[0] - source)))
    return ShootResult(a_star=a_star, constant=constant, residual=residual,
                       sign_changes=_sign_changes(_signs_on_grid(sol, 1))[0],
                       slope_at_one=float(sol.y[1][-1]), scan=tuple(trace))


@dataclass(frozen=True)
class LineSolution:
    a_coef: float
    b_coef: float
    residual: float
    first_integral_error: float


def emden_fowler_verify(d: int) -> LineSolution:
    """Check the sech ansatz for the line problem in dimension d >= 3.

    The decaying even solution is g(s) = A sech(B s)^q with the soliton
    power q = 2/(kappa - 1) = (d-2)/2 for the nonlinearity exponent
    kappa = (d+2)/(d-2).  (Some sources print the reciprocal power
    2/(d-2); the two agree only at d = 4, and only q = (d-2)/2 satisfies
    the equation for every d.)  A is the height (d(d-2)/4)^{(d-2)/4}
    fixed by the vanishing first integral, B follows from matching the
    series at s = 0, and the residual of -g'' + ((d-2)^2/4) g -
    g^{(d+2)/(d-2)} plus the first integral are evaluated on a grid.
    """
    if d < 3:
        raise ValueError("the line problem requires d >= 3")
    q = (d - 2.0) / 2.0
    g0 = (0.25 * d * (d - 2.0)) ** ((d - 2.0) / 4.0)
    a_coef = g0
    # series matching at s = 0: g''(0) = -A q B^2 and the equation there
    # reads c A + A q B^2 = A^{(d+2)/(d-2)} with c = (d-2)^2/4
    c = 0.25 * (d - 2.0) ** 2
    b_sq = (a_coef ** (4.0 / (d - 2.0)) - c) / q
    if b_sq <= 0.0:
        raise RuntimeError("height incompatible with a decaying profile")
    b_coef = math.sqrt(b_sq)

    s = np.linspace(-_LINE_S_MAX, _LINE_S_MAX, _LINE_N)
    sech = 1.0 / np.cosh(b_coef * s)
    g = a_coef * sech ** q
    th = np.tanh(b_coef * s)
    gp = -a_coef * q * b_coef * th * sech ** q
    gpp = a_coef * q * b_coef ** 2 * sech ** q * ((q + 1.0) * th ** 2 - 1.0)
    residual = float(np.max(np.abs(-gpp + c * g - g ** ((d + 2.0) / (d - 2.0)))))
    first_integral = -gp ** 2 + c * g ** 2 \
        - (d - 2.0) / d * g ** (2.0 * d / (d - 2.0))
    return LineSolution(a_coef=a_coef, b_coef=b_coef, residual=residual,
                        first_integral_error=float(np.max(np.abs(first_integral))))
