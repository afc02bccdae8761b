"""Radial ODE shooting problems with numerically determined constants.

Two self-contained boundary-value problems are solved here:

* the radial optimizer on the unit disk, -f'' - f'/r + f = f^3 with
  f'(0) = 0, shot on the initial height f(0) = a with the Neumann
  criterion f'(1) = 0 on the one-sign-change branch; the heights of the
  bracketing scan are integrated together as one stacked system, the
  root is found by a Chebyshev collocation Newton started from the two
  bracketing heights, and the profile at the root is one more solve,
  which carries the flux integral along; the optimal interpolation
  constant on radial functions is (2 pi int_0^1 f^4 r dr)^{-1/2},
  integrated by Clenshaw-Curtis on the collocated profile;

* the line problem -g'' + ((d-2)^2/4) g = g^{(d+2)/(d-2)}, whose even
  solution is g(s) = A sech(B s)^{2/(d-2)}; the coefficients are fixed by
  the height g(0) = (d(d-2)/4)^{(d-2)/4} and the residual of the ansatz
  is evaluated on a grid.

The disk solves use the Dormand-Prince 5(4) pair with its quartic dense
output (Dormand & Prince, J. Comput. Appl. Math. 6 (1980); Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, sec.
II.4-II.6), written in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

_R0 = 1e-4         # series start radius removing the coordinate singularity
_ATOL, _RTOL = 1e-12, 1e-10
_SIGN_GRID = np.linspace(_R0, 1.0, 2000)  # where sign changes are counted
_SCAN_HI, _SCAN_STEP = 20.0, 0.25  # top and spacing of the height scan
# collocation degree, and the Newton step after which only rounding is
# left: a* and C settle to rounding from n = 40, and the step's rounding
# floor is 1e-12 at n = 40 and 1e-11 at n = 140
_CHEB_N = 40
_NEWTON_TOL, _NEWTON_MAX = 1e-10, 20
_LINE_S_MAX, _LINE_N = 12.0, 4001  # residual grid of the line problem

# Dormand-Prince 5(4): nodes, stages, fifth-order weights, the error
# weights (fifth- minus fourth-order, the seventh stage being f at the
# new point) and the dense-output coefficients of x, x^2, x^3, x^4
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class ShootResult:
    a_star: float
    constant: float
    # max over _SIGN_GRID of |r f' - _R0 f'(_R0) - q|, the defect of the
    # flux identity (r f')' = r (f - f^3) along the profile at a_star
    residual: float
    sign_changes: int
    # f'(1) of the integrated profile at a_star, which the collocated root
    # zeroes only to the integration tolerance
    slope_at_one: float
    # the scan that bracketed a_star: (a, f'(1), sign changes) per height
    scan: tuple[tuple[float, float, int], ...] = ()


def _disk_field(r, y):
    """Right side for rows (f, f') of y, one column per height; a third
    row, when present, is the flux integral q with q' = r (f - f^3)."""
    f, fp = y[0], y[1]
    source = f - f ** 3
    out = np.empty_like(y)
    out[0] = fp
    out[1] = source - fp / r
    out[2:] = r * source
    return out


def _series_start(a: float) -> list[float]:
    """Two-term series start f = a + (a - a^3) r^2 / 4 at r = _R0: (f, f')."""
    return [a + (a - a ** 3) * _R0 ** 2 / 4.0, (a - a ** 3) * _R0 / 2.0]


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _first_step(fun, y, f, rtol: float) -> float:
    """Hairer's initial step for a pair with a fourth-order error estimate
    (Hairer, Norsett & Wanner, sec. II.4), from _R0 towards r = 1."""
    scale = _ATOL + rtol * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0 - _R0)
    d2 = _rms((fun(_R0 + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, 1.0 - _R0)


def _rk45(fun, y0: np.ndarray, rtol: float, radii: np.ndarray, rows: int, what: str):
    """Integrate y' = fun(r, y) from r = _R0 to r = 1 by Dormand-Prince 5(4).

    The step control is the standard one for this pair: Hairer's first
    step, an RMS error norm with the scale _ATOL + rtol max(|y|, |y_new|),
    a safety factor 0.9, step factors clamped to [0.2, 10], and no growth
    on the step after a rejection.
    The first ``rows`` rows of y are sampled at ``radii`` (in [_R0, 1],
    in any order) from each accepted step's quartic dense output as the
    step is taken, so no dense output is kept.  Returns y at r = 1, the
    samples, shaped (rows,) + y0.shape[1:] + radii.shape, and the number
    of accepted steps.  ``RuntimeError`` naming ``what`` when a step falls
    below 10 ulp of r or a trial state is not finite.
    """
    y = np.array(y0, dtype=float)
    stages = np.empty((7, y.size))
    stage = stages.reshape((7,) + y.shape)   # view: stage[s] writes stages[s]
    cut = rows * (y.size // len(y))          # sampled components, flattened
    order = np.argsort(radii)
    at = radii[order]
    samples = np.empty((cut, radii.size))
    r, f, done, steps = _R0, fun(_R0, y), 0, 0
    h = _first_step(fun, y, f, rtol)
    rejected = False
    while r < 1.0:
        if h < 10.0 * np.spacing(r):
            raise RuntimeError(f"{what}: step {h:.1e} below 10 ulp of r at r = {r!r}")
        r_new = min(r + h, 1.0)
        h = r_new - r
        stage[0] = f
        for s in range(1, 6):
            dy = (_DP_A[s, :s] @ stages[:s]).reshape(y.shape)
            stage[s] = fun(r + _DP_C[s] * h, y + h * dy)
        y_new = y + h * (_DP_B @ stages[:6]).reshape(y.shape)
        stage[6] = f_new = fun(r_new, y_new)
        scale = _ATOL + rtol * np.maximum(np.abs(y), np.abs(y_new)).ravel()
        err = _rms(h * (_DP_E @ stages) / scale)
        if not math.isfinite(err):
            raise RuntimeError(f"{what}: non-finite state on the step from r = {r!r}")
        if err >= 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
            continue
        hi = int(np.searchsorted(at, r_new, side="right"))
        if hi > done:
            x = (at[done:hi] - r) / h
            powers = np.cumprod(np.ones((4, 1)) * x, axis=0)   # x, x^2, x^3, x^4
            dense = (_DP_P.T @ stages[:, :cut]).T
            samples[:, order[done:hi]] = y.reshape(-1)[:cut, None] + h * (dense @ powers)
            done = hi
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h *= min(1.0, factor) if rejected else factor
        rejected = False
        r, y, f = r_new, y_new, f_new
        steps += 1
    return y, samples.reshape((rows,) + y.shape[1:] + radii.shape), steps


def _sign_changes(values: np.ndarray) -> list[int]:
    """Sign changes along each row of sampled values, zeros skipped."""
    counts = []
    for row in values:
        s = np.sign(row[row != 0])
        counts.append(int(np.sum(s[1:] != s[:-1])))
    return counts


def _disk_scan(grid: np.ndarray, rtol: float, radii: np.ndarray):
    """(a, f'(1), sign changes) for every height of the grid, and every
    height's f at the given radii (clipped to the start radius _R0).

    All heights are integrated as one stacked system, so they share one
    step sequence and one RMS error norm over the 2 N components.  Only
    the f rows are sampled, on _SIGN_GRID and at the radii.
    """
    y0 = np.array([_series_start(a) for a in grid]).T
    radii = np.maximum(radii, _R0)
    y, (f,), _ = _rk45(_disk_field, y0, rtol, np.concatenate([_SIGN_GRID, radii]), 1,
                       f"stacked disk scan over a in [{grid[0]}, {grid[-1]}]")
    changes = _sign_changes(f[:, :_SIGN_GRID.size])
    trace = [(float(a), float(s), c) for a, s, c in zip(grid, y[1], changes)]
    return trace, f[:, _SIGN_GRID.size:]


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

    # one more solve at a*, carrying the flux q = int_R0^r s (f - f^3) ds
    # as a third row, so the identity r f' - R0 f'(R0) = q is read off the
    # samples without differentiating or quadrature
    y0 = np.array([*_series_start(a_star), 0.0])[:, None]
    y, ((f,), (fp,), (q,)), _ = _rk45(_disk_field, y0, rtol, _SIGN_GRID, 3,
                                      f"disk ODE at a = {a_star}")
    residual = float(np.max(np.abs(_SIGN_GRID * fp - _R0 * y0[1, 0] - q)))
    return ShootResult(a_star=a_star, constant=constant, residual=residual,
                       sign_changes=_sign_changes(f[None])[0],
                       slope_at_one=float(y[1, 0]), scan=tuple(trace))


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
