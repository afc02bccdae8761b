"""Second-moment phase plane: vector field, closed form, regions, delay.

The pair (X, Y) = (relative second moment, relative entropy integral)
obeys the linear comparison system

    X' = a Y - 4 X,   Y' = -b Y,     a = 2d(1-m)/m,  b = 2 alpha,

whose solution is explicit.  The admissible states live in the box
X >= -K_star, Y >= -S_star intersected with Y <= psi(X) <= m X, and the
classification into regions A/B/C determines the uniform lower bound
K_bullet used by the delay estimates.

The grouped closed-form display in the source material pairs a 1/(4m)
coefficient with (3 e^{-4t} + e^{-2 alpha t}); direct integration of the
system gives a/(4-b) = 1/m, which is what this module implements, with
the numerical integrator checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ExponentSet
from .profiles import closed_form_moments

# numbers per row block of a batch of phase paths (256 KB per array)
_PHASE_BLOCK = 1 << 15


def _energy(a: float, b: float, x, y, out=None, scratch=None):
    """Lyapunov level L = (aY - 4X)^2 + 4 b X^2 of scalars or arrays.

    Formed in ``out`` when given, with ``scratch`` (shaped like x) as its
    one temporary; the squares are written x*x, so that scalars and arrays
    round alike.
    """
    e = np.multiply(a, y, out=out)
    e -= np.multiply(4.0, x, out=scratch)
    e *= e
    s = np.multiply(x, x, out=scratch)
    s *= 4.0 * b
    e += s
    return e


@dataclass(frozen=True)
class DelayRecord:
    """Delay bookkeeping along a rescaled trajectory: the time t, the
    delay tau and the matching scale lambda; the rescaling r-factor is
    e^{2 tau}."""

    t: float
    tau: float
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("matching scale must stay positive")


def admissibility_violation(ex: ExponentSet, x0: float, y0: float) -> str | None:
    """Name of the violated state constraint, or None if admissible."""
    mt = closed_form_moments(ex)
    if x0 < -mt.second_moment:
        return f"X >= -K_star violated (X = {x0}, -K_star = {-mt.second_moment})"
    if y0 < -mt.entropy:
        return f"Y >= -S_star violated (Y = {y0}, -S_star = {-mt.entropy})"
    cap = psi_upper(ex, x0)
    if y0 > cap * (1.0 + 1e-12) + 1e-14:
        return f"Y <= psi(X) violated (Y = {y0}, psi = {cap})"
    return None


def psi_upper(ex: ExponentSet, x: float) -> float:
    """Concave cap psi(X) = S_star (1 + X/S_star)^m - S_star on Y."""
    mt = closed_form_moments(ex)
    base = 1.0 + x / mt.entropy
    if base < 0.0:
        raise ValueError("X below the admissible box")
    return mt.entropy * base ** ex.m - mt.entropy


def xy_closed_form(ex: ExponentSet, x0, y0, t) -> tuple[np.ndarray, np.ndarray]:
    """Explicit solution X(t), Y(t) of the comparison system from the
    starts (x0, y0) that :func:`xy_integrate_batch` takes; t broadcasts
    against them."""
    t = np.asarray(t, dtype=float)
    a, b = ex.a_param, ex.b_param
    y = y0 * np.exp(-b * t)
    if abs(4.0 - b) < 1e-14:
        mix = a * t * np.exp(-4.0 * t)
    else:
        mix = a / (4.0 - b) * (np.exp(-b * t) - np.exp(-4.0 * t))
    x = x0 * np.exp(-4.0 * t) + mix * y0
    return x, y


def xy_integrate_batch(ex: ExponentSet, x0, y0, t_end: float,
                       dt: float = 1e-3) -> dict:
    """Classical RK4 paths from one start or an array of starts, all starts
    at once on the same fixed grid.

    Returns arrays t, x, y and the energy level along the paths, with x,
    y and energy shaped (steps + 1,) + shape of the start.  The three are
    formed in place in the returned arrays, a block of steps at a time
    with one block-sized scratch; each block's energy is :func:`_energy`,
    the one written form of L, so it equals that of the returned x and y
    bit for bit.  The paths are the RK4 trajectories, not the exact flow:
    one step with h = dt is the fixed map R = P(hM), M = [[-4, a], [0, -b]],
    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so step k is R^k applied to the
    start, and :func:`_rk4_propagator` gives the three entries of R^k.  The
    closed form :func:`xy_closed_form`, which takes the same starts, is the
    accuracy oracle; RK4 at dt = 1e-3 sits far below the 1e-8 comparison
    tolerance.  ``ValueError`` unless t_end > 0 and dt > 0.
    """
    if not (t_end > 0.0 and dt > 0.0):
        raise ValueError(f"a phase path needs t_end > 0 and dt > 0, "
                         f"got t_end = {t_end}, dt = {dt}")
    a, b = ex.a_param, ex.b_param
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = max(1, int(math.ceil(t_end / dt)))
    t = np.linspace(0.0, n * dt, n + 1)
    col = (n + 1,) + (1,) * x0.ndim
    p11, p12, p22 = (p.reshape(col) for p in _rk4_propagator(a, b, dt, n))
    xs = np.empty((n + 1,) + x0.shape)
    ys, energy = np.empty_like(xs), np.empty_like(xs)
    # row blocks of about _PHASE_BLOCK numbers, formed while they sit in
    # cache, with one block-sized scratch
    rows = max(1, _PHASE_BLOCK // max(1, x0.size))
    scratch = np.empty((min(rows, n + 1),) + x0.shape)
    for i in range(0, n + 1, rows):
        j = min(i + rows, n + 1)
        x, y, e, s = xs[i:j], ys[i:j], energy[i:j], scratch[:j - i]
        # x = p11 x0 + p12 y0, y = p22 y0
        np.multiply(p11[i:j], x0, out=x)
        x += np.multiply(p12[i:j], y0, out=s)
        np.multiply(p22[i:j], y0, out=y)
        _energy(a, b, x, y, out=e, scratch=s)
    return {"t": t, "x": xs, "y": ys, "energy": energy}


def _rk4_propagator(a: float, b: float, h: float, n: int):
    """Entries (r1^k, c D_k, r2^k), k = 0..n, of R^k for R = [[r1, c], [0, r2]].

    r1 = P(l1), r2 = P(l2) with l1 = -4h, l2 = -bh, and c = a h P[l1, l2],
    the divided difference of P written as its polynomial.  The powers are
    exp(k log1p(P(l) - 1)): a rounded r1 raised to the k-th power would
    carry k times its rounding error.  The upper corner of R^k is c D_k
    with D_k = (r1^k - r2^k)/(r1 - r2).  As m -> 1, b -> 4 and r1, r2
    meet, so delta = r2 - r1 is formed as (l2 - l1) P[l1, l2] and D_k as
    rho^k (1 - exp(-k L))/|delta|, with rho the larger root and
    L = |ln(r2/r1)| = |log1p(delta/r1)|: no cancellation near delta = 0
    and no overflow on long paths.  P has no real zeros, so r1, r2 > 0.
    """
    l1, l2 = -4.0 * h, -b * h
    u1, u2 = _taylor4_m1(l1), _taylor4_m1(l2)
    ln_r1, ln_r2 = math.log1p(u1), math.log1p(u2)
    s1, s2 = l1 + l2, l1 * l1 + l2 * l2
    pdd = 1.0 + s1 / 2.0 + (s2 + l1 * l2) / 6.0 + s1 * s2 / 24.0
    delta = (l2 - l1) * pdd
    k = np.arange(n + 1, dtype=float)
    p11, p22 = np.exp(k * ln_r1), np.exp(k * ln_r2)
    if delta == 0.0:
        dk = k * np.exp((k - 1.0) * ln_r1)
    else:
        ln_ratio = abs(math.log1p(delta / (1.0 + u1)))
        dk = (p11 if ln_r1 >= ln_r2 else p22) * -np.expm1(-k * ln_ratio) / abs(delta)
    return p11, (a * h * pdd) * dk, p22


def _taylor4_m1(z: float) -> float:
    """P(z) - 1 = z + z^2/2 + z^3/6 + z^4/24, P the RK4 amplification factor."""
    return z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


# -- regions ----------------------------------------------------------------


@dataclass(frozen=True)
class RegionInfo:
    region: str          # "A" | "B" | "C"
    k_bullet: float
    x_star: float        # ellipse tangency abscissa -a S_star / (2 sqrt(4+b))


def classify_region(ex: ExponentSet, k0: float, s0: float) -> RegionInfo:
    """Region of an initial state and the associated uniform bound."""
    bad = admissibility_violation(ex, k0, s0)
    if bad is not None:
        raise ValueError(bad)
    mt = closed_form_moments(ex)
    a, b = ex.a_param, ex.b_param
    s_star = mt.entropy
    x_star = -a * s_star / (2.0 * math.sqrt(4.0 + b))
    level_special = a * a * b * s_star ** 2 / (4.0 + b)

    if k0 <= 0.0 and 4.0 * k0 / a <= s0 <= psi_upper(ex, k0) + 1e-15:
        return RegionInfo("A", k_bullet=k0, x_star=x_star)
    level0 = _energy(a, b, k0, s0)
    inside_special = level0 <= level_special * (1.0 + 1e-12)
    if inside_special or k0 > -a * s_star / (4.0 + b):
        return RegionInfo("B", k_bullet=x_star, x_star=x_star)
    disc = (4.0 + b) * k0 ** 2 - 2.0 * a * k0 * s0 + a * a * s0 ** 2 / 4.0
    k_bullet = -math.sqrt(max(disc, 0.0) / b)
    return RegionInfo("C", k_bullet=k_bullet, x_star=x_star)


# -- delay bounds ------------------------------------------------------------


@dataclass(frozen=True)
class DelayBound:
    t1: float
    tau_bound: float
    tau_bullet: float | None  # defined when K[v0] = 0


def t1_uniform(ex: ExponentSet) -> float:
    """Uniform bound (1/(2 alpha)) log max{1, 4/(d(1-m))} on the entry time."""
    return math.log(max(1.0, 4.0 / (ex.d * (1.0 - ex.m)))) / (2.0 * ex.alpha)


def delay_bound(ex: ExponentSet, k0: float, s0: float) -> DelayBound:
    """Delay bound for one admissible initial state.

    t1 follows the stated branch formula (zero whenever the positive part
    of S(0) is below 2 m K_star); the overall bound multiplies it by the
    region factor and adds K_star/8.  When K[v0] = 0 the uniform constant
    tau_bullet (with t1 replaced by its uniform bound) is also returned.
    """
    info = classify_region(ex, k0, s0)
    mt = closed_form_moments(ex)
    k_star = mt.second_moment
    t1 = math.log(max(1.0, max(0.0, s0) / (2.0 * ex.m * k_star))) / (2.0 * ex.alpha)
    factor = max(1.0, (1.0 + info.k_bullet / k_star) ** (-ex.alpha / 2.0) - 1.0)
    tau_bound = factor * t1 + k_star / 8.0
    tau_bullet = None
    if k0 == 0.0:
        f0 = max(1.0, (1.0 - 1.0 / math.sqrt(1.0 + ex.alpha)) ** (-ex.alpha / 2.0) - 1.0)
        tau_bullet = f0 * t1_uniform(ex) + k_star / 8.0
    return DelayBound(t1=t1, tau_bound=tau_bound, tau_bullet=tau_bullet)
