"""Two-bump escape family: vanishing deficit with divergent entropy.

The densities

    A_k = (1 - 2/k) g^{2p}(x) + (1/k) g^{2p}(x - X e1) + (1/k) g^{2p}(x + X e1)

with X = |x_k| growing faster than sqrt(k) keep the mass and the center
of mass of the optimizer while their second moment, hence the relative
entropy, diverges; the deficit still vanishes.  The family is
axisymmetric, so every integral reduces to a 2D (z, s) quadrature in
d = 3.  The bulk of each integral is carried by the exact single-bump
values; only the superposition corrector, which is concentrated where
the bumps interact, is integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ExponentSet
from .profiles import barenblatt_mass, g_norms, gns_optimal_constants

# z rows per block of the fused quadrature: 32 rows of the ~1000-point
# s grid make arrays of about 256 KB, which stay in cache
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class EscapeFamilyReport:
    k: int
    center: float
    deficit: float
    entropy: float
    xm_norm: float
    ratio: float      # entropy / xm_norm^{2(1-m)/alpha}


def counterexample_report(ex: ExponentSet, k: int,
                          center: float | None = None) -> EscapeFamilyReport:
    """Deficit, relative entropy, tail norm and their ratio for one k.

    Restricted to d = 3 (where the spherical-cap reduction of the tail
    mass is elementary).  The default centers X = k^2 satisfy the
    escape condition X^2/k -> infinity; separations below 30 are
    rejected because the bumps would overlap.
    """
    if ex.d != 3:
        raise ValueError("the escape family is evaluated in d = 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    X = float(k) ** 2 if center is None else float(center)
    if X < 12.0:
        raise ValueError(f"bump separation {X} too small; the profiles overlap")
    p, m, d = ex.p, ex.m, ex.d
    q2p = 2.0 * p / (p - 1.0)
    mass = barenblatt_mass(ex)
    gn = g_norms(ex)
    c0, c1 = 1.0 - 2.0 / k, 1.0 / k

    z, s = _axisym_grids(X)
    s2 = s ** 2
    centers = (0.0, X, -X)
    cm = (c0 ** m, c1 ** m, c1 ** m)
    # |grad (c_i g^{2p})^{1/(2p)}|^2 = c_i^{1/p} (2/(p-1))^2 u2 (1+u2)^(-q2p)
    cg = tuple(c ** (1.0 / p) * (2.0 / (p - 1.0)) ** 2 for c in (c0, c1, c1))
    rows_p, rows_g = np.empty_like(z), np.empty_like(z)
    for lo in range(0, z.size, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        dzs = [z[rows, None] - dz for dz in centers]
        u2s = [dzi ** 2 + s2 for dzi in dzs]
        ts = [1.0 + u2 for u2 in u2s]
        bs = [t ** (-q2p) for t in ts]
        big_a = c0 * bs[0] + c1 * bs[1] + c1 * bs[2]

        # L^{p+1} part: int A^m with the single-bump contributions exact
        corr_p = big_a ** m - (cm[0] * bs[0] ** m + cm[1] * bs[1] ** m
                               + cm[2] * bs[2] ** m)

        # gradient part: |grad f|^2 = (1/2p)^2 A^{1/p-2} |grad A|^2; the
        # bump gradient is -2 q2p (1+u2)^(-q2p-1) (dz, s), and
        # (1+u2)^(-q2p-1) = b / t
        ws = [-2.0 * q2p * (b / t) for b, t in zip(bs, ts)]
        da_z = c0 * (ws[0] * dzs[0]) + c1 * (ws[1] * dzs[1]) \
            + c1 * (ws[2] * dzs[2])
        da_s = c0 * (ws[0] * s) + c1 * (ws[1] * s) + c1 * (ws[2] * s)
        safe_a = np.maximum(big_a, 1e-280)
        f_grad_sq = (1.0 / (2.0 * p)) ** 2 * safe_a ** (1.0 / p - 2.0) \
            * (da_z ** 2 + da_s ** 2)
        corr_g = f_grad_sq - (cg[0] * u2s[0] * bs[0] + cg[1] * u2s[1] * bs[1]
                              + cg[2] * u2s[2] * bs[2])

        rows_p[rows] = np.trapezoid(corr_p * s, s, axis=1)
        rows_g[rows] = np.trapezoid(corr_g * s, s, axis=1)

    # 2 pi * 2 * int_{z>=0} int F(z,s) s ds dz for the z-even correctors
    p_int = (c0 ** m + 2.0 * c1 ** m) * gn["lp1"] \
        + 4.0 * math.pi * float(np.trapezoid(rows_p, z))
    grad_int = (c0 ** (1.0 / p) + 2.0 * c1 ** (1.0 / p)) * gn["grad_sq"] \
        + 4.0 * math.pi * float(np.trapezoid(rows_g, z))

    # relative entropy: the (1+|x|^2)-weighted part is exact by symmetry
    entropy = 2.0 * p / (1.0 - p) * (p_int - gn["lp1"]) \
        + (p + 1.0) / (p - 1.0) * (2.0 / k) * X ** 2 * mass

    kg = gns_optimal_constants(ex).k_gns
    deficit = (p - 1.0) ** 2 * grad_int \
        + 4.0 * (d - p * (d - 2.0)) / (p + 1.0) * p_int - kg * mass ** ex.gamma

    xm = _xm_norm_three_bumps(ex, k, X)
    ratio = entropy / xm ** (2.0 * (1.0 - m) / ex.alpha)
    return EscapeFamilyReport(k=k, center=X, deficit=deficit, entropy=entropy,
                              xm_norm=xm, ratio=ratio)


def _axisym_grids(center: float, reach: float = 50.0):
    """Axial and transverse grids resolving bumps at 0 and +-center."""
    if center <= 3.0 * reach:
        core = np.linspace(0.0, center + reach, 3200)
    else:
        near = np.linspace(0.0, 12.0, 550)
        mid = 12.0 * ((center - reach) / 12.0) ** np.linspace(0.0, 1.0, 400)[1:]
        far = np.linspace(center - reach, center + reach, 1100)[1:]
        core = np.concatenate([near, mid, far])
    tail = (center + reach) * 3.0 ** np.linspace(0.0, 1.0, 250)[1:]
    z = np.unique(np.concatenate([core, tail]))
    s = np.unique(np.concatenate([
        np.linspace(0.0, 12.0, 550),
        12.0 * (max(center, 24.0) / 12.0) ** np.linspace(0.0, 1.0, 450)[1:]]))
    return z, s


def _xm_norm_three_bumps(ex: ExponentSet, k: int, X: float) -> float:
    """sup_r r^{alpha/(1-m)} * mass of A_k beyond radius r (d = 3)."""
    q2p = 2.0 * ex.p / (ex.p - 1.0)
    c0, c1 = 1.0 - 2.0 / k, 1.0 / k
    u = np.unique(np.concatenate([
        np.linspace(0.0, 20.0, 2000),
        20.0 * (80.0 * X / 20.0) ** np.linspace(0.0, 1.0, 4000)[1:]]))
    phi = (1.0 + u ** 2) ** (-q2p)
    w = 4.0 * math.pi * u ** 2 * phi
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(u))])
    total = cum[-1]

    def beyond_centered(r):
        return total - float(np.interp(r, u, cum))

    def beyond_shifted(r):
        # fraction of the sphere of radius u centered at distance X lying
        # outside the ball of radius r (spherical-cap formula, d = 3)
        mu0 = (r * r - X * X - u ** 2) / (2.0 * X * np.maximum(u, 1e-300))
        frac = np.clip(0.5 * (1.0 - mu0), 0.0, 1.0)
        return float(np.trapezoid(w * frac, u))

    expo = ex.xm_tail_exponent
    r_grid = np.unique(np.concatenate([
        np.linspace(1.0, 30.0, 30),
        X * np.linspace(0.05, 1.6, 400)]))
    best = 0.0
    for r in r_grid:
        t_r = c0 * beyond_centered(r) + 2.0 * c1 * beyond_shifted(r)
        best = max(best, r ** expo * t_r)
    return float(best)
