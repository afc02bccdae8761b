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

The corrector is integrated in blocks of z rows.  The blocks are split
into contiguous ranges over up to ``_MAX_WORKERS`` threads (numpy
releases the GIL inside each block's ufuncs); every worker computes its
blocks in buffers the caller preallocated, so the workers allocate
nothing, and each row is computed the same way whichever worker runs
it, so the result does not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .functionals import _gns_deficit, _relative_entropy
from .params import ExponentSet
from .profiles import closed_form_moments

# z rows per block of the fused quadrature: 32 rows of the ~1000-point
# s grid make arrays of about 256 KB, which stay in cache
_BLOCK_ROWS = 32
# (rows, s) buffers one worker needs for a block
_N_BIG = 15
# the z blocks are split over at most this many threads
_MAX_WORKERS = 4
# the axial grid resolves each bump out to this distance from its center
_REACH = 50.0


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
    p, m = ex.p, ex.m
    q2p = 2.0 * p / (p - 1.0)
    mt = closed_form_moments(ex)
    c0, c1 = 1.0 - 2.0 / k, 1.0 / k

    z, s = _axisym_grids(X)
    s2 = s ** 2
    w = _s_weights(s)
    cm = (c0 ** m, c1 ** m, c1 ** m)
    # |grad (c_i g^{2p})^{1/(2p)}|^2 = c_i^{1/p} (2/(p-1))^2 u2 (1+u2)^(-q2p)
    cg = tuple(c ** (1.0 / p) * (2.0 / (p - 1.0)) ** 2 for c in (c0, c1, c1))
    grad_scale = -2.0 * q2p
    rows_p, rows_g = np.empty_like(z), np.empty_like(z)

    # axial offsets to the three bumps, (3, z, 1), and their squares
    dz_all = z[None, :, None] - np.array([0.0, X, -X])[:, None, None]
    dz2_all = dz_all ** 2

    def span(lo: int, hi: int, big: np.ndarray) -> None:
        # rows lo..hi-1 block by block, every temporary a view of this
        # worker's _N_BIG (rows, s) buffers; sums and products are taken
        # left to right as in the formulas (c0 b0 + c1 b1 + c1 b2, ...),
        # the order the pinned values were computed in
        for b_lo in range(lo, hi, _BLOCK_ROWS):
            b_hi = min(b_lo + _BLOCK_ROWS, hi)
            n = b_hi - b_lo
            u2s, ts, bs = big[0:3, :n], big[3:6, :n], big[6:9, :n]
            big_a, pw, tmp, acc, da_z, da_s = big[9:15, :n]
            dzs = dz_all[:, b_lo:b_hi]
            for i in range(3):
                np.add(dz2_all[i, b_lo:b_hi], s2, out=u2s[i])
                np.add(1.0, u2s[i], out=ts[i])
                np.power(ts[i], -q2p, out=bs[i])
            np.multiply(c0, bs[0], out=big_a)
            big_a += np.multiply(c1, bs[1], out=tmp)
            big_a += np.multiply(c1, bs[2], out=tmp)

            # L^{p+1} part: int A^m with the single-bump contributions exact
            np.power(big_a, m, out=pw)
            np.power(bs[0], m, out=acc)
            acc *= cm[0]
            for i in (1, 2):
                np.power(bs[i], m, out=tmp)
                tmp *= cm[i]
                acc += tmp
            pw -= acc
            np.einsum("ij,j->i", pw, w, out=rows_p[b_lo:b_hi])

            # gradient part: |grad f|^2 = (1/2p)^2 A^{1/p-2} |grad A|^2; the
            # bump gradient is -2 q2p (1+u2)^(-q2p-1) (dz, s), and
            # (1+u2)^(-q2p-1) = b / t, kept in place of t
            ws = ts
            for i in range(3):
                np.divide(bs[i], ts[i], out=ws[i])
                ws[i] *= grad_scale
            for da, x in ((da_z, dzs), (da_s, (s, s, s))):
                np.multiply(ws[0], x[0], out=da)
                da *= c0
                for i in (1, 2):
                    np.multiply(ws[i], x[i], out=tmp)
                    tmp *= c1
                    da += tmp
            safe_a = np.maximum(big_a, 1e-280, out=big_a)
            f_grad_sq = np.power(safe_a, 1.0 / p - 2.0, out=safe_a)
            f_grad_sq *= (1.0 / (2.0 * p)) ** 2
            np.square(da_z, out=da_z)
            da_z += np.square(da_s, out=da_s)
            f_grad_sq *= da_z
            for i in range(3):
                u2s[i] *= cg[i]
                u2s[i] *= bs[i]
            u2s[0] += u2s[1]
            u2s[0] += u2s[2]
            f_grad_sq -= u2s[0]
            np.einsum("ij,j->i", f_grad_sq, w, out=rows_g[b_lo:b_hi])

    # contiguous block-aligned row ranges, one per worker; the buffers
    # are allocated here, so the workers allocate nothing
    n_workers = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    n_blocks = -(-z.size // _BLOCK_ROWS)
    edges = [min(z.size, (j * n_blocks // n_workers) * _BLOCK_ROWS)
             for j in range(n_workers + 1)]
    bigs = [np.empty((_N_BIG, _BLOCK_ROWS, s.size)) for _ in range(n_workers)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        # reading every result re-raises a worker's exception here
        list(pool.map(span, edges[:-1], edges[1:], bigs))

    # 2 pi * 2 * int_{z>=0} int F(z,s) s ds dz for the z-even correctors
    p_int = (c0 ** m + 2.0 * c1 ** m) * mt.entropy \
        + 4.0 * math.pi * float(np.trapezoid(rows_p, z))
    grad_int = (c0 ** (1.0 / p) + 2.0 * c1 ** (1.0 / p)) * mt.grad_sq \
        + 4.0 * math.pi * float(np.trapezoid(rows_g, z))

    # relative entropy: the mass and second moment are exact by symmetry,
    # the bumps at +-X adding (2/k) X^2 M to the profile's second moment
    entropy = _relative_entropy(ex, p_int, mt.mass,
                                mt.second_moment + (2.0 / k) * X ** 2 * mt.mass,
                                1.0, 1.0)
    deficit = _gns_deficit(ex, grad_int, p_int, mt.mass)

    xm = _xm_norm_three_bumps(ex, k, X)
    ratio = entropy / xm ** (2.0 * (1.0 - m) / ex.alpha)
    return EscapeFamilyReport(k=k, center=X, deficit=deficit, entropy=entropy,
                              xm_norm=xm, ratio=ratio)


def _s_weights(s: np.ndarray) -> np.ndarray:
    """Trapezoid weights along s with the measure factor s folded in."""
    half = 0.5 * np.diff(s)
    w = np.zeros_like(s)
    w[:-1] += half
    w[1:] += half
    return w * s


def _axisym_grids(center: float):
    """Axial and transverse grids resolving bumps at 0 and +-center."""
    if center <= 3.0 * _REACH:
        core = np.linspace(0.0, center + _REACH, 3200)
    else:
        near = np.linspace(0.0, 12.0, 550)
        mid = 12.0 * ((center - _REACH) / 12.0) ** np.linspace(0.0, 1.0, 400)[1:]
        far = np.linspace(center - _REACH, center + _REACH, 1100)[1:]
        core = np.concatenate([near, mid, far])
    tail = (center + _REACH) * 3.0 ** np.linspace(0.0, 1.0, 250)[1:]
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
