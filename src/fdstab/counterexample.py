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

Along z the integrands are even and fall below 1e-17 well inside the
grid, so the uniform trapezoid there is spectrally accurate.  Along s
the measure s ds makes them s F(s^2), whose slope at s = 0 keeps the
trapezoid's h^2 error term, so s is integrated with Gauss-Legendre
panels instead.

The corrector is integrated in blocks of z rows.  Before any block is
integrated, an a-priori bound on its contribution is formed from the
bumps' tails (``_Corrector.block_bounds``); a block whose bound is at
most ``_SKIP_REL`` of both exact single-bump totals is skipped, its rows
left 0.  The kept blocks are split into contiguous ranges over up to
``_MAX_WORKERS`` threads (numpy releases the GIL inside each block's
ufuncs); every worker computes its blocks in buffers the caller
preallocated, so the workers allocate nothing, and each row is computed
the same way whichever worker runs it, so the result does not depend on
the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .functionals import _gns_deficit, _relative_entropy
from .params import ExponentSet
from .profiles import closed_form_moments

# z rows per block of the fused quadrature: 32 rows of the 136-432 point
# s grid make arrays of at most 110 KB, which stay in cache
_BLOCK_ROWS = 32
# Gauss-Legendre nodes per s panel; panels are _S_PANEL_WIDTH wide on
# [0, 12] and grow geometrically beyond, by at most _S_PANEL_RATIO
_GL_NODES = 8
_S_PANEL_WIDTH = 1.0
_S_PANEL_RATIO = 1.15
# (rows, s) buffers one worker needs for a block
_N_BIG = 15
# the z blocks are split over at most this many threads
_MAX_WORKERS = 4
# the axial grid resolves each bump out to this distance from its center
_REACH = 50.0
# uniform z nodes on [0, center + _REACH] when the bumps are that near
_Z_CORE = 800
# a block is skipped when its corrector bound is at most this fraction of
# both exact single-bump totals
_SKIP_REL = 1e-17
# r^e overflows float64 once e ln r exceeds this
_LN_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class EscapeFamilyReport:
    k: int
    center: float
    deficit: float
    entropy: float
    xm_norm: float
    ratio: float      # entropy / xm_norm^{2(1-m)/alpha}
    skipped_blocks: int   # z blocks left out under their corrector bound
    blocks: int


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
    # the tail norm first: it rejects p too close to 1 before any quadrature
    xm = _xm_norm_three_bumps(ex, k, X)
    p, m = ex.p, ex.m
    mt = closed_form_moments(ex)
    cor = _Corrector(ex, k, X)
    c0, c1, _ = cor.c
    p_single = (c0 ** m + 2.0 * c1 ** m) * mt.entropy
    grad_single = (c0 ** (1.0 / p) + 2.0 * c1 ** (1.0 / p)) * mt.grad_sq
    bound_p, bound_g = cor.block_bounds()
    skipped = (bound_p <= _SKIP_REL * p_single) & (bound_g <= _SKIP_REL * grad_single)
    kept = np.flatnonzero(~skipped)
    # contiguous runs of the kept blocks, one per worker; the buffers are
    # allocated here, so the workers allocate nothing
    n_workers = max(1, min(len(os.sched_getaffinity(0)), _MAX_WORKERS, kept.size))
    parts = [kept[j * kept.size // n_workers:(j + 1) * kept.size // n_workers]
             for j in range(n_workers)]
    bigs = [np.empty((_N_BIG, _BLOCK_ROWS, cor.s.size)) for _ in range(n_workers)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        # reading every result re-raises a worker's exception here
        list(pool.map(cor.fill, parts, bigs))

    # 2 pi * 2 * int_{z>=0} int F(z,s) s ds dz for the z-even correctors
    p_int = p_single + 4.0 * math.pi * float(np.trapezoid(cor.rows_p, cor.z))
    grad_int = grad_single + 4.0 * math.pi * float(np.trapezoid(cor.rows_g, cor.z))

    # relative entropy: the mass and second moment are exact by symmetry,
    # the bumps at +-X adding (2/k) X^2 M to the profile's second moment
    entropy = _relative_entropy(ex, p_int, mt.mass,
                                mt.second_moment + (2.0 / k) * X ** 2 * mt.mass,
                                1.0, 1.0)
    deficit = _gns_deficit(ex, grad_int, p_int, mt.mass)

    ratio = entropy / xm ** (2.0 * (1.0 - m) / ex.alpha)
    return EscapeFamilyReport(k=k, center=X, deficit=deficit, entropy=entropy,
                              xm_norm=xm, ratio=ratio,
                              skipped_blocks=cor.n_blocks - kept.size,
                              blocks=cor.n_blocks)


class _Corrector:
    """The superposition corrector of one family member, row by row.

    Bump i has weight c_i, center z_i and b_i = t_i^(-q) with
    t_i = 1 + (z - z_i)^2 + s^2 and q = 2p/(p-1); A = sum_i a_i with
    a_i = c_i b_i.  Row z of ``rows_p`` is the s sum of A^m - sum_i a_i^m,
    row z of ``rows_g`` that of |grad A^r|^2 - sum_i |grad a_i^r|^2 with
    r = 1/(2p), both with the Gauss-Legendre weights ``w`` of s ds.
    """

    def __init__(self, ex: ExponentSet, k: int, X: float):
        self.p, self.m = ex.p, ex.m
        self.q = 2.0 * ex.p / (ex.p - 1.0)
        self.c = (1.0 - 2.0 / k, 1.0 / k, 1.0 / k)
        self.z, self.s, w_s = _axisym_grids(X)
        self.w = w_s * self.s
        self.n_blocks = -(-self.z.size // _BLOCK_ROWS)
        self.rows_p, self.rows_g = np.zeros_like(self.z), np.zeros_like(self.z)
        # axial offsets to the three bumps, (3, z, 1), and their squares
        self.dz = self.z[None, :, None] - np.array([0.0, X, -X])[:, None, None]
        self.dz2 = self.dz ** 2

    def block_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on |4 pi sum_{z in block} w_z row_z| of every z block,
        for ``rows_p`` and for ``rows_g``, formed before any row is.

        Let j be the bump whose largest |z - z_j| over the block is the
        smallest, and let i run over the other bumps.

        * A^m >= a_j^m and x^m is subadditive, so
          -sum_i a_i^m <= A^m - sum_all a_i^m <= 0.
        * grad A^r = sum_all theta_i grad f_i with f_i = a_i^r and
          theta_i = (a_i/A)^(1-r) in [0, 1], so theta_i <= min(1, (a_i/a_j)^(1-r))
          and 1 - theta_j^2 <= 2 (1 - a_j/A) <= 2 min(1, sum_i a_i/a_j).
          With |grad f_i|^2 <= g_i^2 = K c_i^(1/p) t_i^(1-q), K = (2/(p-1))^2,
          and V = sum_i min(1, (a_i/a_j)^(1-r)) g_i, the gradient corrector is
          at most 2 min(1, sum_i a_i/a_j) g_j^2 + 2 g_j V + V^2 + sum_i g_i^2.

        Every factor grows as the t_i fall and t_j rises, so on a cell of
        32 rows and one s panel the bounds are taken at the cell's least
        t_i (its least (z - z_i)^2 and s^2) and, in a_i/a_j, its largest
        t_j; times the cell's summed weights (sum w_z)(sum w_s), all
        positive, they bound the cell's part of the quadrature sums.
        """
        p, m, q = self.p, self.m, self.q
        one_r = 1.0 - 1.0 / (2.0 * p)
        cells_z = np.arange(0, self.z.size, _BLOCK_ROWS)
        cells_s = np.arange(0, self.s.size, _GL_NODES)
        dz2 = self.dz2[:, :, 0]
        s2 = self.s ** 2
        # log t_i at each (block, s cell) corner that maximises the bound
        log_t_lo = np.log1p(np.minimum.reduceat(dz2, cells_z, axis=1)[:, :, None]
                            + np.minimum.reduceat(s2, cells_s))
        dz2_hi = np.maximum.reduceat(dz2, cells_z, axis=1)
        # a zero weight (k = 2) drops its bump: log c = -inf, so a_i = g_i = 0
        c = np.array(self.c)
        log_c = np.log(c, out=np.full(3, -np.inf), where=c > 0)[:, None, None]
        j = np.argmin(np.where(c[:, None] > 0, dz2_hi, np.inf), axis=0)
        blocks = np.arange(self.n_blocks)
        log_t_hi_j = np.log1p(dz2_hi[j, blocks][:, None]
                              + np.maximum.reduceat(s2, cells_s))
        others = (np.arange(3)[:, None] != j)[:, :, None]

        log_a = log_c - q * log_t_lo
        # log of the upper bound of a_i/a_j, capped at 0 (a ratio of 1)
        log_ratio = np.minimum(log_a - (log_c[j, 0] - q * log_t_hi_j), 0.0)
        g2 = (2.0 / (p - 1.0)) ** 2 * np.exp(log_c / p + (1.0 - q) * log_t_lo)
        g2_j = g2[j, blocks]
        cell_p = np.sum(others * np.exp(m * log_a), axis=0)
        ratio_sum = np.minimum(1.0, np.sum(others * np.exp(log_ratio), axis=0))
        v = np.sum(others * np.exp(one_r * log_ratio) * np.sqrt(g2), axis=0)
        cell_g = (2.0 * ratio_sum * g2_j + 2.0 * np.sqrt(g2_j) * v + v * v
                  + np.sum(others * g2, axis=0))

        w_z = 4.0 * math.pi * np.add.reduceat(_trapezoid_weights(self.z), cells_z)
        w_s = np.add.reduceat(self.w, cells_s)
        return w_z * (cell_p @ w_s), w_z * (cell_g @ w_s)

    def fill(self, blocks: np.ndarray, big: np.ndarray) -> None:
        """Rows of the given z blocks, every temporary a view of the
        (_N_BIG, rows, s) buffer ``big``; sums and products are taken left
        to right as in the formulas (c0 b0 + c1 b1 + c1 b2, ...), the order
        the pinned values were computed in."""
        p, m, q2p = self.p, self.m, self.q
        c0, c1, _ = self.c
        s, s2, w = self.s, self.s ** 2, self.w
        cm = tuple(c ** m for c in self.c)
        # |grad (c_i g^{2p})^{1/(2p)}|^2 = c_i^{1/p} (2/(p-1))^2 u2 (1+u2)^(-q2p)
        cg = tuple(c ** (1.0 / p) * (2.0 / (p - 1.0)) ** 2 for c in self.c)
        grad_scale = -2.0 * q2p
        for b in blocks:
            b_lo = b * _BLOCK_ROWS
            b_hi = min(b_lo + _BLOCK_ROWS, self.z.size)
            n = b_hi - b_lo
            u2s, ts, bs = big[0:3, :n], big[3:6, :n], big[6:9, :n]
            big_a, pw, tmp, acc, da_z, da_s = big[9:15, :n]
            dzs = self.dz[:, b_lo:b_hi]
            for i in range(3):
                np.add(self.dz2[i, b_lo:b_hi], s2, out=u2s[i])
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
            np.einsum("ij,j->i", pw, w, out=self.rows_p[b_lo:b_hi])

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
            np.einsum("ij,j->i", f_grad_sq, w, out=self.rows_g[b_lo:b_hi])


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with sum w f = np.trapezoid(f, x) in exact arithmetic."""
    half = 0.5 * np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += half
    w[1:] += half
    return w


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of _GL_NODES-point Gauss-Legendre rules on the
    panels between consecutive edges, panel by panel."""
    x, wx = leggauss(_GL_NODES)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * wx).ravel())


def _axisym_grids(center: float):
    """Axial trapezoid grid z, and transverse Gauss-Legendre nodes s with
    their weights w_s, resolving bumps at 0 and +-center."""
    if center <= 3.0 * _REACH:
        core = np.linspace(0.0, center + _REACH, _Z_CORE)
    else:
        near = np.linspace(0.0, 12.0, 550)
        mid = 12.0 * ((center - _REACH) / 12.0) ** np.linspace(0.0, 1.0, 400)[1:]
        far = np.linspace(center - _REACH, center + _REACH, 1100)[1:]
        core = np.concatenate([near, mid, far])
    tail = (center + _REACH) * 3.0 ** np.linspace(0.0, 1.0, 250)[1:]
    z = np.unique(np.concatenate([core, tail]))
    growth = max(center, 24.0) / 12.0
    n_near = round(12.0 / _S_PANEL_WIDTH)
    n_far = math.ceil(math.log(growth) / math.log(_S_PANEL_RATIO))
    edges = np.concatenate([np.linspace(0.0, 12.0, n_near + 1),
                            12.0 * growth ** (np.arange(1, n_far + 1) / n_far)])
    return z, *_gl_panels(edges)


def _tail_quadrature(ex: ExponentSet, X: float) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes u and the single bump's radial mass density 4 pi u^2 b
    at them, resolving the bumps at distance X."""
    q2p = 2.0 * ex.p / (ex.p - 1.0)
    u = np.unique(np.concatenate([
        np.linspace(0.0, 20.0, 2000),
        20.0 * (80.0 * X / 20.0) ** np.linspace(0.0, 1.0, 4000)[1:]]))
    return u, 4.0 * math.pi * u ** 2 * (1.0 + u ** 2) ** (-q2p)


def _tail_radii(X: float) -> np.ndarray:
    """Radii r over which the tail norm's supremum is taken."""
    return np.unique(np.concatenate([
        np.linspace(1.0, 30.0, 30),
        X * np.linspace(0.05, 1.6, 400)]))


def _tail_masses(u: np.ndarray, w: np.ndarray, X: float,
                 radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid mass beyond each radius r of a bump centered at 0 and of
    one centered at distance X.

    The fraction of the sphere of radius u lying beyond r (the spherical
    cap formula, d = 3) is ((X+u)^2 - r^2)/(4Xu) clipped to [0, 1]: 1 for
    u <= |X - r| when r < X, 0 there when r > X, and 1 for u >= X + r, so
    it is evaluated only from the last node at or below |X - r| to the
    first node at or above X + r.  Below that band the mass is the
    forward cumulative sum, above it the suffix sum, each summed from its
    own end; the centered bump's mass is the suffix sum interpolated at r.
    (Total minus cumulative would cancel at large r.)

    For r < X the fraction inside the band is
    (X - r)(X + r)/(4Xu) + (2X + u)/(4X), both terms >= 0, so the inner
    band nodes of every such r are differences of two suffix sums; the
    band's end nodes carry fraction 1.  For r >= X a separable form would
    cancel near u = r - X, so those radii are summed one at a time.
    """
    du = np.diff(u)
    seg = 0.5 * (w[1:] + w[:-1]) * du
    below = np.concatenate([[0.0], np.cumsum(seg)])
    above = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    centered = np.interp(radii, u, above)

    lo = np.searchsorted(u, np.abs(X - radii), side="right") - 1
    hi = np.minimum(np.searchsorted(u, X + radii, side="left"), u.size - 1)
    shifted = np.empty_like(radii)

    near = radii < X
    r, i, h = radii[near], lo[near], hi[near]
    # suffix sums of the nodes' trapezoid weights times w / u and w (2X + u)
    cw = _trapezoid_weights(u) * w
    by_u = np.divide(cw, u, out=np.zeros_like(u), where=u > 0.0)
    suffix_u = np.concatenate([np.cumsum(by_u[::-1])[::-1], [0.0]])
    suffix_x = np.concatenate([np.cumsum((cw * (2.0 * X + u))[::-1])[::-1], [0.0]])
    inner = ((X - r) * (X + r) * (suffix_u[i + 1] - suffix_u[h])
             + (suffix_x[i + 1] - suffix_x[h])) / (4.0 * X)
    ends = 0.5 * (du[i] * w[i] + du[h - 1] * w[h])
    shifted[near] = below[i] + (ends + inner) + above[h]

    x2_u2, two_xu = X * X + u ** 2, 2.0 * X * np.maximum(u, 1e-300)
    for n in np.flatnonzero(~near):
        r, i, h = radii[n], lo[n], hi[n]
        mu0 = (r * r - x2_u2[i:h + 1]) / two_xu[i:h + 1]
        g = w[i:h + 1] * np.clip(0.5 * (1.0 - mu0), 0.0, 1.0)
        shifted[n] = 0.5 * float(du[i:h] @ (g[1:] + g[:-1])) + above[h]
    return centered, shifted


def _xm_norm_three_bumps(ex: ExponentSet, k: int, X: float) -> float:
    """sup_r r^{alpha/(1-m)} * mass of A_k beyond radius r (d = 3)."""
    radii = _tail_radii(X)
    expo = ex.xm_tail_exponent
    if expo * math.log(radii[-1]) >= _LN_FLOAT_MAX:
        raise OverflowError(f"tail norm at p = {ex.p!r}: the weight r^{expo:.6g} "
                            f"overflows float64 at r = {radii[-1]:.6g}")
    c0, c1 = 1.0 - 2.0 / k, 1.0 / k
    u, w = _tail_quadrature(ex, X)
    centered, shifted = _tail_masses(u, w, X, radii)
    tail = c0 * centered + 2.0 * c1 * shifted
    return float(np.max(radii ** expo * tail))
