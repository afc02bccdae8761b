"""Two-bump escape family: vanishing deficit with divergent entropy.

The densities

    A_k = (1 - 2/k) g^{2p}(x) + (1/k) g^{2p}(x - X e1) + (1/k) g^{2p}(x + X e1)

with X = |x_k| growing faster than sqrt(k) keep the mass and the center
of mass of the optimizer while their second moment, hence the relative
entropy, diverges; the deficit still vanishes.  The family is
axisymmetric, so every integral reduces to a 2D (z, s) quadrature in
d = 3.  The bulk of each integral is carried by the exact single-bump
values; only the superposition corrector, which is concentrated where
the bumps interact, is integrated numerically.  It is formed about the
dominant bump in log form, with ``log1p`` and ``expm1``, so that nothing
cancels (``_Corrector.fill``).

Along z the integrands are even and fall below 1e-17 well inside the
grid, so the uniform trapezoid there is spectrally accurate.  Each z
node count is the smallest found whose reports equal, bit for bit,
those of a grid with 4x the nodes in every segment.  Along s the measure
s ds makes the integrands s F(s^2), whose slope at s = 0 keeps the
trapezoid's h^2 error term, so s is integrated with Gauss-Legendre
panels instead.

The corrector is integrated in blocks of z rows.  Before any block is
integrated, an a-priori bound on its contribution is formed from the
bumps' tails (``_Corrector.block_bounds``); a block whose bound is at
most ``_SKIP_REL`` of both exact single-bump totals is skipped, its rows
left 0.
"""

from __future__ import annotations

import math
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
# (rows, s) buffers a block needs
_N_BIG = 15
# the axial grid resolves each bump out to this distance from its center
_REACH = 50.0
# uniform z nodes on [0, center + _REACH] when the bumps are that near
_Z_CORE = 350
# for centers beyond 3 _REACH: uniform nodes on [0, 12], geometric ones
# out to center - _REACH and uniform ones on center -+ _REACH
_Z_NEAR, _Z_MID, _Z_FAR = 200, 300, 400
# geometric z nodes from center + _REACH out to 3 (center + _REACH)
_Z_TAIL = 250
# a block is skipped when its corrector bound is at most this fraction of
# both exact single-bump totals
_SKIP_REL = 1e-17
# (radius, node) pairs per chunk of the tail scan's direct band sums
_TAIL_CHUNK = 4096
# r^e overflows float64 once e ln r exceeds this
_LN_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class EscapeFamilyReport:
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
    escape condition X^2/k -> infinity; separations below 12 are
    rejected because the bumps would overlap.
    """
    if ex.d != 3:
        raise ValueError("the escape family is evaluated in d = 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    X = float(k) ** 2 if center is None else float(center)
    if not math.isfinite(X):
        raise ValueError(f"bump center {X} is not finite")
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
    cor.fill(kept)

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
    return EscapeFamilyReport(center=X, deficit=deficit, entropy=entropy,
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
        # a zero weight (k = 2) drops its bump: log c = -inf, so a_i = 0
        c = np.array(self.c)
        self.log_c = np.log(c, out=np.full(3, -np.inf), where=c > 0)[:, None, None]
        # axial offsets to the three bumps, (3, z, 1), their squares and
        # their pair products dz_0 dz_1, dz_0 dz_2, dz_1 dz_2
        self.dz = self.z[None, :, None] - np.array([0.0, X, -X])[:, None, None]
        self.dz2 = self.dz ** 2
        self.dz_pairs = self.dz[[0, 0, 1]] * self.dz[[1, 2, 2]]

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
        c, log_c = np.array(self.c), self.log_c
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

    def fill(self, blocks: np.ndarray) -> None:
        """Rows of the given z blocks, every temporary a view of one
        (_N_BIG, rows, s) buffer allocated once for all of them.

        Both correctors are formed so that nothing cancels.  With j the
        dominant bump at a point and rho = sum_{i != j} a_i / a_j,
        A^m - sum_i a_i^m = a_j^m expm1(m log1p rho) - sum_{i != j} a_i^m.
        With f_i = a_i^r, grad A^r = sum_i theta_i grad f_i and
        theta_i = (a_i/A)^(1-r), so the gradient corrector is
        sum_i (theta_i^2 - 1)|grad f_i|^2 + 2 sum_{i<k} theta_i theta_k
        grad f_i . grad f_k, where grad f_i = -(2/(p-1)) (a_i^r/t_i)(dz_i, s)
        and theta_i^2 - 1 = expm1(2 (1-r) log(a_i/A)).  Every power is the
        exp of a scaled log a_i = log c_i - q log1p(u_i^2).  On z >= 0 the
        bump at -X never dominates, so j is the larger of bumps 0 and 1,
        and log(a_j/A) = -log1p rho exactly.
        """
        p, m, q = self.p, self.m, self.q
        r = 1.0 / (2.0 * p)
        s2, w = self.s ** 2, self.w
        log_c = self.log_c
        big = np.empty((_N_BIG, _BLOCK_ROWS, s2.size))
        for b in blocks:
            rows = slice(b * _BLOCK_ROWS, min((b + 1) * _BLOCK_ROWS, self.z.size))
            n = rows.stop - rows.start
            u2, v, la, e = big[0:3, :n], big[3:6, :n], big[6:9, :n], big[9:12, :n]
            # top, low and tmp hold e's rows until e is formed
            top, low, tmp = e
            l1, acc, t1 = big[12:15, :n]
            np.add(self.dz2[:, rows], s2, out=u2)
            np.log1p(u2, out=v)
            np.multiply(v, -q, out=la)
            la += log_c
            # v_i = log(a_i^r / t_i)
            v *= -p / (p - 1.0)
            v += r * log_c
            np.maximum(la[0], la[1], out=top)
            np.minimum(la[0], la[1], out=low)
            np.subtract(low, top, out=tmp)
            np.exp(tmp, out=tmp)
            np.subtract(la[2], top, out=t1)
            tmp += np.exp(t1, out=t1)
            np.log1p(tmp, out=l1)

            # L^{p+1} part: int A^m with the single-bump contributions exact
            np.multiply(l1, m, out=acc)
            np.expm1(acc, out=acc)
            np.multiply(top, m, out=t1)
            acc *= np.exp(t1, out=t1)
            low *= m
            acc -= np.exp(low, out=low)
            np.multiply(la[2], m, out=t1)
            acc -= np.exp(t1, out=t1)
            np.einsum("ij,j->i", acc, w, out=self.rows_p[rows])

            # gradient part, over the factor (2/(p-1))^2: la becomes
            # y_i = (1-r) log(a_i/A), then log(theta_i a_i^r / t_i)
            la -= top
            la -= l1
            la *= 1.0 - r
            np.multiply(la, 2.0, out=e)
            np.expm1(e, out=e)
            la += v
            v *= 2.0
            e *= np.exp(v, out=v)
            e *= u2
            np.add(e[0], e[1], out=acc)
            acc += e[2]
            h = np.exp(la, out=la)
            np.multiply(h[0], h[1:3], out=v[0:2])
            np.multiply(h[1], h[2], out=v[2])
            np.add(self.dz_pairs[:, rows], s2, out=u2)
            u2 *= v
            u2[0] += u2[1]
            u2[0] += u2[2]
            u2[0] *= 2.0
            acc += u2[0]
            np.einsum("ij,j->i", acc, w, out=self.rows_g[rows])
            self.rows_g[rows] *= (2.0 / (p - 1.0)) ** 2


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
        near = np.linspace(0.0, 12.0, _Z_NEAR)
        mid = 12.0 * ((center - _REACH) / 12.0) ** np.linspace(0.0, 1.0, _Z_MID)[1:]
        far = np.linspace(center - _REACH, center + _REACH, _Z_FAR)[1:]
        core = np.concatenate([near, mid, far])
    tail = (center + _REACH) * 3.0 ** np.linspace(0.0, 1.0, _Z_TAIL)[1:]
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

    Inside the band the fraction is
    (X - r)(X + r)/(4Xu) + (2X + u)/(4X), so the inner band nodes of every
    r are differences of two suffix sums.  For r < X both terms are >= 0;
    the band's end nodes carry fraction 1.  For r >= X the first term is
    negative and the form cancels where the fraction f is small: the
    second term is at most (3X + r)/(4X), 1.15 at the scan's largest
    radius 1.6 X, so where f >= 0.1 it cancels by at most 11.5x.  The
    fraction grows with u across the band, so the band nodes with f < 0.1
    are the ones below u = sqrt(r^2 - 0.36 X^2) - 0.8 X; those are summed
    node by node, in chunks of at most _TAIL_CHUNK (radius, node) pairs.
    The band's end nodes carry fractions 0 and 1.
    """
    du = np.diff(u)
    seg = 0.5 * (w[1:] + w[:-1]) * du
    below = np.concatenate([[0.0], np.cumsum(seg)])
    above = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    centered = np.interp(radii, u, above)

    lo = np.searchsorted(u, np.abs(X - radii), side="right") - 1
    hi = np.minimum(np.searchsorted(u, X + radii, side="left"), u.size - 1)
    near = radii < X
    # the first band node summed from suffix sums
    u_sep = np.sqrt(np.maximum(radii * radii - 0.36 * X * X, 0.0)) - 0.8 * X
    sep = np.where(near, lo + 1,
                   np.clip(np.searchsorted(u, u_sep, side="left"), lo + 1, hi))

    # suffix sums of the nodes' trapezoid weights times w / u and w (2X + u)
    cw = _trapezoid_weights(u) * w
    by_u = np.divide(cw, u, out=np.zeros_like(u), where=u > 0.0)
    suffix_u = np.concatenate([np.cumsum(by_u[::-1])[::-1], [0.0]])
    suffix_x = np.concatenate([np.cumsum((cw * (2.0 * X + u))[::-1])[::-1], [0.0]])
    inner = ((X - radii) * (X + radii) * (suffix_u[sep] - suffix_u[hi])
             + (suffix_x[sep] - suffix_x[hi])) / (4.0 * X)
    ends = 0.5 * (np.where(near, du[lo] * w[lo], 0.0) + du[hi - 1] * w[hi])

    # far radii: the band nodes lo + 1 .. sep - 1, one by one
    far = np.flatnonzero(~near)
    first, count = lo[far] + 1, sep[far] - lo[far] - 1
    direct = np.zeros(far.size)
    step = max(1, _TAIL_CHUNK // max(int(count.max(initial=0)), 1))
    for a in range(0, far.size, step):
        n = count[a:a + step]
        owner = np.repeat(np.arange(n.size), n)
        node = np.arange(owner.size) + np.repeat(first[a:a + step] - (np.cumsum(n) - n), n)
        un = u[node]
        mu0 = ((radii[far[a:a + step]][owner] ** 2 - (X * X + un ** 2))
               / (2.0 * X * np.maximum(un, 1e-300)))
        direct[a:a + step] = np.bincount(owner, cw[node] * (0.5 * (1.0 - mu0)),
                                         minlength=n.size)
    lower = below[lo]
    lower[far] = direct
    return centered, lower + (ends + inner) + above[hi]


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
