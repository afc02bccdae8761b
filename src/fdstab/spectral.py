"""Spectrum of the weighted linearization operator and spectral gaps.

The operator L u = -(1+|x|^2)^{1-a} div[(1+|x|^2)^a grad u] acting on
L^2((1+|x|^2)^{a-1} dx) governs the linearized relaxation; for the
fast-diffusion dictionary a = 2p/(1-p) = 1/(m-1) < 0.  Its eigenvalues
have polynomial eigenfunctions and are known in closed form; a P1
finite-element discretization of the radial sector is included as an
independent numerical cross-check.

Two different "essential spectrum" expressions circulate for this
operator: the Persson form (a + (d-2)/2)^2, used here for the
discreteness filter, and a variant written with 2p/(p+1) instead of
2p/(p-1) in some displays, exposed verbatim as
:func:`lambda_ess_weighted_hardy_display`.  They do not agree; the
Persson form is the one consistent with the closed-form eigenvalues and
with the case boundaries of the improved-gap table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from .fields import graded_mesh
from .params import ExponentSet


@dataclass(frozen=True)
class SpectrumQuery:
    """Weight parameters of one spectral problem."""

    d: int
    a: float  # weight exponent, < 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not self.a < 0.0:
            raise ValueError(f"weight exponent must be negative, got {self.a}")

    @staticmethod
    def from_p(d: int, p: float) -> "SpectrumQuery":
        if p <= 1.0:
            raise ValueError("p must be > 1")
        return SpectrumQuery(d=d, a=2.0 * p / (1.0 - p))

    @property
    def p(self) -> float:
        return self.a / (self.a + 2.0)


def lambda_ess(query: SpectrumQuery) -> float:
    """Bottom of the essential spectrum, (a + (d-2)/2)^2 (Persson form)."""
    return (query.a + 0.5 * (query.d - 2.0)) ** 2


def lambda_ess_weighted_hardy_display(d: int, p: float) -> float:
    """The variant (1/4)(d - 2 - 4p/(p+1))^2, reproduced verbatim.

    Kept separate because it disagrees with the Persson form (which the
    discreteness filter uses); see the module docstring.
    """
    return 0.25 * (d - 2.0 - 4.0 * p / (p + 1.0)) ** 2


@dataclass(frozen=True)
class EigenvalueResult:
    value: float
    discrete: bool
    status: str  # "discrete" | "not-square-integrable" | "embedded"


def eigenvalue(ell: int, k: int, query: SpectrumQuery) -> EigenvalueResult:
    """Closed-form eigenvalue lambda_{ell,k} with its discreteness status.

    For d >= 2, lambda_{ell,k} = -2a(ell+2k) - 4k(k+ell+d/2-1), a genuine
    point eigenvalue iff the polynomial eigenfunction is square integrable
    (ell + 2k - 1 < -(d+2a)/2); it belongs to the discrete spectrum iff it
    additionally sits below the essential spectrum.  For d = 1 the ladder
    is lambda_k = k(1-2a-k) with k in [1, 1/2-a].
    """
    if ell < 0 or k < 0:
        raise ValueError("mode indices must be nonnegative")
    if (ell, k) == (0, 0):
        raise ValueError("(0,0) is the trivial constant mode")
    a, d = query.a, query.d
    if d == 1:
        if ell != 0:
            raise ValueError("d = 1 modes are indexed by k only (use ell = 0)")
        value = k * (1.0 - 2.0 * a - k)
        integrable = 1 <= k <= 0.5 - a
    else:
        value = -2.0 * a * (ell + 2 * k) - 4.0 * k * (k + ell + d / 2.0 - 1.0)
        integrable = (ell + 2 * k - 1) < -(d + 2.0 * a) / 2.0
    if not integrable:
        return EigenvalueResult(value, False, "not-square-integrable")
    if value >= lambda_ess(query):
        return EigenvalueResult(value, False, "embedded")
    return EigenvalueResult(value, True, "discrete")


# -- gaps -------------------------------------------------------------------


@dataclass(frozen=True)
class GapResult:
    """Spectral gap in operator units and in flow units (I/F quotient)."""

    rayleigh: float        # gap of the Rayleigh quotient of L
    flow: float            # gap of the linearized entropy quotient


def spectral_gap(query: SpectrumQuery) -> GapResult:
    """Gap of L under the mass constraint: Lambda = -2a = 4p/(p-1).

    The flow-units value is 2(1-m) * rayleigh = 4 with m = (p+1)/(2p) the
    fast-diffusion exponent matching the query.  The improved gaps under
    further constraints are :func:`improved_gap` (mass and center) and
    :func:`critical_gap_parameters` (critical case).
    """
    p = query.p
    m = (p + 1.0) / (2.0 * p)
    lam = -2.0 * query.a
    return GapResult(rayleigh=lam, flow=2.0 * (1.0 - m) * lam)


def improved_gap(d: int, p: float) -> tuple[float, str]:
    """Lambda_star under mass and center constraints (four cases)."""
    if d == 1:
        if not 1.0 < p <= 3.0:
            raise ValueError("d = 1 improved gap requires 1 < p <= 3")
        return 6.0 * (p + 1.0) / (p - 1.0), "i"
    if d == 2 or (d >= 3 and p <= 1.0 + 2.0 / d):
        if p <= 1.0:
            raise ValueError("p must be > 1")
        return 8.0 * p / (p - 1.0), "ii"
    p_star = d / (d - 2.0)
    if d >= 3 and 1.0 + 2.0 / d <= p <= min(1.0 + 4.0 / (d + 2.0), p_star):
        return 16.0 * p / (p - 1.0) - 4.0 * (d + 2.0), "iii"
    if 3 <= d <= 5 and 1.0 + 4.0 / (d + 2.0) < p <= p_star:
        return lambda_ess(SpectrumQuery.from_p(d, p)), "iv"
    raise ValueError(f"(d, p) = ({d}, {p}) outside the case table "
                     "(i) d=1, p<=3; (ii) d=2 or p<=1+2/d; "
                     "(iii) 1+2/d<=p<=min(1+4/(d+2),p*); (iv) 3<=d<=5 above that")


def subcritical_flow_gap(ex: ExponentSet) -> float:
    """Improved entropy-production gap 4*alpha under mass+center constraints."""
    return 4.0 * ex.alpha


@dataclass(frozen=True)
class CriticalGap:
    """Critical-case gap parameter and its two published branches."""

    a_gap: float
    a_low: float          # (d+2)^2/(8d), stated for 3 <= d <= 6
    a_high: float         # 2(d-2)/d, stated for d >= 6
    eta_low: float        # (d-2)^2/(8d), stated for 3 <= d <= 6
    eta_high: float       # 2(d-4)/d, stated for d >= 6
    eta: float
    eta_branches_agree: bool


def critical_gap_parameters(d: int) -> CriticalGap:
    """Gap parameter a and improvement eta at the critical exponent.

    The two a-branches agree at d = 6; the two eta-branches do not
    ((d-2)^2/(8d) = 1/3 versus 2(d-4)/d = 2/3 there).  Both are returned
    and the discrepancy is flagged rather than resolved; ``eta`` carries
    the low branch for 3 <= d <= 6 and the high branch for d > 6.
    """
    if d < 3:
        raise ValueError("the critical case requires d >= 3")
    a_low = (d + 2.0) ** 2 / (8.0 * d)
    a_high = 2.0 * (d - 2.0) / d
    eta_low = (d - 2.0) ** 2 / (8.0 * d)
    eta_high = 2.0 * (d - 4.0) / d
    a_gap = a_low if d <= 6 else a_high
    eta = eta_low if d <= 6 else eta_high
    return CriticalGap(a_gap=a_gap, a_low=a_low, a_high=a_high,
                       eta_low=eta_low, eta_high=eta_high, eta=eta,
                       eta_branches_agree=math.isclose(eta_low, eta_high,
                                                       rel_tol=1e-12))


# -- discretized radial oracle ----------------------------------------------


def discretized_radial_eigs(query: SpectrumQuery, mesh: np.ndarray) -> np.ndarray:
    """Radial-sector eigenvalues from a P1 finite-element discretization.

    Assembles the quadratic forms int |u'|^2 (1+r^2)^a r^{d-1} dr against
    int u^2 (1+r^2)^{a-1} r^{d-1} dr with natural boundary conditions and
    returns the lowest six generalized eigenvalues (the first is the zero
    mode of the constants), found by shift-invert Lanczos (ARPACK) below
    zero from a fixed start vector, so one query on one mesh always gives
    the same bits.  The first nonzero eigenvalue is recomputed on the mesh
    thinned by half, and a disagreement above 5% raises, flagging a mesh
    too coarse to trust.
    """
    vals = _fem_radial_eigs(query, mesh, 6)
    # mesh[::2] keeps the first node, which the fine-mesh call checked is 0
    coarse = _fem_radial_eigs(query, np.asarray(mesh, dtype=float)[::2], 2)
    gap = abs(coarse[1] - vals[1]) / abs(vals[1])
    if gap > 0.05:
        raise ValueError(
            f"mesh too coarse: refinement changes the first nonzero "
            f"eigenvalue by {gap:.1%} (> 5%)")
    return vals


def _fem_radial_eigs(query: SpectrumQuery, mesh: np.ndarray,
                     n_eigs: int) -> np.ndarray:
    """The lowest ``n_eigs`` eigenvalues of the P1 pencil on one mesh.

    The constants span ker A, so the shift sits below zero.  ARPACK
    replaces a start vector that lies in an invariant subspace (such as
    the constants) by a random one, so v0 is fixed and not constant.
    """
    A, B = _fem_pencil(query, mesh)
    v0 = np.linspace(1.0, 2.0, A.shape[0])
    vals = eigsh(A, n_eigs, M=B, sigma=-1.0, which="LM", v0=v0,
                 return_eigenvectors=False)
    return np.sort(vals)


def _fem_pencil(query: SpectrumQuery, mesh: np.ndarray):
    """Stiffness A and consistent mass B of the P1 radial pencil, both
    sparse tridiagonal (CSC)."""
    if not query.a < -(query.d - 2.0) / 2.0:
        raise ValueError("no discrete spectrum for a >= -(d-2)/2")
    r = np.asarray(mesh, dtype=float)
    if r.ndim != 1 or r[0] != 0.0 or np.any(np.diff(r) <= 0.0):
        raise ValueError("mesh must be 1D, increasing, starting at 0")
    d, a = query.d, query.a
    n = r.size
    h = np.diff(r)
    lo, hi = r[:-1], r[1:]

    # 8-point Gauss-Legendre per element
    x, w = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * x[None, :]

    def seg_integral(vals):
        return (vals * w[None, :]).sum(axis=1) * half

    w_stiff = seg_integral((1.0 + pts ** 2) ** a * pts ** (d - 1))
    stiff_diag = np.zeros(n)
    stiff_off = -w_stiff / h ** 2
    stiff_diag[:-1] += w_stiff / h ** 2
    stiff_diag[1:] += w_stiff / h ** 2

    # consistent P1 mass matrix entries per element
    wmass = (1.0 + pts ** 2) ** (a - 1.0) * pts ** (d - 1)
    m_ll = seg_integral(wmass * ((hi[None].T - pts) / h[:, None]) ** 2)
    m_rr = seg_integral(wmass * ((pts - lo[None].T) / h[:, None]) ** 2)
    m_lr = seg_integral(wmass * (hi[None].T - pts)
                        * (pts - lo[None].T) / h[:, None] ** 2)
    mass_diag = np.zeros(n)
    mass_diag[:-1] += m_ll
    mass_diag[1:] += m_rr

    A = diags([stiff_off, stiff_diag, stiff_off], [-1, 0, 1], format="csc")
    B = diags([m_lr, mass_diag, m_lr], [-1, 0, 1], format="csc")
    return A, B


def radial_oracle_mesh(r_max: float = 120.0, n: int = 900) -> np.ndarray:
    """Graded mesh adapted to polynomial eigenfunctions with fat weights:
    uniform on [0, 10] with 0.6 n nodes, geometric out to r_max."""
    k = int(0.6 * n)
    return graded_mesh(10.0, k - 1, r_max, n - k)
