"""Entropy-method functionals on radial fields.

Everything here acts on a :class:`~fdstab.fields.RadialField` holding the
density v = f^{2p}.  The free energy, Fisher information, deficit,
tail-decay norm, Csiszar-Kullback bounds, best-matching optimizer
parameters, the normalization map and the rigidity residual are all
evaluated against the stationary profile B = (1+r^2)^{1/(m-1)} (or its
dilations), whose integrals are known in closed form and are used exactly
instead of being re-quadratured.

Sign conventions: the deficit of a density, delta[v] = ((1-m)/m) (I - 4F),
agrees with the deficit of f = v^{1/(2p)} up to the factor
(p+1)/(p-1) = m/(1-m) used in the identity tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (DivergentTailError, RadialField, TailModel, gradient_integral,
                     profile_tail)
from .profiles import (barenblatt, barenblatt_mass, closed_form_moments, g_norms,
                       gns_optimal_constants, log_integral_inv_power)


@dataclass(frozen=True)
class EntropyReport:
    """Snapshot of the entropy bookkeeping for one field."""

    free_energy: float       # F relative to the stationary profile
    fisher: float            # I, the entropy production
    quotient: float          # Q = I/F (inf if F == 0)
    mass: float
    second_moment: float
    rel_second_moment: float  # K = second moment - K_star
    rel_entropy: float        # S = int v^m - S_star
    deficit: float            # ((1-m)/m) (I - 4F)


def relative_entropy(field: RadialField) -> float:
    """Free energy F[v] relative to the stationary profile of same mass scale.

    Uses the algebraic split F = (S_v - S_B - m[(M_v - M_B) + (X_v - X_B)])
    / (m-1) with the profile integrals taken in closed form.  Returns
    ``inf`` when the second moment of the field diverges.
    """
    ex = field.exponents
    mt = closed_form_moments(ex)
    try:
        xv = field.second_moment()
    except DivergentTailError:
        return math.inf
    sv = field.entropy_integral()
    mv = field.mass()
    return (sv - mt.entropy
            - ex.m * ((mv - mt.mass) + (xv - mt.second_moment))) / (ex.m - 1.0)


@dataclass(frozen=True)
class FixedReference:
    """A reference field with the integrals the differenced reports read.

    A flow reports every saved snapshot against one fixed reference, so
    the reference's integrals are taken once, by :meth:`of`.
    """

    field: RadialField
    second_moment: float
    entropy: float            # int v^m
    tail_entropy: float       # tail integrals of v^m, v and |x|^2 v
    tail_mass: float
    tail_moment: float

    @classmethod
    def of(cls, field: RadialField) -> "FixedReference":
        m = field.exponents.m
        return cls(field, field.second_moment(), field.entropy_integral(),
                   field.tail_integral(m), field.tail_integral(1.0),
                   field.tail_integral(1.0, 2))


def relative_entropy_pair(field: RadialField, ref: FixedReference) -> float:
    """F[v] against a reference sampled on the same mesh.

    Both integrands are differenced nodally before quadrature, so the
    systematic quadrature bias cancels; tail contributions are
    differenced through the two tail models.  The result vanishes only
    when the fields coincide on the mesh *and* carry the same tail.  The
    flow solvers, whose discrete stationary state is the nodal profile,
    refit a snapshot's tail amplitude at the last node while their
    reference carries the profile's exact one, so the sampled profile
    itself reads F = -6.4e-12 at (d, m) = (3, 3/4) and F = +4.0e-8 at
    (3, 2/3) on the default meshes (r_max = 50).
    """
    ex = field.exponents
    ref_r, ref_v = ref.field.r, ref.field.v
    if ref_r.shape != field.r.shape or np.any(ref_r != field.r):
        raise ValueError("reference must share the mesh")
    m = ex.m
    ent = field.quad(np.maximum(field.v, 0.0) ** m - np.maximum(ref_v, 0.0) ** m)
    lin = field.quad((1.0 + field.r ** 2) * (field.v - ref_v))
    ent += field.tail_integral(m) - ref.tail_entropy
    lin += (field.tail_integral(1.0) - ref.tail_mass) \
        + (field.tail_integral(1.0, 2) - ref.tail_moment)
    return (ent - m * lin) / (m - 1.0)


def fisher_information(field: RadialField) -> float:
    """Relative Fisher information I[v] = m/(1-m) int v |d_r(v^{m-1}) - 2r|^2.

    Densities are floored at 1e-300 before forming v^{m-1}; the analytic
    tail of the integrand is integrated term by term.
    """
    ex = field.exponents
    slope = field.pressure_slope() - 2.0 * field.r
    val = field.quad(field.v * slope ** 2)
    if field.tail is not None and field.tail.amplitude > 0.0:
        A, rho, d = field.tail.amplitude, field.tail.power, ex.d
        c1 = rho * (ex.m - 1.0) * A ** (ex.m - 1.0)
        for coeff, expo in (
                (A * c1 ** 2, d - 2 + rho * (2.0 * ex.m - 1.0)),
                (-4.0 * A * c1, d + rho * ex.m),
                (4.0 * A, d + 2 + rho)):
            val += field.power_tail(coeff, expo)
    return ex.m / (1.0 - ex.m) * val


def entropy_report(field: RadialField,
                   ref: FixedReference | None = None) -> EntropyReport:
    """Entropy bookkeeping of one field.

    Without ``ref`` the relative quantities are taken against the closed
    forms of the profile.  With a reference sampled on the same mesh they
    are differenced against it (free energy through
    :func:`relative_entropy_pair`, K and S against the reference's own
    quadrature), so the shared quadrature bias cancels.
    """
    ex = field.exponents
    if ref is None:
        mt = closed_form_moments(ex)
        f_val = relative_entropy(field)
        xsq_ref, s_ref = mt.second_moment, mt.entropy
    else:
        f_val = relative_entropy_pair(field, ref)
        xsq_ref, s_ref = ref.second_moment, ref.entropy
    i_val = fisher_information(field)
    xsq = field.second_moment()
    return EntropyReport(
        free_energy=f_val, fisher=i_val,
        quotient=i_val / f_val if f_val > 0.0 else math.inf,
        mass=field.mass(), second_moment=xsq,
        rel_second_moment=xsq - xsq_ref,
        rel_entropy=field.entropy_integral() - s_ref,
        deficit=(1.0 - ex.m) / ex.m * (i_val - 4.0 * f_val),
    )


# -- deficit of f = v^{1/(2p)} -------------------------------------------


def deficit(field: RadialField) -> float:
    """Deficit of f = v^{1/(2p)} in the non-scale-invariant inequality."""
    ex = field.exponents
    k_gns = gns_optimal_constants(ex).k_gns
    grad_sq = gradient_integral(field)
    lp1 = field.integrate_power((ex.p + 1.0) / (2.0 * ex.p))
    mass = field.mass()
    return (ex.p - 1.0) ** 2 * grad_sq \
        + 4.0 * (ex.d - ex.p * (ex.d - 2.0)) / (ex.p + 1.0) * lp1 \
        - k_gns * mass ** ex.gamma


def heisenberg_sides(field: RadialField) -> tuple[float, float]:
    """Both sides of ((d/(p+1)) int f^{p+1})^2 <= int |grad f|^2 int |x|^2 f^{2p}."""
    ex = field.exponents
    lhs = (ex.d / (ex.p + 1.0) * field.integrate_power((ex.p + 1.0) / (2.0 * ex.p))) ** 2
    rhs = gradient_integral(field) * field.second_moment()
    return lhs, rhs


# -- tail-decay norm -------------------------------------------------------


def xm_norm(field: RadialField) -> float:
    """sup_r r^{alpha/(1-m)} * (mass of the field beyond r).

    The supremum is taken over the mesh nodes; inside the analytic tail the
    objective is a pure power of r, so it is increasing, constant or
    decreasing there, and only the divergent case needs a flag (returned
    as ``inf``).
    """
    ex = field.exponents
    expo = ex.xm_tail_exponent
    beyond = field.mass_beyond()
    sup = float(np.max(field.r[1:] ** expo * beyond[1:]))
    if field.tail is not None and field.tail.amplitude > 0.0:
        tail_expo = expo + ex.d + field.tail.power
        if tail_expo > 1e-12:
            return math.inf
    return sup


def second_moment_bound_sides(field: RadialField) -> tuple[float, float]:
    """(second moment, mass + 4 (1 - 2^{2 - alpha/(1-m)})^{-1} tail norm).

    The dyadic-shell estimate bounding the second moment by the
    tail-decay norm; requires alpha/(1-m) > 2, which is the moment
    convergence condition.
    """
    ex = field.exponents
    expo = ex.xm_tail_exponent
    if expo <= 2.0:
        raise ValueError("the bound requires alpha/(1-m) > 2")
    lhs = field.second_moment()
    rhs = field.mass() + 4.0 / (1.0 - 2.0 ** (2.0 - expo)) * xm_norm(field)
    return lhs, rhs


def xm_growth_bound(xm0: float, ex, c3: float) -> float:
    """Self-similar-variables growth cap 2^{2a/(1-m)} max{1, c3 a^{-1/a}} (1 + xm0)."""
    return 2.0 ** (2.0 * ex.alpha / (1.0 - ex.m)) \
        * max(1.0, c3 * ex.alpha ** (-1.0 / ex.alpha)) * (1.0 + xm0)


# -- Csiszar-Kullback ------------------------------------------------------


def csiszar_kullback_gap(field: RadialField) -> tuple[float, float]:
    """(lhs, rhs) of ||v - B||_1^2 <= (4 alpha / m) M F[v] at mass M.

    Rejects fields whose mass differs from the profile mass by more than
    1e-6 relative.
    """
    ex = field.exponents
    mass_b = barenblatt_mass(ex)
    if abs(field.mass() - mass_b) > 1e-6 * mass_b:
        raise ValueError("Csiszar-Kullback comparison requires mass int B")
    l1 = field.quad(np.abs(field.v - barenblatt(ex, field.r)))
    l1 += _tail_l1_difference(field)
    rhs = 4.0 * ex.alpha / ex.m * mass_b * relative_entropy(field)
    return l1 * l1, rhs


def _tail_l1_difference(field: RadialField) -> float:
    """Tail of ||v - B||_1 beyond the mesh.

    Exact when the field tail has the profile decay power; otherwise the
    two tails are added, which overestimates but keeps the bound safe.
    """
    rho_b = profile_tail(field.exponents).power
    b_tail = field.power_tail(1.0, field.exponents.d + rho_b)
    if field.tail is not None and abs(field.tail.power - rho_b) < 1e-12:
        return abs(field.tail.amplitude - 1.0) * b_tail
    return field.tail_integral(1.0) + b_tail


def csiszar_kullback_fg_gap(field: RadialField) -> tuple[float, float]:
    """(lhs, rhs) of the f-side bound against the optimizer g.

    lhs = ||f^{2p} - g^{2p}||_1^2 and rhs = (8p/(p+1)) (int g^{3p-1}) E[f|g],
    for fields normalized to ||f||_{2p} = ||g||_{2p}.
    """
    ex = field.exponents
    mass_b = barenblatt_mass(ex)
    if abs(field.mass() - mass_b) > 1e-6 * mass_b:
        raise ValueError("this bound requires ||f||_2p = ||g||_2p")
    lhs, _ = csiszar_kullback_gap(field)  # g^{2p} = B
    s = (3.0 * ex.p - 1.0) / (ex.p - 1.0)
    g3p = math.exp(log_integral_inv_power(ex.d, s))
    rhs = 8.0 * ex.p / (ex.p + 1.0) * g3p * relative_entropy(field)
    return lhs, rhs


# -- best matching ---------------------------------------------------------


@dataclass(frozen=True)
class BestMatch:
    """Best-matching optimizer parameters of a radial field."""

    lam: float
    mu: float
    y: float        # identically 0 for radial fields
    entropy: float  # E[f | g_f]


def entropy_vs_optimizer(field: RadialField, lam: float = 1.0, mu: float = 1.0) -> float:
    """E[f | g_{lam,mu,0}] via quadrature scalars and exact optimizer norms."""
    ex = field.exponents
    p = ex.p
    gn = g_norms(ex)
    pf = field.integrate_power((p + 1.0) / (2.0 * p))
    mf = field.mass()
    xf = field.second_moment()
    pref = lam ** (ex.d / (2.0 * p)) * mu ** (1.0 / (2.0 * p))
    p_g = pref ** (p + 1.0) * lam ** (-ex.d) * gn["lp1"]
    c_lm = pref ** (1.0 - p)
    return 2.0 * p / (1.0 - p) * (pf - p_g) \
        + (p + 1.0) / (p - 1.0) * (c_lm * (mf + lam ** 2 * xf) - p_g)


def best_match(field: RadialField) -> BestMatch:
    """Scaling and normalization of the entropy-minimizing optimizer."""
    ex = field.exponents
    mf = field.mass()
    if mf <= 0.0:
        raise ValueError("best matching is undefined for the zero field")
    xf = field.second_moment()
    mu = mf / barenblatt_mass(ex)
    denom = ex.d + 2.0 - ex.p * (ex.d - 2.0)
    lam = math.sqrt(ex.d * (ex.p - 1.0) / denom * mf / xf)
    return BestMatch(lam=lam, mu=mu, y=0.0,
                     entropy=entropy_vs_optimizer(field, lam, mu))


# -- normalization map -----------------------------------------------------


@dataclass(frozen=True)
class Normalization:
    """Scale parameters and normalized entropy of a field."""

    sigma: float
    kappa: float
    a_p: float      # scale-invariant tail-norm functional
    e_p: float      # E[N f | g]


def normalization_map(field: RadialField) -> Normalization:
    ex = field.exponents
    p = ex.p
    mf = field.mass()
    if mf <= 0.0:
        raise ValueError("normalization is undefined for the zero field")
    mass_g = barenblatt_mass(ex)
    kappa = (mass_g / mf) ** (1.0 / (2.0 * p))
    pf = field.integrate_power((p + 1.0) / (2.0 * p))
    grad_sq = gradient_integral(field)
    expo = 2.0 * p / (ex.d - p * (ex.d - 4.0))
    sigma = (2.0 * ex.d * kappa ** (p - 1.0) / (p * p - 1.0) * pf / grad_sq) ** expo
    tail_expo = (ex.d - p * (ex.d - 4.0)) / (p - 1.0)  # = alpha/(1-m) for v
    a_p = mass_g / (sigma ** tail_expo * mf) * xm_norm(field)
    e_p = normalized_entropy(field, sigma, kappa)
    return Normalization(sigma=sigma, kappa=kappa, a_p=a_p, e_p=e_p)


def normalized_entropy(field: RadialField, sigma: float, kappa: float) -> float:
    """E[N f | g] through the transformed norms of f."""
    ex = field.exponents
    p = ex.p
    gn = g_norms(ex)
    pf = field.integrate_power((p + 1.0) / (2.0 * p))
    mf = field.mass()
    xf = field.second_moment()
    p_g = gn["lp1"]
    return 2.0 * p / (1.0 - p) * (
        kappa ** (p + 1.0) * sigma ** (-ex.d * (p - 1.0) / (2.0 * p)) * pf - p_g) \
        + (p + 1.0) / (p - 1.0) * (
            kappa ** (2.0 * p) * (mf + xf / sigma ** 2) - p_g)


def normalized_field(field: RadialField, sigma: float, kappa: float) -> RadialField:
    """The density of N f on the rescaled mesh (exact nodal transform)."""
    ex = field.exponents
    scale = sigma ** ex.d * kappa ** (2.0 * ex.p)
    tail = None
    if field.tail is not None:
        tail = TailModel(scale * sigma ** field.tail.power * field.tail.amplitude,
                         field.tail.power)
    return RadialField(ex, field.r / sigma, scale * field.v, tail)


# -- rigidity residual -----------------------------------------------------


def rigidity_residual(field: RadialField) -> tuple[float, float]:
    """The two nonnegative integrals of the rigidity identity.

    For P = ((p+1)/(p-1)) f^{1-p} on a radial mesh the traceless Hessian
    reduces to ((d-1)/d) (P'' - P'/r)^2, and the Laplacian trace term is
    measured against the constant (p+1)^2 ||grad f||^2 / ||f||_{p+1}^{p+1}.
    Both vanish identically when P is quadratic in r.  Boundary nodes are
    excluded from the differencing stencil.
    """
    ex = field.exponents
    p, d = ex.p, ex.d
    f = field.f_values()
    pressure = (p + 1.0) / (p - 1.0) * f ** (1.0 - p)
    r = field.r
    dp = np.gradient(pressure, r)
    d2p = np.gradient(dp, r)
    dp_over_r = np.empty_like(dp)
    dp_over_r[1:] = dp[1:] / r[1:]
    dp_over_r[0] = d2p[0]  # even extension at the origin
    lap = d2p + (d - 1.0) * dp_over_r

    lp1 = field.integrate_power((p + 1.0) / (2.0 * p))
    grad_sq = gradient_integral(field)
    target = (p + 1.0) ** 2 * grad_sq / lp1

    w = field.weight()
    fp1 = f ** (p + 1.0)
    trace_term = fp1 * (lap - target) ** 2 * w
    hess_term = fp1 * (d - 1.0) / d * (d2p - dp_over_r) ** 2 * w
    # boundary nodes carry one-sided stencils: drop them
    sl = slice(1, -1)
    t1 = (d - p * (d - 2.0)) * float(np.trapezoid(trace_term[sl], r[sl]))
    t2 = 2.0 * d * p * float(np.trapezoid(hess_term[sl], r[sl]))
    return t1, t2
