"""Entropy-method functionals on radial fields.

Everything here acts on a :class:`~fdstab.fields.RadialField` holding the
density v = f^{2p}.  The free energy, Fisher information, deficit,
tail-decay norm, the Csiszar-Kullback bound, best-matching optimizer
parameters and the normalization map are all evaluated against the
stationary profile B = (1+r^2)^{1/(m-1)} (or its dilations).

Every functional relative to B itself (the free energy, the relative
moments of :func:`entropy_report` and the Csiszar-Kullback bound) takes
B sampled on the field's own mesh and differences the two nodally
(:func:`relative_entropy`), so the shared quadrature bias cancels.  The
relative entropy E[f | g_{lam,mu}] of f = v^{1/(2p)} against a general
optimizer (:func:`_relative_entropy`) is formed from the field's norms and
the closed-form norm of g_{lam,mu}; best matching, the normalization map
and the escape family measure against it.

Sign conventions: the deficit of a density, delta[v] = ((1-m)/m) (I - 4F),
agrees with the deficit of f = v^{1/(2p)} up to the factor
(p+1)/(p-1) = m/(1-m) used in the identity tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (DivergentTailError, RadialField, gradient_integral,
                     require_profile_mass)
from .params import ExponentSet
from .profiles import barenblatt_mass, closed_form_moments, gns_optimal_constants


@dataclass(frozen=True)
class EntropyReport:
    """Snapshot of the entropy bookkeeping for one field."""

    free_energy: float       # F relative to the sampled profile
    fisher: float            # I, the entropy production
    quotient: float          # Q = I/F (inf if F == 0)
    mass: float
    second_moment: float
    rel_second_moment: float  # K = second moment - the profile's
    rel_entropy: float        # S = int v^m - the profile's
    deficit: float            # ((1-m)/m) (I - 4F)


def _relative_entropy(ex: ExponentSet, pf: float, mf: float, xf: float,
                      lam: float, mu: float) -> float:
    """E[f | g_{lam,mu}] from pf = int f^{p+1}, mf = int f^{2p}, xf = int |x|^2 f^{2p}.

    The optimizer's norm is the closed form ||g||_{p+1}^{p+1} = int B^m.
    """
    p = ex.p
    pref = lam ** (ex.d / (2.0 * p)) * mu ** (1.0 / (2.0 * p))
    p_g = pref ** (p + 1.0) * lam ** (-ex.d) * closed_form_moments(ex).entropy
    c_lm = pref ** (1.0 - p)
    return 2.0 * p / (1.0 - p) * (pf - p_g) \
        + (p + 1.0) / (p - 1.0) * (c_lm * (mf + lam ** 2 * xf) - p_g)


def relative_entropy(field: RadialField, ref: RadialField) -> float:
    """Free energy F[v] against the profile ``ref`` sampled on the same mesh.

    Both integrands are differenced nodally before quadrature, so the
    systematic quadrature bias cancels; tail contributions are
    differenced through the two tail models.  The result vanishes only
    when the fields coincide on the mesh *and* carry the same tail, and a
    field against itself reads exactly 0.  Returns ``inf`` when the second
    moment of the field diverges.
    """
    ex = field.exponents
    if ref.r.shape != field.r.shape or np.any(ref.r != field.r):
        raise ValueError("reference must share the mesh")
    m = ex.m
    ent = field.quad(np.maximum(field.v, 0.0) ** m - np.maximum(ref.v, 0.0) ** m)
    lin = field.quad((1.0 + field.r ** 2) * (field.v - ref.v))
    try:
        ent += field.tail_integral(m) - ref.tail_integral(m)
        lin += (field.tail_integral(1.0) - ref.tail_integral(1.0)) \
            + (field.tail_integral(1.0, 2) - ref.tail_integral(1.0, 2))
    except DivergentTailError:
        # of the three tails the second moment's diverges first
        return math.inf
    return (ent - m * lin) / (m - 1.0)


def fisher_information(field: RadialField) -> float:
    """Relative Fisher information I[v] = m/(1-m) int v |d_r(v^{m-1}) - 2r|^2.

    Densities are floored at 1e-300 before forming v^{m-1}; the analytic
    tail of the integrand is integrated term by term.
    """
    ex = field.exponents
    slope = field.pressure_slope() - 2.0 * field.r
    val = field.quad(field.v * slope ** 2)
    if field.tail.amplitude > 0.0:
        A, rho, d = field.tail.amplitude, field.tail.power, ex.d
        c1 = rho * (ex.m - 1.0) * A ** (ex.m - 1.0)
        for coeff, expo in (
                (A * c1 ** 2, d - 2 + rho * (2.0 * ex.m - 1.0)),
                (-4.0 * A * c1, d + rho * ex.m),
                (4.0 * A, d + 2 + rho)):
            val += field.power_tail(coeff, expo)
    return ex.m / (1.0 - ex.m) * val


def entropy_report(field: RadialField, ref: RadialField) -> EntropyReport:
    """Entropy bookkeeping of one field against the profile ``ref`` sampled
    on the same mesh: the free energy through :func:`relative_entropy`, K
    and S against the reference's own quadrature, which the reference
    keeps across calls, so the shared quadrature bias cancels.
    """
    ex = field.exponents
    f_val = relative_entropy(field, ref)
    xsq_ref, s_ref = ref.second_moment(), ref.entropy_integral()
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


def _gns_deficit(ex: ExponentSet, grad_sq: float, lp1: float, mass: float) -> float:
    """GNS deficit (p-1)^2 ||grad f||^2 + 4(d-p(d-2))/(p+1) int f^{p+1} - K M^gamma."""
    return (ex.p - 1.0) ** 2 * grad_sq \
        + 4.0 * (ex.d - ex.p * (ex.d - 2.0)) / (ex.p + 1.0) * lp1 \
        - gns_optimal_constants(ex).k_gns * mass ** ex.gamma


def deficit(field: RadialField) -> float:
    """Deficit of f = v^{1/(2p)} in the non-scale-invariant inequality."""
    return _gns_deficit(field.exponents, gradient_integral(field),
                        field.entropy_integral(), field.mass())


def heisenberg_sides(field: RadialField) -> tuple[float, float]:
    """Both sides of ((d/(p+1)) int f^{p+1})^2 <= int |grad f|^2 int |x|^2 f^{2p}."""
    ex = field.exponents
    lhs = (ex.d / (ex.p + 1.0) * field.entropy_integral()) ** 2
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
    if field.tail.amplitude > 0.0:
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


def csiszar_kullback_gap(field: RadialField, ref: RadialField) -> tuple[float, float]:
    """(lhs, rhs) of ||v - B||_1^2 <= (4 alpha / m) M F[v] at mass M, with B
    the profile ``ref`` sampled on the field's mesh.

    The f-side form against the optimizer g, with g^{2p} = B and
    E[f|g] = F[v], has the constant (8p/(p+1)) int g^{3p-1}.  Since
    8p/(p+1) = 4/m and g^{3p-1} = B^{2-m}, that constant is
    (4/m) int B^{2-m}, the ``pow_2m`` entry of
    :class:`~fdstab.profiles.MomentTable`.  With s = 1/(1-m),
    int B^{2-m} = pi^{d/2} Gamma(s+1-d/2)/Gamma(s+1) is (s-d/2)/s = alpha/2
    times int B by Gamma(s+1) = s Gamma(s), so the f-side constant is
    (2 alpha/m) M, half of this one: its ratio rhs/lhs is half of this
    bound's.

    Rejects fields whose mass is not the profile mass to 1e-6
    (:func:`~fdstab.fields.require_profile_mass`).  A confined run's
    snapshots drift off it by up to 4.4e-5 relative (see
    :class:`~fdstab.flow.Trajectory`), so they pass only through
    :func:`~fdstab.fields.normalized_to_profile_mass`.
    """
    require_profile_mass(field)
    ex = field.exponents
    l1 = _l1_to_profile(field, ref)
    return l1 * l1, 4.0 * ex.alpha / ex.m * barenblatt_mass(ex) \
        * relative_entropy(field, ref)


def _l1_to_profile(field: RadialField, ref: RadialField) -> float:
    """||v - B||_1 against the sampled profile, with the tail beyond the mesh.

    The tail part is exact when the two tails share their decay power;
    otherwise the two tails are added, which overestimates but keeps the
    bound safe.
    """
    l1 = field.quad(np.abs(field.v - ref.v))
    if abs(field.tail.power - ref.tail.power) < 1e-12:
        return l1 + abs(field.tail.amplitude - ref.tail.amplitude) \
            * field.power_tail(1.0, field.exponents.d + ref.tail.power)
    return l1 + (field.tail_integral(1.0) + ref.tail_integral(1.0))


# -- best matching ---------------------------------------------------------


@dataclass(frozen=True)
class BestMatch:
    """Best-matching optimizer parameters of a radial field."""

    lam: float
    mu: float
    y: float        # identically 0 for radial fields
    entropy: float  # E[f | g_f]


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
                     entropy=_relative_entropy(ex, field.entropy_integral(), mf, xf,
                                               lam, mu))


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
    pf = field.entropy_integral()
    grad_sq = gradient_integral(field)
    expo = 2.0 * p / (ex.d - p * (ex.d - 4.0))
    sigma = (2.0 * ex.d * kappa ** (p - 1.0) / (p * p - 1.0) * pf / grad_sq) ** expo
    tail_expo = (ex.d - p * (ex.d - 4.0)) / (p - 1.0)  # = alpha/(1-m) for v
    a_p = mass_g / (sigma ** tail_expo * mf) * xm_norm(field)
    # scaling identity: E[N f | g] = kappa^{p+1} sigma^{-d(p-1)/(2p)}
    # E[f | g_{1/sigma, kappa^{-2p}}]
    e_p = kappa ** (p + 1.0) * sigma ** (-ex.d * (p - 1.0) / (2.0 * p)) \
        * _relative_entropy(ex, pf, mf, field.second_moment(), 1.0 / sigma,
                            kappa ** (-2.0 * p))
    return Normalization(sigma=sigma, kappa=kappa, a_p=a_p, e_p=e_p)
