"""Closed-form Barenblatt / Aubin-Talenti profiles and optimal constants.

All Gamma-function combinations are evaluated through log-Gamma and only
exponentiated at the end, so the formulas stay stable for large arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ExponentSet


def omega_d(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def log_integral_inv_power(d: int, s: float) -> float:
    """ln of int_{R^d} (1+|x|^2)^(-s) dx = pi^{d/2} Gamma(s-d/2)/Gamma(s)."""
    if s <= d / 2.0:
        raise ValueError(f"integral diverges: need s > d/2, got s={s}, d={d}")
    return 0.5 * d * math.log(math.pi) + math.lgamma(s - d / 2.0) - math.lgamma(s)


def barenblatt(ex: ExponentSet, r) -> np.ndarray | float:
    """Stationary profile (1+r^2)^(1/(m-1))."""
    return (1.0 + np.asarray(r, dtype=float) ** 2) ** (1.0 / (ex.m - 1.0))


def dilation_power(lam: float, expo: float) -> float:
    """lam ** expo as a Python float, so that a numpy scalar lam or expo
    overflows into ``ValueError`` naming the dilation, not into inf."""
    try:
        return float(lam) ** float(expo)
    except OverflowError:
        raise ValueError(f"dilation lam = {lam} out of range: lam^{expo:g} "
                         "overflows float64") from None


def barenblatt_scaled(ex: ExponentSet, lam: float, r) -> np.ndarray | float:
    """Mass-preserving dilation lam^(-d/2) * B(r/sqrt(lam)); lam > 0."""
    if not lam > 0.0:
        raise ValueError(f"a dilation needs lam > 0, got lam = {lam}")
    return dilation_power(lam, -ex.d / 2.0) \
        * barenblatt(ex, np.asarray(r, dtype=float) / math.sqrt(lam))


@dataclass(frozen=True)
class MomentTable:
    """Exact integrals of the stationary profile B = g^{2p}.

    The one closed-form table of the profile: int B^m is also
    ||g||_{p+1}^{p+1}, since m = (p+1)/(2p).
    """

    mass: float                 # int B = ||g||_{2p}^{2p}
    second_moment: float        # int |x|^2 B
    entropy: float              # int B^m = ||g||_{p+1}^{p+1}
    pow_2m: float               # int B^(2-m)
    second_moment_pow_2m: float  # int |x|^2 B^(2-m)
    grad_sq: float              # ||grad g||_2^2


def barenblatt_mass(ex: ExponentSet) -> float:
    """int B = pi^{d/2} Gamma(1/(1-m) - d/2) / Gamma(1/(1-m))."""
    return math.exp(log_integral_inv_power(ex.d, 1.0 / (1.0 - ex.m)))


def closed_form_moments(ex: ExponentSet) -> MomentTable:
    """Gamma closed forms for mass, moments and entropy of the profile.

    Requires m > d/(d+2) so that the second moment and int B^m converge.
    """
    if ex.m <= ex.m_tilde1:
        raise ValueError(
            f"moments diverge: need m > {ex.m_tilde1} = d/(d+2), got m = {ex.m}")
    mass = barenblatt_mass(ex)
    denom = (ex.d + 2.0) * ex.m - ex.d
    return MomentTable(
        mass=mass,
        second_moment=ex.d * (1.0 - ex.m) / denom * mass,
        entropy=2.0 * ex.m / denom * mass,
        pow_2m=0.5 * ex.alpha * mass,
        second_moment_pow_2m=0.5 * ex.d * (1.0 - ex.m) * mass,
        grad_sq=4.0 * ex.d / ((ex.d + 2.0 - ex.p * (ex.d - 2.0)) * (ex.p - 1.0)) * mass,
    )


# -- optimal constants ---------------------------------------------------


def sobolev_constant(d: int) -> float:
    """Optimal constant S_d = sqrt(pi d(d-2)) (Gamma(d/2)/Gamma(d))^{1/d}."""
    if d < 3:
        raise ValueError("the critical constant requires d >= 3")
    log_sd = 0.5 * math.log(math.pi * d * (d - 2.0)) \
        + (math.lgamma(d / 2.0) - math.lgamma(float(d))) / d
    return math.exp(log_sd)


@dataclass(frozen=True)
class GNSConstants:
    """Optimal constants of the interpolation inequality for one (d, p)."""

    c_gns: float     # scale-invariant optimal constant
    c_small: float   # two-term optimization constant c(p,d)
    c_pd: float      # prefactor C(p,d) of the non-scale-invariant form
    k_gns: float     # optimal constant of the non-scale-invariant form
    sobolev: float | None  # S_d when p = p_star (d >= 3), else None


def gns_optimal_constants(ex: ExponentSet) -> GNSConstants:
    """Evaluate the optimal-constant chain for an admissible pair."""
    d, p, gamma = ex.d, ex.p, ex.gamma
    if ex.is_critical:
        # p*(d-2) rounds near d, so snap the degenerate quantities exactly
        theta, denom, c_small = 1.0, 2.0, 1.0
    else:
        theta, denom = ex.theta, d + 2.0 - p * (d - 2.0)
        a = 2.0 - d + d / p
        b = d * (p - 1.0) / (2.0 * p)
        c_small = (b / a) ** (a / (a + b)) + (a / b) ** (b / (a + b))
    s = 2.0 * p / (p - 1.0)

    log_cgns = 0.5 * theta * math.log(4.0 * d * math.pi / (p - 1.0)) \
        + (1.0 - theta) / (p + 1.0) * math.log(2.0 * (p + 1.0)) \
        - (d - p * (d - 4.0)) / (2.0 * p * denom) * math.log(denom) \
        + theta / d * (math.lgamma(s - d / 2.0) - math.lgamma(s))
    c_gns = math.exp(log_cgns)

    log_inner = theta * math.log(p - 1.0)
    if not ex.is_critical:
        log_inner += (1.0 - theta) / (p + 1.0) \
            * math.log(4.0 * (d - p * (d - 2.0)) / (p + 1.0))
    c_pd = c_small * math.exp(2.0 * p * gamma * log_inner)
    k_gns = c_pd * math.exp(2.0 * p * gamma * log_cgns)

    return GNSConstants(
        c_gns=c_gns, c_small=c_small, c_pd=c_pd, k_gns=k_gns,
        sobolev=sobolev_constant(d) if ex.is_critical else None,
    )


# -- the self-similar solution family ------------------------------------


@dataclass(frozen=True)
class BarenblattSpec:
    """A member of the self-similar family: mass, dilation and time shift."""

    exponents: ExponentSet
    mass: float | None = None     # None means the canonical mass int B
    lam: float = 1.0              # mass-preserving dilation of the profile
    time_shift: float = 0.0       # >= -1/alpha

    def __post_init__(self):
        if self.mass is not None and not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.time_shift < -1.0 / self.exponents.alpha - 1e-15:
            raise ValueError(
                f"time_shift must be >= -1/alpha = {-1.0 / self.exponents.alpha}")

    def resolved_mass(self) -> float:
        return barenblatt_mass(self.exponents) if self.mass is None else self.mass


def eval_barenblatt(spec: BarenblattSpec, t: float, r) -> np.ndarray | float:
    """Value of the self-similar solution at time t and radius r.

    The expansion factor is R(t') = (1 + alpha t')^{1/alpha} with
    t' = t + time_shift, and a dilation ``lam`` is applied to the resulting
    snapshot without changing its mass.
    """
    ex = spec.exponents
    if t < max(0.0, -spec.time_shift) - 1e-15:
        raise ValueError(
            f"t = {t} out of domain; need t >= {max(0.0, -spec.time_shift)}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    mass_ratio = spec.resolved_mass() / barenblatt_mass(ex)
    pow_R = 1.0 + ex.alpha * (t + spec.time_shift)
    R = pow_R ** (1.0 / ex.alpha)
    lb = ex.lambda_bullet
    # the dilation lam acts on the spatial snapshot; r/sqrt(1) and 1**x are
    # exact, so lam = 1 needs no separate branch
    y = mass_ratio ** ((1.0 - ex.m) / ex.alpha) * lb * (r / math.sqrt(spec.lam)) / R
    return spec.lam ** (-ex.d / 2.0) * mass_ratio ** (2.0 / ex.alpha) \
        * (lb / R) ** ex.d * barenblatt(ex, y)
