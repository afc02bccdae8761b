"""Exponent bookkeeping for the fast-diffusion / interpolation dictionary.

Every other module works with a fixed pair (d, m) or equivalently (d, p),
related by p = 1/(2m-1).  This module derives and validates the complete
set of structural exponents once, so downstream code never recomputes or
re-checks them.

Conventions:
  * m_c = (d-2)/d for d >= 2 and m_c = 0 for d = 1 (documented convention
    of the source material).  Because of the d = 1 convention, the
    identity alpha = d*(m - m_c) holds only for d >= 2; alpha is always
    defined as 2 - d*(1-m), which is the exponent entering every scaling
    formula in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ExponentSet:
    """All derived exponents for an admissible (d, m) <-> (d, p) pair."""

    d: int
    m: float
    p: float
    theta: float
    gamma: float
    alpha: float
    m_c: float
    m_1: float
    m_tilde1: float
    lambda_bullet: float

    # phase-plane coefficients of the second-moment system
    @property
    def a_param(self) -> float:
        """Coefficient 2d(1-m)/m coupling entropy into the second moment."""
        return 2.0 * self.d * (1.0 - self.m) / self.m

    @property
    def b_param(self) -> float:
        """Entropy relaxation coefficient 2*alpha."""
        return 2.0 * self.alpha

    @property
    def is_critical(self) -> bool:
        """m is m_1 to 1e-12, on either side of it, with d >= 3."""
        return self.d >= 3 and abs(self.m - self.m_1) < 1e-12

    @property
    def xm_tail_exponent(self) -> float:
        """Exponent alpha/(1-m) of the tail-decay norm."""
        return self.alpha / (1.0 - self.m)


def derive_exponents(d: int, m: float | None = None, p: float | None = None) -> ExponentSet:
    """Populate an :class:`ExponentSet` from dimension and either m or p.

    Exactly one of ``m`` (in (1/2, 1)) or ``p`` (> 1, and <= d/(d-2) when
    d >= 3) must be given.  Raises ``ValueError`` on any violation.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if (m is None) == (p is None):
        raise ValueError("specify exactly one of m or p")

    if m is not None:
        if not (0.5 < m < 1.0):
            raise ValueError(f"m must lie in (1/2, 1), got {m}")
        p = 1.0 / (2.0 * m - 1.0)
    else:
        assert p is not None
        if not (p > 1.0):
            raise ValueError(f"p must be > 1, got {p}")
        m = (p + 1.0) / (2.0 * p)
        # p + 1 rounds to p from p = 2^53 on (m = 1/2), 2 p overflows from
        # about 9e307 on (m = 0), and p = inf gives m = nan
        if not (0.5 < m < 1.0):
            raise ValueError(f"p = {p} maps to m = {m}, outside (1/2, 1)")

    p_star = d / (d - 2.0) if d >= 3 else math.inf
    if d >= 3 and p > p_star * (1.0 + 1e-14):
        raise ValueError(f"p = {p} exceeds p_star = {p_star} for d = {d}")

    denom = d + 2.0 - p * (d - 2.0)  # positive on the admissible range
    theta = d * (p - 1.0) / (denom * p)
    gamma = denom / (d - p * (d - 4.0))
    alpha = 2.0 - d * (1.0 - m)
    m_c = 0.0 if d == 1 else (d - 2.0) / d
    lambda_bullet = ((1.0 - m) / (2.0 * m)) ** (1.0 / alpha)

    return ExponentSet(
        d=d, m=m, p=p, theta=theta, gamma=gamma, alpha=alpha,
        m_c=m_c, m_1=(d - 1.0) / d, m_tilde1=d / (d + 2.0),
        lambda_bullet=lambda_bullet,
    )
