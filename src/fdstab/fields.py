"""Radial densities on a 1D mesh with power-law tail bookkeeping.

A :class:`RadialField` is the discrete home of the densities u, v and
f^{2p}: nonnegative nodal values on a strictly increasing radial mesh
starting at r = 0, plus the power-law model ``v ~ amplitude * r**power``
of the field beyond the last node; amplitude 0 means nothing lies beyond
the mesh.  The radial measure lives in one place: every integral is a
composite trapezoid sum with the weight omega_d r^{d-1+k}
(:meth:`RadialField.quad`), corrected by the analytic integral of its
power-law tail (:meth:`RadialField.power_tail`, which alone flags
divergence); the profile tail r^{2/(m-1)} is built by
:func:`profile_tail`.  The profiles handled here have fat tails and the
correction is what keeps truncation errors at the 1e-6 level required by
the closed-form cross-checks.

A field is measured once: its arrays are read-only (a writable input is
copied), so each power integral (:meth:`RadialField.integrate_power`,
behind the mass, the second moment and int v^m) is taken at its first
use and kept with the field.  A derived field (:meth:`~RadialField.dilated`)
is a new field and is measured afresh.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .params import ExponentSet
from .profiles import barenblatt_mass, barenblatt_scaled, dilation_power, omega_d

DENSITY_FLOOR = 1e-300
# the largest |factor - 1| normalized_to_profile_mass corrects: the data of
# the tests, the battery, the CLI and the benchmark need at most 3.8e-5
# (the battery and the benchmark 2.4e-6), while a dilation the 400-cell
# flow mesh does not resolve needs 0.13 at lambda = 1e-3 and 9.4e65 at 1e-30
MASS_FACTOR_TOL = 1e-3


class DivergentTailError(ValueError):
    """Raised when a requested integral does not converge for the tail model."""


@dataclass(frozen=True)
class TailModel:
    """Power-law continuation v(r) = amplitude * r**power beyond the mesh."""

    amplitude: float
    power: float

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError("tail amplitude must be nonnegative")
        if self.power >= 0.0:
            raise ValueError("tail power must be negative (decaying tail)")

    def through(self, r: np.ndarray, v: np.ndarray) -> "TailModel":
        """The same power law, with the amplitude fitted at the last node."""
        return TailModel(max(float(v[-1]), 0.0) / float(r[-1]) ** self.power,
                         self.power)


def profile_tail(ex: ExponentSet, amplitude: float = 1.0) -> TailModel:
    """The profile's decay amplitude * r^{2/(m-1)}; amplitude 1 is B's own."""
    return TailModel(amplitude, 2.0 / (ex.m - 1.0))


@dataclass(frozen=True)
class RadialField:
    """Nonnegative radial density sampled on a mesh, with tail metadata."""

    exponents: ExponentSet
    r: np.ndarray
    v: np.ndarray
    tail: TailModel
    # integrate_power(q, moment) by (q, moment), each taken once
    _integrals: dict = dataclasses.field(default_factory=dict, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        # read-only, so a kept integral cannot go stale: a writable input
        # is copied, which leaves the caller's array writable and apart
        # from the field; a read-only one (another field's mesh) is shared
        r, v = (a.copy() if a.flags.writeable else a for a in
                (np.asarray(self.r, dtype=float), np.asarray(self.v, dtype=float)))
        r.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        if r.ndim != 1 or v.shape != r.shape:
            raise ValueError("r and v must be 1D arrays of equal length")
        if r[0] != 0.0:
            raise ValueError("mesh must start at r = 0")
        if (r[1:] <= r[:-1]).any():
            raise ValueError("mesh must be strictly increasing")
        # NaN fails both comparisons
        if not (v.min() >= 0.0 and v.max() < np.inf):
            raise ValueError("values must be finite and nonnegative")

    # -- the radial measure ---------------------------------------------

    def weight(self, moment: int = 0) -> np.ndarray:
        """Nodal weight omega_d r^{d-1+moment} of the radial measure."""
        d = self.exponents.d
        return omega_d(d) * self.r ** (d - 1 + moment)

    def quad(self, integrand: np.ndarray, moment: int = 0) -> float:
        """Trapezoid sum of int integrand |x|^moment dx over the mesh,
        written out as np.trapezoid forms it, so it gives the same float."""
        y, r = integrand * self.weight(moment), self.r
        return float(((r[1:] - r[:-1]) * (y[1:] + y[:-1]) / 2.0).sum())

    def power_tail(self, coeff: float, expo: float) -> float:
        """int_{|x| > r_max} coeff |x|^{expo-d} dx for a power-law integrand.

        The only divergence check of the tail bookkeeping: raises
        :class:`DivergentTailError` unless expo < 0.
        """
        if expo >= 0.0:
            raise DivergentTailError(
                f"tail integral diverges (exponent {expo} >= 0)")
        return omega_d(self.exponents.d) * coeff * float(self.r[-1]) ** expo / (-expo)

    # -- integrals -----------------------------------------------------

    def integrate_power(self, q: float, moment: int = 0) -> float:
        """int v^q |x|^moment dx over R^d (quadrature plus tail), taken once."""
        key = (q, moment)
        if key not in self._integrals:
            self._integrals[key] = self.quad(np.maximum(self.v, 0.0) ** q, moment) \
                + self.tail_integral(q, moment)
        return self._integrals[key]

    def tail_integral(self, q: float, moment: int = 0) -> float:
        """Analytic integral of the tail model beyond the last node (0 for an empty tail)."""
        if self.tail.amplitude == 0.0:
            return 0.0
        return self.power_tail(self.tail.amplitude ** q,
                               self.exponents.d + moment + self.tail.power * q)

    def mass(self) -> float:
        return self.integrate_power(1.0)

    def second_moment(self) -> float:
        return self.integrate_power(1.0, moment=2)

    def entropy_integral(self) -> float:
        """int v^m dx."""
        return self.integrate_power(self.exponents.m)

    def mass_beyond(self) -> np.ndarray:
        """Tail mass int_{|x|>r_i} v dx at every node."""
        integrand = self.v * self.weight()
        seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.r)
        beyond = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        return beyond + self.tail_integral(1.0)

    # -- derived nodal quantities ---------------------------------------

    def f_values(self) -> np.ndarray:
        """Nodal values of f = v^{1/(2p)}."""
        return np.maximum(self.v, DENSITY_FLOOR) ** (1.0 / (2.0 * self.exponents.p))

    def pressure_slope(self) -> np.ndarray:
        """Radial derivative of v^{m-1} by second-order differences.

        The derivative at r = 0 vanishes by evenness of the density.
        """
        w = np.maximum(self.v, DENSITY_FLOOR) ** (self.exponents.m - 1.0)
        dw = np.gradient(w, self.r)
        dw[0] = 0.0
        return dw

    def dilated(self, s: float, c: float) -> "RadialField":
        """c v(s r): r -> r/s, v -> c v, tail A -> c s^rho A; mass times c s^{-d}."""
        tail = TailModel(c * s ** self.tail.power * self.tail.amplitude,
                         self.tail.power)
        return RadialField(self.exponents, self.r / s, c * self.v, tail)


def gradient_integral(field: RadialField) -> float:
    """||grad f||_2^2 for f = v^{1/(2p)}, with analytic tail correction."""
    p = field.exponents.p
    df = np.gradient(field.f_values(), field.r)
    df[0] = 0.0
    val = field.quad(df ** 2)
    if field.tail.amplitude > 0.0:
        # f ~ A^{1/(2p)} r^{rho/(2p)} => |f'|^2 ~ (rho/2p)^2 A^{1/p} r^{rho/p - 2}
        rho, A = field.tail.power, field.tail.amplitude
        val += field.power_tail((rho / (2.0 * p)) ** 2 * A ** (1.0 / p),
                                field.exponents.d - 2 + rho / p)
    return val


# -- meshes ---------------------------------------------------------------


def graded_mesh(r_core: float, n_core: int, r_max: float, n_outer: int) -> np.ndarray:
    """Uniform nodes on [0, r_core], geometric nodes on (r_core, r_max]."""
    core = np.linspace(0.0, r_core, n_core + 1)
    outer = r_core * (r_max / r_core) ** (np.arange(1, n_outer + 1) / n_outer)
    return np.concatenate([core, outer])


def quadrature_mesh() -> np.ndarray:
    """Fine mesh for closed-form cross-checks of profile integrals."""
    return graded_mesh(8.0, 12000, 1e3, 9000)


# -- field constructors ----------------------------------------------------


def barenblatt_field(ex: ExponentSet, mesh: np.ndarray,
                     lam: float = 1.0) -> RadialField:
    """Sampled dilated profile with its exact power-law tail model."""
    v = barenblatt_scaled(ex, lam, mesh)
    return RadialField(ex, mesh, v, profile_tail(
        ex, dilation_power(lam, 1.0 / (1.0 - ex.m) - ex.d / 2.0)))


def moment_matched_field(ex: ExponentSet, mesh: np.ndarray, l1: float,
                         l2: float) -> RadialField:
    """Mix c B_l1 + (1-c) B_l2 of two dilations, c = (l2-1)/(l2-l1).

    Both dilations carry the profile mass, and the second moment is
    linear in the dilation, so the mix matches the profile's mass and
    second moment; its tail model is the same mix of the two tails.
    ``ValueError`` when l1 == l2, which leaves c undefined.
    """
    if l1 == l2:
        raise ValueError(f"moment-matched data need two distinct dilations, "
                         f"got l1 = l2 = {l1}")
    c = (l2 - 1.0) / (l2 - l1)
    vals = c * barenblatt_scaled(ex, l1, mesh) \
        + (1 - c) * barenblatt_scaled(ex, l2, mesh)
    expo = 1.0 / (1.0 - ex.m) - ex.d / 2.0
    amp = c * dilation_power(l1, expo) + (1 - c) * dilation_power(l2, expo)
    return RadialField(ex, mesh, vals, profile_tail(ex, amp))


def normalized_to_profile_mass(field: RadialField,
                               datum: str = "datum") -> RadialField:
    """Rescale so the field's own quadrature mass equals the profile mass.

    The flows' one mass gate: the confined flows start from their datum
    rescaled here, and the Csiszar-Kullback check rescales the saves it
    reads.  A datum sampled from a closed form of mass int B measures a
    little off it on a coarse mesh (2.3e-6 for the moment-matched mix of
    B_0.8 and B_1.3 at (3, 2/3) on 400 cells); this aligns the discrete
    measure without changing the analytic object.  The band corrects that
    quadrature bias of the datum's mass and does not repair data:
    ``ValueError``, naming the datum and the factor, when the factor is off
    1 by more than MASS_FACTOR_TOL.  It is no resolution check, since the
    trapezoid error of the mass can change sign across dilations (B_0.0562
    at (5, 0.8) on 120 cells needs the factor 1 - 2.6e-4 although its
    cell-volume and quadrature masses differ by 0.105); the flows'
    resolution check is ``flow.RESOLUTION_TOL``.
    """
    factor = barenblatt_mass(field.exponents) / field.mass()
    if not abs(factor - 1.0) <= MASS_FACTOR_TOL:
        raise ValueError(
            f"{datum}: rescaling it to the profile mass takes the factor "
            f"{factor:.6g}, off 1 by more than {MASS_FACTOR_TOL:g}: either it "
            "is off the profile mass or the mesh does not resolve it")
    return field.dilated(1.0, factor)


def require_profile_mass(field: RadialField) -> float:
    """The field's mass; ``ValueError`` unless it is int B to 1e-6 relative.

    The gate of the Csiszar-Kullback bound, which holds at the profile
    mass only.
    """
    mass, mass_b = field.mass(), barenblatt_mass(field.exponents)
    if abs(mass - mass_b) > 1e-6 * mass_b:
        raise ValueError(
            f"mass {mass} is not the profile mass {mass_b}; rescale the "
            "field with fields.normalized_to_profile_mass")
    return mass
