"""Radial densities on a 1D mesh with power-law tail bookkeeping.

A :class:`RadialField` is the discrete home of the densities u, v and
f^{2p}: nonnegative nodal values on a strictly increasing radial mesh
starting at r = 0, plus an optional power-law model ``v ~ amplitude *
r**power`` describing the field beyond the last node.  All integrals are
composite trapezoid sums with the weight omega_d r^{d-1}, corrected by the
analytic integral of the tail model; the profiles handled here have fat
tails and the correction is what keeps truncation errors at the 1e-6
level required by the closed-form cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ExponentSet
from .profiles import barenblatt_mass, barenblatt_scaled, omega_d

DENSITY_FLOOR = 1e-300


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


@dataclass(frozen=True)
class RadialField:
    """Nonnegative radial density sampled on a mesh, with tail metadata."""

    exponents: ExponentSet
    r: np.ndarray
    v: np.ndarray
    tail: TailModel | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        if r.ndim != 1 or v.shape != r.shape:
            raise ValueError("r and v must be 1D arrays of equal length")
        if r[0] != 0.0:
            raise ValueError("mesh must start at r = 0")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("mesh must be strictly increasing")
        if np.any(~np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("values must be finite and nonnegative")

    # -- integrals -----------------------------------------------------

    def integrate_power(self, q: float, moment: int = 0) -> float:
        """int v^q |x|^moment dx over R^d (quadrature plus tail)."""
        d = self.exponents.d
        w = omega_d(d) * self.r ** (d - 1 + moment)
        val = float(np.trapezoid(np.maximum(self.v, 0.0) ** q * w, self.r))
        return val + self.tail_integral(q, moment)

    def tail_integral(self, q: float, moment: int = 0) -> float:
        """Analytic integral of the tail model beyond the last node."""
        if self.tail is None or self.tail.amplitude == 0.0:
            return 0.0
        d = self.exponents.d
        expo = d + moment + self.tail.power * q
        if expo >= 0.0:
            raise DivergentTailError(
                f"tail integral diverges (exponent {expo} >= 0)")
        r_max = float(self.r[-1])
        return omega_d(d) * self.tail.amplitude ** q * r_max ** expo / (-expo)

    def mass(self) -> float:
        return self.integrate_power(1.0)

    def second_moment(self) -> float:
        return self.integrate_power(1.0, moment=2)

    def entropy_integral(self) -> float:
        """int v^m dx."""
        return self.integrate_power(self.exponents.m)

    def mass_beyond(self) -> np.ndarray:
        """Tail mass int_{|x|>r_i} v dx at every node."""
        d = self.exponents.d
        integrand = self.v * omega_d(d) * self.r ** (d - 1)
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

    def with_values(self, v: np.ndarray, tail: TailModel | None = None) -> "RadialField":
        return RadialField(self.exponents, self.r, v,
                           tail if tail is not None else self.tail)


def gradient_integral(field: RadialField) -> float:
    """||grad f||_2^2 for f = v^{1/(2p)}, with analytic tail correction."""
    ex = field.exponents
    f = field.f_values()
    df = np.gradient(f, field.r)
    df[0] = 0.0
    d = ex.d
    w = omega_d(d) * field.r ** (d - 1)
    val = float(np.trapezoid(df ** 2 * w, field.r))
    if field.tail is not None and field.tail.amplitude > 0.0:
        # f ~ A^{1/(2p)} r^{rho/(2p)} => |f'|^2 ~ (rho/2p)^2 A^{1/p} r^{rho/p - 2}
        rho, A = field.tail.power, field.tail.amplitude
        expo = d - 2 + rho / ex.p
        if expo >= 0.0:
            raise DivergentTailError("gradient tail integral diverges")
        val += omega_d(d) * (rho / (2.0 * ex.p)) ** 2 * A ** (1.0 / ex.p) \
            * field.r[-1] ** expo / (-expo)
    return val


# -- meshes ---------------------------------------------------------------


def graded_mesh(r_core: float = 5.0, n_core: int = 200,
                r_max: float = 50.0, n_outer: int = 200) -> np.ndarray:
    """Uniform nodes on [0, r_core], geometric nodes on (r_core, r_max]."""
    core = np.linspace(0.0, r_core, n_core + 1)
    outer = r_core * (r_max / r_core) ** (np.arange(1, n_outer + 1) / n_outer)
    return np.concatenate([core, outer])


def quadrature_mesh(r_core: float = 8.0, n_core: int = 12000,
                    r_max: float = 1e3, n_outer: int = 9000) -> np.ndarray:
    """Fine mesh for closed-form cross-checks of profile integrals."""
    return graded_mesh(r_core, n_core, r_max, n_outer)


# -- field constructors ----------------------------------------------------


def barenblatt_field(ex: ExponentSet, mesh: np.ndarray | None = None,
                     lam: float = 1.0) -> RadialField:
    """Sampled dilated profile with its exact power-law tail model."""
    r = mesh if mesh is not None else graded_mesh()
    v = barenblatt_scaled(ex, lam, r)
    power = 2.0 / (ex.m - 1.0)
    amplitude = lam ** (1.0 / (1.0 - ex.m) - ex.d / 2.0)
    return RadialField(ex, r, v, TailModel(amplitude, power))


def moment_matched_field(ex: ExponentSet, mesh: np.ndarray, l1: float,
                         l2: float) -> RadialField:
    """Mix c B_l1 + (1-c) B_l2 of two dilations, c = (l2-1)/(l2-l1).

    Both dilations carry the profile mass, and the second moment is
    linear in the dilation, so the mix matches the profile's mass and
    second moment; its tail model is the same mix of the two tails.
    """
    c = (l2 - 1.0) / (l2 - l1)
    vals = c * barenblatt_scaled(ex, l1, mesh) \
        + (1 - c) * barenblatt_scaled(ex, l2, mesh)
    expo = 1.0 / (1.0 - ex.m) - ex.d / 2.0
    amp = c * l1 ** expo + (1 - c) * l2 ** expo
    return RadialField(ex, mesh, vals, TailModel(amp, 2.0 / (ex.m - 1.0)))


def field_from_function(ex: ExponentSet, fn, mesh: np.ndarray | None = None,
                        tail_power: float | None = None) -> RadialField:
    """Sample fn(r) on the mesh; fit the tail amplitude at the last node."""
    r = mesh if mesh is not None else graded_mesh()
    v = np.asarray(fn(r), dtype=float)
    tail = None
    if tail_power is not None:
        amp = float(v[-1]) / float(r[-1]) ** tail_power
        tail = TailModel(amp, tail_power)
    return RadialField(ex, r, v, tail)


def normalized_to_profile_mass(field: RadialField) -> RadialField:
    """Rescale so the field's own quadrature mass equals the profile mass.

    Coarse meshes measure the analytically normalized profile with a
    relative error above the flow solvers' mass gate; this aligns the
    discrete measure without changing the analytic object.
    """
    scale = barenblatt_mass(field.exponents) / field.mass()
    tail = None if field.tail is None else \
        TailModel(field.tail.amplitude * scale, field.tail.power)
    return RadialField(field.exponents, field.r, field.v * scale, tail)
