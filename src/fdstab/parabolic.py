"""1D linear parabolic solver for empirical Harnack-quotient checks.

Solves dv/dt = d/dx( a(t,x) dv/dx ) on an interval with zero-flux ends,
implicit Euler in time and, in space, the coefficient sampled at the face
midpoints at mid-step; each step is one LAPACK tridiagonal solve.  The
coefficient is an arbitrary callable pinched between two ellipticity
constants; a space-time checkerboard builder is included.  The Harnack
quotient sup over the backward cylinder divided by inf over the forward
cylinder is read off the stored history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads at the first solve, so importing fdstab skips it

_CELL = 0.25  # side of a checkerboard cell, in x and in t


@dataclass(frozen=True)
class ParabolicHistory:
    t: np.ndarray       # (n_t,)
    x: np.ndarray       # (n_x,)
    v: np.ndarray       # (n_t, n_x)
    lam0: float
    lam1: float

    @property
    def mu(self) -> float:
        return self.lam1 + 1.0 / self.lam0


def checkerboard_coefficient(lam0: float, lam1: float):
    """Coefficient jumping between lam0 and lam1 on a space-time grid."""
    def coeff(t, x):
        cell = np.floor(x / _CELL) + math.floor(t / _CELL)
        return np.where(np.mod(cell, 2) == 0, lam1, lam0)
    return coeff


def solve_linear_parabolic(coeff, lam0: float, lam1: float,
                           x_span: tuple[float, float], t_end: float,
                           v0=None, n_x: int = 401, n_t: int = 800) -> ParabolicHistory:
    """March the implicit scheme and return the full space-time history.

    ``coeff(t, x)`` must return values inside [lam0, lam1]; this is
    asserted on every step.  The initial datum defaults to a positive
    bump, and positivity is preserved by the M-matrix structure of the
    implicit step.
    """
    if not 0.0 < lam0 <= lam1:
        raise ValueError("need 0 < lam0 <= lam1")
    x = np.linspace(x_span[0], x_span[1], n_x)
    dx = x[1] - x[0]
    t = np.linspace(0.0, t_end, n_t + 1)
    dt = t[1] - t[0]
    if v0 is None:
        v = 0.1 + np.exp(-x ** 2)
    else:
        v = np.asarray(v0(x), dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("initial data must be positive")
    hist = np.empty((n_t + 1, n_x))
    hist[0] = v
    faces = 0.5 * (x[1:] + x[:-1])
    for k in range(n_t):
        a_face = np.asarray(coeff(t[k] + 0.5 * dt, faces), dtype=float)
        if np.any(a_face < lam0 * (1 - 1e-12)) or np.any(a_face > lam1 * (1 + 1e-12)):
            raise ValueError("coefficient left the ellipticity window")
        w = dt / dx ** 2 * a_face
        diag = np.ones(n_x)
        diag[:-1] += w
        diag[1:] += w
        *_, v, info = scipy.linalg.lapack.dgtsv(-w, diag, -w, v)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed at step {k} (info={info})")
        hist[k + 1] = v
    return ParabolicHistory(t=t, x=x, v=hist, lam0=lam0, lam1=lam1)


def harnack_ratio(history: ParabolicHistory, t0: float, x0: float,
                  R: float) -> float:
    """sup over the backward cylinder / inf over the forward cylinder.

    Backward: (t0 - 3R^2/4, t0 - R^2/4) x B_{R/2}(x0); forward:
    (t0 + 3R^2/4, t0 + R^2) x B_{R/2}(x0).
    """
    t, x, v = history.t, history.x, history.v
    if t0 - R * R < t[0] - 1e-12 or t0 + R * R > t[-1] + 1e-12:
        raise ValueError("cylinders exceed the computed time range")
    sel_x = np.abs(x - x0) <= 0.5 * R + 1e-12
    if not np.any(sel_x):
        raise ValueError("no mesh nodes inside the cylinders")
    back = (t >= t0 - 0.75 * R * R) & (t <= t0 - 0.25 * R * R)
    fwd = (t >= t0 + 0.75 * R * R) & (t <= t0 + R * R)
    if not np.any(back) or not np.any(fwd):
        raise ValueError("time grid too coarse for the cylinders")
    sup_back = float(np.max(v[np.ix_(back, sel_x)]))
    inf_fwd = float(np.min(v[np.ix_(fwd, sel_x)]))
    return sup_back / inf_fwd
