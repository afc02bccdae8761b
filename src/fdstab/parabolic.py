"""1D linear parabolic solver for empirical Harnack-quotient checks.

Solves dv/dt = d/dx( a(t,x) dv/dx ) on an interval with zero-flux ends,
implicit Euler in time and, in space, the coefficient sampled at the face
midpoints at mid-step; each step is one LAPACK tridiagonal solve.  The
coefficient is an arbitrary callable pinched between two ellipticity
constants, evaluated on a block of _BLOCK_STEPS time steps at once; a
space-time checkerboard builder is included.  The Harnack quotient sup
over the backward cylinder divided by inf over the forward cylinder is
read off the stored history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads at the first solve, so importing fdstab skips it

_CELL = 0.25  # side of a checkerboard cell, in x and in t
# time steps whose coefficient, window check and bands are formed at once
_BLOCK_STEPS = 64


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
    """Coefficient jumping between lam0 and lam1 on a space-time grid: lam1
    on the cells whose x and t indices floor(x/_CELL), floor(t/_CELL) have
    the same parity (an even sum), lam0 on the others.  t and x broadcast."""
    def coeff(t, x):
        same = np.mod(np.floor(x / _CELL), 2) == np.mod(np.floor(t / _CELL), 2)
        return np.where(same, lam1, lam0)
    return coeff


def solve_linear_parabolic(coeff, lam0: float, lam1: float,
                           x_span: tuple[float, float], t_end: float,
                           v0=None, n_x: int = 401, n_t: int = 800) -> ParabolicHistory:
    """March the implicit scheme and return the full space-time history.

    ``coeff(t, x)`` is called once per block of up to _BLOCK_STEPS time
    steps, with the block's mid-step times t shaped (k, 1) and the face
    midpoints x shaped (1, n_x - 1); its result must broadcast to
    (k, n_x - 1), so a coefficient of x alone may return (1, n_x - 1).
    Its values must lie inside [lam0, lam1]: ``ValueError`` otherwise,
    checked once per block before any of its steps is taken.  Memory is
    the (n_t + 1, n_x) history plus the arrays of one block.  The initial
    datum defaults to a positive bump, and positivity is preserved by the
    M-matrix structure of the implicit step.
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
    faces = (0.5 * (x[1:] + x[:-1]))[None, :]
    # one block's bands, refilled per block: dgtsv overwrites its bands and
    # right-hand side, so the lower and upper bands are two arrays and each
    # step solves in place in its history row
    lower = np.empty((min(_BLOCK_STEPS, n_t), n_x - 1))
    upper, diag = np.empty_like(lower), np.empty((lower.shape[0], n_x))
    dgtsv = scipy.linalg.lapack.dgtsv
    for k0 in range(0, n_t, _BLOCK_STEPS):
        k1 = min(k0 + _BLOCK_STEPS, n_t)
        t_mid = (t[k0:k1] + 0.5 * dt)[:, None]
        a_face = np.broadcast_to(np.asarray(coeff(t_mid, faces), dtype=float),
                                 (k1 - k0, n_x - 1))
        if np.any(a_face < lam0 * (1 - 1e-12)) or np.any(a_face > lam1 * (1 + 1e-12)):
            raise ValueError("coefficient left the ellipticity window")
        w, d = lower[:k1 - k0], diag[:k1 - k0]
        np.multiply(dt / dx ** 2, a_face, out=w)
        d.fill(1.0)
        d[:, :-1] += w
        d[:, 1:] += w
        np.negative(w, out=w)
        upper[:k1 - k0] = w
        for i, k in enumerate(range(k0, k1)):
            hist[k + 1] = hist[k]
            *_, info = dgtsv(lower[i], diag[i], upper[i], hist[k + 1], overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1, overwrite_b=1)
            if info != 0:
                raise RuntimeError(f"tridiagonal solve failed at step {k} (info={info})")
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
