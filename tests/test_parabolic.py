import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fdstab.constants import moser_chain
from fdstab.parabolic import (_BLOCK_STEPS, checkerboard_coefficient, harnack_ratio,
                              solve_linear_parabolic)


def test_heat_equation_ratio():
    hist = solve_linear_parabolic(lambda t, x: np.ones_like(np.asarray(x)),
                                  1.0, 1.0, (-4.0, 4.0), 2.2)
    r = harnack_ratio(hist, 1.1, 0.0, 1.0)
    assert math.isfinite(r) and r >= 1.0


def test_checkerboard_bound():
    cb = checkerboard_coefficient(0.5, 2.0)
    hist = solve_linear_parabolic(cb, 0.5, 2.0, (-4.0, 4.0), 2.2)
    r = harnack_ratio(hist, 1.1, 0.0, 1.0)
    mc = moser_chain(1, 0.5, 2.0)
    mu = 2.0 + 1.0 / 0.5
    assert math.isfinite(r) and r >= 1.0
    # the constructive bound holds with an astronomically large margin
    assert math.log(r) <= mu * mc.h.ln_float()


def test_positivity_preserved():
    cb = checkerboard_coefficient(0.5, 2.0)
    hist = solve_linear_parabolic(cb, 0.5, 2.0, (-4.0, 4.0), 1.0)
    assert np.all(hist.v > 0.0)


def rescaled_problem(coeff, beta, t_shift, x_shift):
    """Coefficient of the same equation after t -> beta^2 t + t_shift,
    x -> beta x + x_shift; the ellipticity window is unchanged."""
    def new_coeff(t, x):
        return coeff(beta * beta * t + t_shift, beta * np.asarray(x) + x_shift)
    return new_coeff


def test_rescaling_invariance():
    # t -> b^2 t, x -> b x + x0 maps solutions to solutions with the
    # transformed coefficient; the Harnack quotient on the matched
    # cylinders agrees to solver tolerance
    def smooth(t, x):
        return 1.25 + 0.75 * np.sin(2.0 * np.asarray(x)) * np.cos(3.0 * t)

    b, x0s = 0.5, 0.7
    rescaled = rescaled_problem(smooth, b, 0.0, x0s)

    def v0r(x):
        return 0.1 + np.exp(-(b * np.asarray(x) + x0s) ** 2)

    hist_a = solve_linear_parabolic(smooth, 0.5, 2.0, (-6.0, 6.0), 3.0,
                                    n_x=601, n_t=1600)
    ra = harnack_ratio(hist_a, 1.3, 0.5, 0.8)
    hist_b = solve_linear_parabolic(rescaled, 0.5, 2.0,
                                    ((-6.0 - x0s) / b, (6.0 - x0s) / b),
                                    3.0 / b ** 2, v0=v0r, n_x=1201, n_t=6400)
    rb = harnack_ratio(hist_b, 1.3 / b ** 2, (0.5 - x0s) / b, 0.8 / b)
    assert abs(ra - rb) / ra < 5e-3


def test_validation():
    with pytest.raises(ValueError):
        solve_linear_parabolic(lambda t, x: np.ones_like(np.asarray(x)),
                               2.0, 1.0, (-1, 1), 0.5)
    with pytest.raises(ValueError):
        solve_linear_parabolic(lambda t, x: np.full_like(np.asarray(x), 5.0),
                               0.5, 2.0, (-1, 1), 0.5)
    with pytest.raises(ValueError):
        solve_linear_parabolic(lambda t, x: np.ones_like(np.asarray(x)),
                               1.0, 1.0, (-1, 1), 0.5,
                               v0=lambda x: np.zeros_like(np.asarray(x)))
    hist = solve_linear_parabolic(lambda t, x: np.ones_like(np.asarray(x)),
                                  1.0, 1.0, (-1, 1), 0.5)
    with pytest.raises(ValueError):
        harnack_ratio(hist, 0.4, 0.0, 1.0)  # cylinders leave the time range


def _stepwise_history(coeff, lam0, lam1, x_span, t_end, n_x, n_t):
    """The history by one coefficient call, one window check and one
    tridiagonal solve per time step, with scalar t and 1-D faces."""
    x = np.linspace(x_span[0], x_span[1], n_x)
    dx = x[1] - x[0]
    t = np.linspace(0.0, t_end, n_t + 1)
    dt = t[1] - t[0]
    v = 0.1 + np.exp(-x ** 2)
    hist = np.empty((n_t + 1, n_x))
    hist[0] = v
    faces = 0.5 * (x[1:] + x[:-1])
    for k in range(n_t):
        a_face = np.asarray(coeff(t[k] + 0.5 * dt, faces), dtype=float)
        assert np.all(a_face >= lam0 * (1 - 1e-12)) and np.all(a_face <= lam1 * (1 + 1e-12))
        w = dt / dx ** 2 * a_face
        diag = np.ones(n_x)
        diag[:-1] += w
        diag[1:] += w
        *_, v, info = scipy.linalg.lapack.dgtsv(-w, diag, -w, v)
        assert info == 0
        hist[k + 1] = v
    return hist


@pytest.mark.parametrize("n_t", [800, 2 * _BLOCK_STEPS, 130, 1])
@pytest.mark.parametrize("which", ["checkerboard", "x-only"])
def test_block_march_is_the_step_march(which, n_t):
    # 800 and 130 leave a partial last block; the x-only coefficient
    # returns (1, n_x - 1), which must broadcast over the block's steps
    coeff = {"checkerboard": checkerboard_coefficient(0.5, 2.0),
             "x-only": lambda t, x: np.full_like(x, 2.0)}[which]
    hist = solve_linear_parabolic(coeff, 0.5, 2.0, (-4.0, 4.0), 2.2, n_t=n_t)
    ref = _stepwise_history(coeff, 0.5, 2.0, (-4.0, 4.0), 2.2, 401, n_t)
    assert np.array_equal(hist.v, ref)


def test_coefficient_is_called_once_per_block():
    shapes = []

    def coeff(t, x):
        shapes.append((t.shape, x.shape))
        return np.ones_like(x)

    solve_linear_parabolic(coeff, 1.0, 1.0, (-1.0, 1.0), 0.5, n_x=51, n_t=150)
    assert shapes == [((_BLOCK_STEPS, 1), (1, 50))] * 2 + [((150 - 2 * _BLOCK_STEPS, 1), (1, 50))]


def test_window_left_in_the_last_block_raises():
    n_t, t_end = 800, 2.2
    last = (n_t // _BLOCK_STEPS) * _BLOCK_STEPS * t_end / n_t
    assert n_t % _BLOCK_STEPS and last < 2.19

    def coeff(t, x):
        return np.where(t > 2.19, 5.0, 1.0) * np.ones_like(x)

    with pytest.raises(ValueError, match="ellipticity window"):
        solve_linear_parabolic(coeff, 0.5, 2.0, (-4.0, 4.0), t_end, n_t=n_t)


def test_memory_is_the_history_plus_one_block():
    # (801, 401) history of 2.57 MB; one block of bands and coefficient
    # adds about 1.0 MB
    cb = checkerboard_coefficient(0.5, 2.0)
    solve_linear_parabolic(cb, 0.5, 2.0, (-4.0, 4.0), 2.2)
    tracemalloc.start()
    try:
        solve_linear_parabolic(cb, 0.5, 2.0, (-4.0, 4.0), 2.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 801 * 401 * 8 + 1.5e6
