import math

import numpy as np
import pytest

from fdstab.constants import moser_chain
from fdstab.parabolic import (checkerboard_coefficient, harnack_ratio,
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
