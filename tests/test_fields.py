import math
import warnings

import numpy as np
import pytest

from fdstab.fields import (DivergentTailError, RadialField, TailModel,
                           barenblatt_field, gradient_integral, graded_mesh,
                           moment_matched_field, normalized_to_profile_mass,
                           profile_tail, quadrature_mesh)
from fdstab.flow import default_flow_mesh
from fdstab.functionals import fisher_information
from fdstab.params import derive_exponents
from fdstab.profiles import barenblatt_mass, closed_form_moments

# the verification battery's four (d, m) pairs and three pairs given by p
NORM_GRID = [derive_exponents(d, m=m) for d, m in
             [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8)]] \
    + [derive_exponents(d, p=p) for d, p in [(3, 2.0), (2, 3.0), (4, 1.5)]]


def test_field_validation():
    ex = derive_exponents(3, m=0.75)
    r = np.array([0.0, 1.0, 2.0])
    empty = profile_tail(ex, 0.0)
    with pytest.raises(ValueError):
        RadialField(ex, r[::-1].copy(), np.ones(3), empty)
    with pytest.raises(ValueError):
        RadialField(ex, np.array([0.1, 1.0, 2.0]), np.ones(3), empty)
    with pytest.raises(ValueError):
        RadialField(ex, r, np.array([1.0, -1.0, 0.0]), empty)
    with pytest.raises(ValueError):
        TailModel(1.0, 2.0)  # growing tail rejected


def test_quadrature_matches_closed_forms():
    for d, m in [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8)]:
        ex = derive_exponents(d, m=m)
        mt = closed_form_moments(ex)
        fld = barenblatt_field(ex, quadrature_mesh())
        assert abs(fld.mass() - mt.mass) < 1e-6 * mt.mass
        assert abs(fld.second_moment() - mt.second_moment) \
            < 1e-6 * mt.second_moment
        assert abs(fld.entropy_integral() - mt.entropy) < 1e-6 * mt.entropy
        assert abs(fld.integrate_power(2 - m) - mt.pow_2m) < 1e-6 * mt.pow_2m
        assert abs(fld.integrate_power(2 - m, 2) - mt.second_moment_pow_2m) \
            < 1e-6 * mt.second_moment_pow_2m


def test_gradient_integral_matches_g_norm():
    mesh = quadrature_mesh()
    for ex in NORM_GRID:
        want = closed_form_moments(ex).grad_sq
        got = gradient_integral(barenblatt_field(ex, mesh))
        assert abs(got - want) < 2e-7 * want, (ex.d, ex.p)


def test_divergent_tail_flagged():
    ex = derive_exponents(3, m=0.75)  # d = 3, p = 2
    r = graded_mesh()

    def field(power):
        v = (1.0 + r ** 2) ** (0.5 * power)
        return RadialField(ex, r, v, TailModel(1.0, power).through(r, v))

    fld = field(-3.2)
    with pytest.raises(DivergentTailError):
        fld.second_moment()  # d + 2 + power = 1.8 > 0
    with pytest.raises(DivergentTailError):
        fisher_information(fld)  # second term: d + m power = 0.6 > 0
    with pytest.raises(DivergentTailError):
        field(-2.5).tail_integral(1.0)  # mass: d + power = 0.5 > 0
    with pytest.raises(DivergentTailError):
        gradient_integral(field(-1.5))  # d - 2 + power / p = 0.25 > 0


def test_mass_beyond_monotone():
    ex = derive_exponents(3, m=0.75)
    fld = barenblatt_field(ex, graded_mesh())
    beyond = fld.mass_beyond()
    assert np.all(np.diff(beyond) <= 0.0)
    assert math.isclose(beyond[0], fld.mass(), rel_tol=1e-12)


def test_scaled_field_mass_invariant():
    ex = derive_exponents(3, m=0.75)
    mt = closed_form_moments(ex)
    for lam in (0.7, 1.0, 1.4):
        fld = barenblatt_field(ex, quadrature_mesh(), lam=lam)
        assert abs(fld.mass() - mt.mass) < 1e-6 * mt.mass
        # second moment scales linearly in the dilation
        assert abs(fld.second_moment() - lam * mt.second_moment) \
            < 1e-5 * mt.second_moment


def test_moment_matched_field_matches_profile_moments():
    mesh = quadrature_mesh()
    for m in (2.0 / 3.0, 0.75):
        ex = derive_exponents(3, m=m)
        mt = closed_form_moments(ex)
        profile = barenblatt_field(ex, mesh)
        for l1, l2 in [(0.8, 1.3), (0.7, 1.5), (0.5, 2.0)]:
            fld = moment_matched_field(ex, mesh, l1, l2)
            # a genuine two-dilation mix, not the profile itself
            assert np.max(np.abs(fld.v / profile.v - 1.0)) > 1e-2
            assert abs(fld.mass() - mt.mass) < 1e-6 * mt.mass
            assert abs(fld.second_moment() - mt.second_moment) \
                < 1e-6 * mt.second_moment
            normed = normalized_to_profile_mass(fld)
            assert abs(normed.mass() - mt.mass) <= 1e-14 * mt.mass


def _battery_data(ex, mesh):
    # the three initial data of the CLI and the battery: the profile, its
    # dilation by 1.2 and the moment-matched mix of dilations 0.8 and 1.3
    return [barenblatt_field(ex, mesh), barenblatt_field(ex, mesh, lam=1.2),
            moment_matched_field(ex, mesh, 0.8, 1.3)]


def test_dilated_scales_mass_and_tail():
    ex = derive_exponents(3, m=0.75)
    for fld in _battery_data(ex, graded_mesh()):
        for s, c in [(1.0, 1.7), (0.6, 1.0), (1.9, 0.3)]:
            out = fld.dilated(s, c)
            factor = c * s ** -ex.d
            assert np.array_equal(out.r, fld.r / s)
            assert abs(out.tail_integral(1.0) - factor * fld.tail_integral(1.0)) \
                <= 1e-13 * factor * fld.tail_integral(1.0)
            assert abs(out.mass() - factor * fld.mass()) <= 1e-13 * factor * fld.mass()


def test_normalized_to_profile_mass_is_the_plain_rescaling():
    # bit for bit the rescaling v -> c v, A -> c A with c = int B / mass
    for m in (2.0 / 3.0, 0.75):
        ex = derive_exponents(3, m=m)
        for fld in _battery_data(ex, graded_mesh(5.0, 200, 50.0, 200)):
            scale = barenblatt_mass(ex) / fld.mass()
            out = normalized_to_profile_mass(fld)
            assert np.array_equal(out.r, fld.r)
            assert np.array_equal(out.v, fld.v * scale)
            assert out.tail == TailModel(fld.tail.amplitude * scale, fld.tail.power)


def test_normalizer_refuses_what_the_mesh_does_not_resolve():
    # it corrects quadrature bias, not data: a factor off 1 by more than
    # MASS_FACTOR_TOL is an error naming the datum and the factor
    ex = derive_exponents(3, m=0.75)
    fld = barenblatt_field(ex, graded_mesh())
    with pytest.raises(ValueError, match=r"^scaled: .* factor 0\.666667, off 1 by more than 0\.001"):
        normalized_to_profile_mass(fld.dilated(1.0, 1.5), "scaled")
    mesh = default_flow_mesh(400)
    for lam, factor in [(1e-3, r"1\.12652"), (1e-8, r"9\.42454e\+10"), (1e4, r"0\.015281")]:
        with pytest.raises(ValueError, match=f"^datum: .* factor {factor},"):
            normalized_to_profile_mass(barenblatt_field(ex, mesh, lam))


def test_field_is_measured_once_and_read_only(monkeypatch):
    ex = derive_exponents(3, m=0.75)
    mesh = graded_mesh()
    v = barenblatt_field(ex, mesh).v.copy()
    fld = RadialField(ex, mesh, v, profile_tail(ex))
    quads = []
    quad = RadialField.quad

    def counted(self, integrand, moment=0):
        quads.append(moment)
        return quad(self, integrand, moment)

    monkeypatch.setattr(RadialField, "quad", counted)
    mass, xsq = fld.mass(), fld.second_moment()
    assert (fld.mass(), fld.integrate_power(1.0, 2), fld.second_moment()) \
        == (mass, xsq, xsq)
    assert quads == [0, 2]
    # derived fields are new fields, measured afresh
    assert fld.dilated(1.0, 2.0).mass() == pytest.approx(2.0 * mass, rel=1e-14)
    tail = fld.tail_integral(1.0)  # with_values keeps the tail
    assert fld.with_values(0.5 * fld.v).mass() \
        == pytest.approx(0.5 * (mass - tail) + tail, rel=1e-14)
    assert normalized_to_profile_mass(fld.dilated(1.0, 1.0002)).mass() \
        == pytest.approx(barenblatt_mass(ex), rel=1e-14)
    assert len(quads) == 6
    # the field's arrays are read-only; the caller's stay writable, and
    # writing into them leaves the field as it was
    with pytest.raises(ValueError):
        fld.v[0] = 0.0
    with pytest.raises(ValueError):
        fld.r[-1] = 0.0
    v0 = fld.v[0]
    v[0], mesh[-1] = 0.0, 2.0 * mesh[-1]
    assert (fld.v[0], fld.r[-1]) == (v0, 0.5 * mesh[-1])
    assert fld.mass() == RadialField(ex, fld.r, fld.v, fld.tail).mass() == mass


def test_dilation_overflow_is_refused_for_numpy_scalars():
    # np.float64 ** float returns inf with a RuntimeWarning where a Python
    # float raises OverflowError; the refusal must not depend on the type
    ex = derive_exponents(3, m=0.9999)
    with pytest.raises(ValueError, match="dilation lam = 2.0 out of range"):
        barenblatt_field(ex, graded_mesh(), np.float64(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="dilation lam = 2.0 out of range"):
            barenblatt_field(ex, graded_mesh(), np.float64(2.0))
