import math
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdstab.logscale import ONE, LogReal, logreal


def test_plain_roundtrip():
    # extreme magnitudes lose ~eps*|ln x| relative precision through the
    # log representation
    for x in (1e-300, 0.5, 1.0, 3.7, 1e250):
        assert math.isclose(logreal(x).to_float(), x, rel_tol=1e-12)


def test_mul_div_pow_match_floats():
    a, b = logreal(3.5), logreal(0.02)
    assert math.isclose((a * b).to_float(), 0.07, rel_tol=1e-14)
    assert math.isclose((a / b).to_float(), 175.0, rel_tol=1e-14)
    assert math.isclose(a.powf(3.0).to_float(), 3.5 ** 3, rel_tol=1e-14)
    assert math.isclose(a.powf(-0.5).to_float(), 3.5 ** -0.5, rel_tol=1e-14)


def test_add_sub_match_floats():
    a, b = logreal(1.25), logreal(3.0)
    assert math.isclose(a.add(b).to_float(), 4.25, rel_tol=1e-14)
    assert math.isclose(b.sub(a).to_float(), 1.75, rel_tol=1e-14)
    with pytest.raises(ValueError):
        a.sub(b)


def test_deep_values_compose():
    # x = exp(1e200): value and log of value both out of float range squared
    x = LogReal.exp_of(LogReal.from_ln(math.log(1e200)))
    assert x.lndepth == 0 and math.isclose(x.lnmag, 1e200, rel_tol=1e-13)
    y = x * x
    assert math.isclose(y.lnmag, 2.0 * x.lnmag, rel_tol=1e-13)
    z = x.powf(3.0)
    assert math.isclose(z.lnmag, 3.0 * x.lnmag, rel_tol=1e-13)
    inv = ONE / x
    assert inv.lnsign == -1 and inv.lnmag == x.lnmag
    # exp of a huge value drops to depth 1
    w = LogReal.exp_of(x)
    assert w.lndepth == 1 and w.lnmag == x.lnmag
    assert (ONE / w).lnsign == -1


def test_dominant_addition_is_exact():
    big = LogReal.from_ln(1e100)
    tiny = LogReal.from_ln(-1e100)
    assert big.add(tiny).close_to(big, rel=0.0)
    assert big.sub(tiny).close_to(big, rel=0.0)
    # moderate gaps still resolve
    a = logreal(1.0)
    b = logreal(1e-10)
    assert math.isclose(a.add(b).to_float(), 1.0 + 1e-10, rel_tol=1e-15)


def test_pow_logreal_exponent():
    base = logreal(2.0)
    expo = LogReal.from_ln(math.log(10.0))  # exponent 10
    assert math.isclose(base.pow_logreal(expo).to_float(), 1024.0, rel_tol=1e-12)
    # huge exponent: 2^(e^300)
    big_expo = LogReal.from_ln(300.0)
    res = base.pow_logreal(big_expo)
    assert res.lndepth == 0
    assert math.isclose(res.lnmag, math.exp(300.0) * math.log(2.0), rel_tol=1e-12)


def test_ordering():
    xs = [logreal(0.1), logreal(1.0), logreal(7.0),
          LogReal.exp_of(LogReal.from_ln(200.0)),
          LogReal.exp_of(LogReal.from_ln(200.0), sign=-1)]
    assert xs[0] < xs[1] < xs[2] < xs[3]
    assert xs[4] < xs[0]


def test_tiny_exponent_saturates_to_one():
    deep_small = ONE / LogReal.exp_of(LogReal.from_ln(1e150))
    res = logreal(5.0).pow_logreal(deep_small)
    assert res.lnsign == 0  # 5^(e^-1e150) == 1 at float precision


def test_ln_logreal():
    x = LogReal.from_ln(1e150)
    lx = x.ln_logreal()
    assert math.isclose(lx.to_float(), 1e150, rel_tol=1e-12)
    with pytest.raises(ValueError):
        logreal(0.5).ln_logreal()


# -- property tests against mpmath ------------------------------------------
#
# A LogReal x is compared through L = ln x, evaluated exactly from its tower
# in mpmath at 50 digits.  Where |L| stays below e^700 (depth-0 values) the
# plain L are compared, with an absolute floor for results at or near 1;
# deeper values are compared through l = ln|L|, i.e. relatively in L.  Each
# bound is K float64 roundings of the magnitudes the operation rounds (times
# the condition number of x - y for sub, and at the level of the logs for a
# deep exponent), plus the rounding of the result's own stored magnitude.

_EPS = 2.0 ** -52
_K = 16
_DEPTH0 = st.floats(-700.0, 700.0).map(LogReal.from_ln)
_DEPTH1 = st.builds(lambda s, v: LogReal.canonical(s, 1, v),
                    st.sampled_from((-1, 1)),
                    st.floats(700.0, sys.float_info.max, exclude_min=True))
_OPERAND = st.one_of(_DEPTH0, _DEPTH1)
_PROPS = settings(derandomize=True, max_examples=300, deadline=None)


def _mp_exp(v):
    """e^v; 0 far below any 50-digit resolution, where mpmath would need
    an exponent too large to store."""
    return mp.exp(v) if v > -1e6 else mp.mpf(0)


def _mp_ln(x: LogReal):
    """L = ln x (finite in mpmath for depth <= 1)."""
    v = mp.mpf(x.lnmag)
    for _ in range(x.lndepth):
        v = mp.exp(v)
    return x.lnsign * v


def _mp_l(x: LogReal):
    """l = ln|ln x| (-inf for x = 1; finite in mpmath for depth <= 2)."""
    if x.lnsign == 0:
        return mp.ninf
    if x.lndepth == 0:
        return mp.log(x.lnmag)
    v = mp.mpf(x.lnmag)
    for _ in range(x.lndepth - 1):
        v = mp.exp(v)
    return v


def _stored_rounding(l):
    """Relative error in L of storing ln x = +-e^l in its leveled form:
    L itself at depth 0, l at depth 1, ln l at depth 2."""
    if l < math.log(sys.float_info.max):
        return _EPS
    if l <= sys.float_info.max:
        return _EPS * l
    return _EPS * l * mp.log(l)


def _assert_matches(got: LogReal, sign: int, l_exact, err_l=0, err_L=0):
    """got = exp(sign e^l_exact) up to a relative error err_l and an
    absolute error err_L in L, plus the result's own rounding."""
    l_got = _mp_l(got)
    err_l = err_l + _K * _stored_rounding(l_exact)
    if max(l_got, l_exact) < 700:
        L_got = got.lnsign * _mp_exp(l_got)
        L_exact = sign * _mp_exp(l_exact)
        assert abs(L_got - L_exact) <= _K * _EPS + err_L + err_l * abs(L_exact), \
            (got, sign, l_exact)
    else:
        if err_L:
            err_l += err_L / mp.exp(l_exact)
        assert got.lnsign == sign and abs(l_got - l_exact) <= err_l, \
            (got, sign, l_exact)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _log_abs(v):
    return mp.log(abs(v)) if v != 0 else mp.ninf


@_PROPS
@given(_OPERAND, _OPERAND)
def test_add_matches_mpmath(x, y):
    with mp.workdps(50):
        big, small = max(_mp_ln(x), _mp_ln(y)), min(_mp_ln(x), _mp_ln(y))
        q = _mp_exp(small - big)
        L = big + mp.log1p(q)
        # float64 roundings on the ln of each term, weighted by its share
        err_L = _K * _EPS * (abs(big) + q * abs(small)) / (1 + q)
        _assert_matches(x.add(y), _sign(L), _log_abs(L), err_L=err_L)


@_PROPS
@given(_OPERAND, _OPERAND)
def test_sub_matches_mpmath(x, y):
    with mp.workdps(50):
        if _mp_ln(x) < _mp_ln(y):
            x, y = y, x
        Lx, Ly = _mp_ln(x), _mp_ln(y)
        roundings = _K * _EPS * (abs(Lx) + abs(Ly))
        try:
            got = x.sub(y)
        except ValueError:
            # refused only when the operands agree at float64 resolution
            assert Lx - Ly <= roundings
            return
        q = _mp_exp(Ly - Lx)
        one_minus_q = -mp.expm1(Ly - Lx) if q else mp.mpf(1)
        L = Lx + mp.log(one_minus_q)
        cond = (1 + q) / one_minus_q
        err_L = _K * _EPS * abs(Lx) + cond * q * roundings
        _assert_matches(got, _sign(L), _log_abs(L), err_L=err_L)


@_PROPS
@given(_OPERAND, st.floats(-1e300, 1e300).filter(lambda c: c != 0.0))
def test_powf_matches_mpmath(x, c):
    got = x.powf(c)
    if x.lnsign == 0:
        assert got.lnsign == 0
        return
    with mp.workdps(50):
        l_x, ln_c = _mp_l(x), mp.log(abs(c))
        # ln|L| is formed as l_x + ln|c| in float64
        err_l = _K * _EPS * (abs(l_x) + abs(ln_c))
        _assert_matches(got, x.lnsign * _sign(c), l_x + ln_c, err_l=err_l)


@_PROPS
@given(_OPERAND, _OPERAND)
def test_pow_logreal_matches_mpmath(x, c):
    got = x.pow_logreal(c)
    if x.lnsign == 0:
        assert got.lnsign == 0
        return
    with mp.workdps(50):
        l_x, Lc = _mp_l(x), _mp_ln(c)
        # ln|L| = l_x + ln c is formed in float64; against a deep exponent
        # it is formed one level up, from the logs of both terms
        err_l = _K * _EPS * (abs(l_x) + abs(Lc))
        if c.lndepth >= 1:
            err_l *= max(1, _log_abs(l_x), _log_abs(Lc))
        _assert_matches(got, x.lnsign, l_x + Lc, err_l=err_l)


@_PROPS
@given(_OPERAND, st.sampled_from((-1, 0, 1)))
def test_exp_of_matches_mpmath(t, sign):
    got = LogReal.exp_of(t, sign)
    if sign == 0:
        assert got.lnsign == 0
        return
    with mp.workdps(50):
        _assert_matches(got, sign, _mp_ln(t))


# -- the canonical encoding ---------------------------------------------------
#
# |ln x| in (e^700, e^709.78] fits a float64 and is stored at depth 0, so
# no encoding depends on the path that produced the value, which ordering
# and sums assume.

_LN_MAX = math.log(sys.float_info.max)
_SIGNS = st.sampled_from((-1, 1))
# ln|ln x| across the band, reached through the tower and through a float
_BAND = st.one_of(
    st.builds(lambda s, l: LogReal.exp_of(LogReal.from_ln(l), s),
              _SIGNS, st.floats(690.0, 720.0)),
    st.builds(lambda s, l: LogReal.from_ln(s * math.exp(l)),
              _SIGNS, st.floats(690.0, _LN_MAX)))


@_PROPS
@given(_BAND, _BAND)
def test_ordering_in_the_band_matches_mpmath(x, y):
    with mp.workdps(50):
        assert (x < y) == (_mp_ln(x) < _mp_ln(y))


@_PROPS
@given(st.floats(700.0, _LN_MAX, exclude_min=True))
def test_tower_and_float_paths_give_one_encoding(v):
    assert LogReal.exp_of(LogReal.from_ln(v)) == LogReal.from_ln(math.exp(v))


def test_band_sums_keep_the_dominant_term():
    x = LogReal.exp_of(LogReal.from_ln(701.0))  # ln x = e^701 ~ 2.8e304
    y = LogReal.from_ln(1e305)
    assert x < y and not y < x
    assert x.add(y) == y
    assert y.sub(x) == y
    assert x.close_to(LogReal.from_ln(math.exp(701.0)), rel=0.0)


def test_constructor_rejects_non_canonical_forms():
    for args in ((1, 1, 701.0), (-1, 1, _LN_MAX), (1, 2, 0.5),
                 (0, 0, 1.0), (0, 1, 800.0), (1, 0, 0.0)):
        with pytest.raises(ValueError):
            LogReal(*args)
    assert LogReal.canonical(1, 1, 701.0) == LogReal.from_ln(math.exp(701.0))
    assert LogReal(1, 1, math.nextafter(_LN_MAX, math.inf)).lndepth == 1
