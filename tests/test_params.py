import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdstab.params import derive_exponents


def test_reference_values_d3():
    ex = derive_exponents(3, m=2.0 / 3.0)
    assert math.isclose(ex.alpha, 1.0, rel_tol=1e-14)
    assert math.isclose(ex.a_param, 3.0, rel_tol=1e-14)
    assert math.isclose(ex.b_param, 2.0, rel_tol=1e-14)
    assert math.isclose(ex.p, 3.0, rel_tol=1e-14)  # the critical exponent


def test_theta_gamma_at_d3_p2():
    ex = derive_exponents(3, p=2.0)
    assert math.isclose(ex.theta, 0.5, rel_tol=1e-14)
    assert math.isclose(ex.gamma, 0.6, rel_tol=1e-14)
    # two-term optimization identity: 2b/(a+b) + (p+1)a/(a+b) = 2 p gamma
    a = 2.0 - 3.0 + 3.0 / 2.0
    b = 3.0 * (2.0 - 1.0) / 4.0
    assert math.isclose(a, 0.5) and math.isclose(b, 0.75)
    assert math.isclose(2 * b / (a + b) + 3 * a / (a + b), 2 * 2 * 0.6,
                        rel_tol=1e-14)


def test_theta_is_one_at_critical():
    for d in (3, 4, 5, 7):
        ex = derive_exponents(d, p=d / (d - 2.0))
        assert math.isclose(ex.theta, 1.0, rel_tol=1e-12)


def test_roundtrip_m_p():
    for d in (1, 2, 3, 5):
        for m in (0.55, 0.66, 0.75, 0.9, 0.99):
            if d >= 3 and 1.0 / (2.0 * m - 1.0) > d / (d - 2.0):
                continue
            ex = derive_exponents(d, m=m)
            back = derive_exponents(d, p=ex.p)
            assert abs(back.m - m) <= 1e-14 * m
            assert abs((ex.p + 1.0) / (2.0 * ex.p) - ex.m) <= 1e-14


def test_gamma_monotone_with_limits():
    d = 4
    ps = [1.0 + 0.01 * k for k in range(1, 100)]
    ex_list = [derive_exponents(d, p=p) for p in ps if p <= d / (d - 2.0)]
    gams = [e.gamma for e in ex_list]
    assert all(a > b for a, b in zip(gams, gams[1:]))  # decreasing in p
    assert abs(derive_exponents(d, p=1.0001).gamma - 1.0) < 1e-3
    ex_star = derive_exponents(d, p=d / (d - 2.0))
    assert math.isclose(ex_star.gamma, 1.0 - 2.0 / d, rel_tol=1e-12)


def test_alpha_identities():
    for d in (2, 3, 4, 6):
        for m in (0.6, 0.75, 0.9):
            if d >= 3 and 1.0 / (2.0 * m - 1.0) > d / (d - 2.0):
                continue
            ex = derive_exponents(d, m=m)
            assert math.isclose(ex.alpha, 2.0 - d * (1.0 - m), rel_tol=1e-14)
            # alpha = d (m - m_c) holds for d >= 2
            assert math.isclose(ex.alpha, d * (m - ex.m_c), rel_tol=1e-13)
            assert 0.0 < ex.alpha <= 2.0
    # the d = 1 convention m_c = 0 decouples the two expressions
    ex1 = derive_exponents(1, m=0.8)
    assert ex1.m_c == 0.0
    assert math.isclose(ex1.alpha, 1.8, rel_tol=1e-14)


def test_lambda_bullet_range():
    for d in (1, 2, 3, 5):
        for m in (max(0.51, (d - 1.0) / d + 1e-3), 0.9, 0.99):
            ex = derive_exponents(d, m=m)
            if ex.m >= ex.m_1:
                assert 0.0 < ex.lambda_bullet <= 1.0


def test_rejections():
    with pytest.raises(ValueError):
        derive_exponents(0, m=0.75)
    with pytest.raises(ValueError):
        derive_exponents(3, m=0.4)
    with pytest.raises(ValueError):
        derive_exponents(3, m=1.0)
    with pytest.raises(ValueError):
        derive_exponents(3, p=3.5)   # above the critical exponent
    with pytest.raises(ValueError):
        derive_exponents(3)
    with pytest.raises(ValueError):
        derive_exponents(3, m=0.75, p=2.0)
    # p = p_star itself is allowed
    derive_exponents(3, p=3.0)


def test_p_whose_m_rounds_out_of_range_is_refused():
    # for d <= 2 every p > 1 is admissible, but m = (p + 1)/(2p) rounds to
    # 1/2 from p = 2^53 on, to 0 once 2p overflows, and to nan at p = inf
    for d in (1, 2):
        for p in (2.0 ** 53, 1e308, math.inf):
            with pytest.raises(ValueError, match=r"p = .* maps to m = .*, outside \(1/2, 1\)"):
                derive_exponents(d, p=p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)),
       st.floats(min_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=True))
def test_exponent_map_returns_admissible_m_or_refuses(d, p):
    try:
        ex = derive_exponents(d, p=p)
    except ValueError:
        return
    assert 0.5 < ex.m < 1.0
