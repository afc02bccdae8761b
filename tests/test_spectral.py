import math

import numpy as np
import pytest
import scipy.linalg

from fdstab import spectral as S


def _q(d, p):
    return S.SpectrumQuery.from_p(d, p)


def test_eigenvalue_reference_values():
    q = _q(3, 2.0)
    assert q.a == -4.0
    assert S.eigenvalue(1, 0, q).value == 8.0          # -2a = 4p/(p-1)
    assert S.eigenvalue(0, 1, q).value == 10.0         # 16 - 6
    assert S.eigenvalue(1, 0, q).status == "discrete"
    assert S.eigenvalue(0, 1, q).status == "discrete"


def test_translation_mode_equals_mass_gap():
    for d, p in [(2, 1.5), (3, 2.0), (3, 3.0), (5, 1.2), (9, 1.05)]:
        q = _q(d, p)
        assert S.eigenvalue(1, 0, q).value == 4.0 * p / (p - 1.0)
        gap = S.spectral_gap(q)
        assert gap.rayleigh == 4.0 * p / (p - 1.0)
        # flow units: the translation mode always relaxes at rate 4
        assert math.isclose(gap.flow, 4.0, rel_tol=1e-12)


def test_discreteness_and_embedding_flags():
    q = _q(3, 2.0)
    assert S.eigenvalue(2, 0, q).status == "embedded"   # 16 > 12.25
    assert S.eigenvalue(0, 2, q).status == "not-square-integrable"
    with pytest.raises(ValueError):
        S.eigenvalue(0, 0, q)
    with pytest.raises(ValueError):
        S.eigenvalue(-1, 0, q)


def test_d1_ladder():
    q = S.SpectrumQuery(d=1, a=-4.0)
    # lambda_k = k(1 - 2a - k), integrable for k <= 1/2 - a = 4.5
    assert S.eigenvalue(0, 1, q).value == 8.0
    assert S.eigenvalue(0, 4, q).value == 4.0 * (9.0 - 4.0)
    assert S.eigenvalue(0, 5, q).status == "not-square-integrable"
    with pytest.raises(ValueError):
        S.eigenvalue(1, 1, q)


def test_lambda_ess_forms():
    q = _q(3, 2.0)
    assert S.lambda_ess(q) == (-4.0 + 0.5) ** 2


def test_improved_gap_cases():
    # (ii): d >= 3 with p <= 1 + 2/d
    lam, case = S.improved_gap(3, 4.0 / 3.0)
    assert case == "ii" and math.isclose(lam, 32.0, rel_tol=1e-12)
    lam, case = S.improved_gap(2, 3.0)
    assert case == "ii"
    # (i): d = 1
    lam, case = S.improved_gap(1, 2.0)
    assert case == "i" and math.isclose(lam, 18.0, rel_tol=1e-12)
    # (iii): middle window
    lam3, case3 = S.improved_gap(4, 1.6)
    assert case3 == "iii"
    assert math.isclose(lam3, 16.0 * 1.6 / 0.6 - 24.0, rel_tol=1e-12)
    # (iv): top window for 3 <= d <= 5
    lam4, case4 = S.improved_gap(3, 2.5)
    assert case4 == "iv"
    assert math.isclose(lam4, (0.5 - 2.0 * 2.5 / 1.5) ** 2, rel_tol=1e-12)
    # the case boundaries agree: (iii) and (iv) match at p = 1 + 4/(d+2)
    d = 4
    pb = 1.0 + 4.0 / (d + 2.0)
    v3 = 16.0 * pb / (pb - 1.0) - 4.0 * (d + 2.0)
    v4 = (0.5 * (d - 2.0) - 2.0 * pb / (pb - 1.0)) ** 2
    assert math.isclose(v3, v4, rel_tol=1e-12)
    # and (ii) meets (iii) at p = 1 + 2/d
    pb2 = 1.0 + 2.0 / d
    v2 = 8.0 * pb2 / (pb2 - 1.0)
    v3b = 16.0 * pb2 / (pb2 - 1.0) - 4.0 * (d + 2.0)
    assert math.isclose(v2, v3b, rel_tol=1e-12)
    with pytest.raises(ValueError):
        S.improved_gap(7, 1.42)  # above the (iii) window, d too large for (iv)


def test_critical_gap_parameters():
    c3 = S.critical_gap_parameters(3)
    assert math.isclose(c3.a_gap, 25.0 / 24.0, rel_tol=1e-14)
    assert math.isclose(c3.eta, 1.0 / 24.0, rel_tol=1e-14)
    # eta = a - 1 on the low branch
    assert math.isclose(c3.eta, c3.a_gap - 1.0, rel_tol=1e-12)
    c6 = S.critical_gap_parameters(6)
    assert math.isclose(c6.a_low, c6.a_high, rel_tol=1e-12)
    assert not c6.eta_branches_agree
    assert math.isclose(c6.eta_low, 1.0 / 3.0, rel_tol=1e-13)
    assert math.isclose(c6.eta_high, 2.0 / 3.0, rel_tol=1e-13)
    with pytest.raises(ValueError):
        S.critical_gap_parameters(2)


def test_radial_oracle_matches_closed_form():
    q = _q(3, 2.0)
    vals = S.discretized_radial_eigs(q, S.radial_oracle_mesh())
    assert abs(vals[0]) < 1e-6              # the constant mode
    assert abs(vals[1] - 10.0) < 0.02 * 10  # the dilation mode


def test_radial_oracle_mesh_refinement_trend():
    q = _q(3, 2.0)
    coarse = S.discretized_radial_eigs(q, S.radial_oracle_mesh(n=300))
    fine = S.discretized_radial_eigs(q, S.radial_oracle_mesh(n=900))
    # P1 eigenvalues decrease toward the limit under refinement, and the
    # two meshes agree within the advertised Richardson window
    assert fine[1] <= coarse[1] + 1e-10
    assert abs(fine[1] - coarse[1]) < 0.05 * fine[1]


# discrete-spectrum samples of the spectral battery check
_PENCIL_SAMPLES = [(8, 1.1), (2, 1.5), (3, 2.0), (3, 3.0), (5, 1.4), (2, 4.0)]


@pytest.mark.parametrize("n", [300, 900])
@pytest.mark.parametrize("d, p", _PENCIL_SAMPLES)
def test_shift_invert_matches_dense_pencil(d, p, n):
    # the dense generalized eigh on the same pencil is the reference
    q = _q(d, p)
    mesh = S.radial_oracle_mesh(n=n)
    A, B = S._fem_pencil(q, mesh)
    assert A.shape == B.shape == (n, n) and A.nnz == B.nnz == 3 * n - 2
    want = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                             subset_by_index=[0, 5])
    got = S._fem_radial_eigs(q, mesh, 6)
    assert np.all(np.diff(got) > 0.0)
    # the zero mode against the scale of the first nonzero one
    assert abs(got[0] - want[0]) <= 1e-9 * want[1]
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-9 * np.abs(want[1:]))


def test_radial_oracle_is_bit_reproducible():
    # a fixed start vector: the same query gives the same bits whatever ran before
    mesh = S.radial_oracle_mesh()
    first = S.discretized_radial_eigs(_q(3, 2.0), mesh)
    S.discretized_radial_eigs(_q(5, 1.4), mesh)
    again = S.discretized_radial_eigs(_q(3, 2.0), mesh)
    assert first.tobytes() == again.tobytes()


def test_radial_oracle_rejects_coarse_mesh():
    q = _q(3, 2.0)
    with pytest.raises(ValueError, match="too coarse"):
        S.discretized_radial_eigs(q, S.radial_oracle_mesh(r_max=120.0, n=24))


def test_query_validation():
    with pytest.raises(ValueError):
        S.SpectrumQuery(d=3, a=0.5)
    with pytest.raises(ValueError):
        S.discretized_radial_eigs(S.SpectrumQuery(d=3, a=-0.4),
                                  S.radial_oracle_mesh())
