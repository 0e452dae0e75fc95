import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbrefute import linalg

from conftest import nonempty_weighted_graph


def test_sym_matrix_rejects_self_loop():
    with pytest.raises(ValueError, match="nonzero diagonal entry"):
        linalg.SymWeightedMatrix.from_dense(np.eye(3))


def test_sym_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        linalg.SymWeightedMatrix(2, {(0, 5): 1.0})


def test_sym_matrix_rejects_conflicting_weights():
    with pytest.raises(ValueError):
        linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (1, 0): -1.0})


def test_sym_matrix_drops_zero_weights():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (0, 2): 0.0})
    assert A.edge_count() == 1


def test_from_dense_roundtrip():
    rng = np.random.default_rng(3)
    dense = nonempty_weighted_graph(rng, 7)
    A = linalg.SymWeightedMatrix.from_dense(dense)
    np.testing.assert_array_equal(A.to_dense(), dense)


def test_degrees_are_weighted():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 2.0, (1, 2): -1.5})
    np.testing.assert_allclose(A.degrees(), [2.0, 3.5, 1.5])


def test_negated_flips_weights():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 2.0})
    np.testing.assert_array_equal(A.negated().to_dense(), -A.to_dense())


def test_brute_inf_to_one_single_edge():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert linalg.brute_inf_to_one(M) == 2.0


def test_brute_inf_to_one_triangle():
    M = np.ones((3, 3)) - np.eye(3)
    assert linalg.brute_inf_to_one(M) == 6.0


def test_brute_inf_to_one_signed():
    # x = (1, 1), y = (1, -1) picks up |1| + |-1| on each row
    M = np.array([[1.0, -1.0], [1.0, -1.0]])
    assert linalg.brute_inf_to_one(M) == 4.0


def test_brute_inf_to_one_cap():
    with pytest.raises(ValueError, match="oracle infeasible"):
        linalg.brute_inf_to_one(np.zeros((25, 25)))


def test_spectral_radius_upper_dominates_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.uniform(-1, 1, size=(6, 6))
        rho = np.max(np.abs(np.linalg.eigvals(M)))
        for z in (4, 9, 16):
            assert linalg.spectral_radius_upper(M, z) >= rho - 1e-10


def test_spectral_radius_upper_identity_inf_induced():
    # the frozen identity example: inf-induced norm of any power of Id is 1
    assert linalg.spectral_radius_upper(np.eye(4), 7, norm="inf_induced") == 1.0


def test_spectral_radius_upper_rescale_guard():
    # 3 * Id overflows naive powering long before z = 400
    val = linalg.spectral_radius_upper(3.0 * np.eye(2), 400,
                                       norm="inf_induced")
    np.testing.assert_allclose(val, 3.0, rtol=1e-12)


def test_spectral_radius_upper_tiny_rescale():
    val = linalg.spectral_radius_upper(1e-3 * np.eye(2), 200,
                                       norm="inf_induced")
    np.testing.assert_allclose(val, 1e-3, rtol=1e-12)


def _sequential_power_bound(M, z, norm):
    """||M^z||^(1/z) from z - 1 products with M, rescaled like the power
    routine: the reference for binary powering."""
    P = M.copy()
    log_scale = 0.0
    for _ in range(z - 1):
        s = np.abs(P).max()
        if s > linalg._RESCALE_ABOVE or s < linalg._RESCALE_BELOW:
            P = P / s
            log_scale += np.log(s)
        P = P @ M
    return np.exp((np.log(linalg._matrix_norm(P, norm)) + log_scale) / z)


@pytest.mark.parametrize("norm", ["frobenius", "inf_induced"])
def test_spectral_radius_upper_matches_sequential_products(norm):
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1.0, 40.0):
        M = scale * rng.uniform(-1, 1, size=(9, 9))
        before = M.copy()
        for z in range(1, 21):
            np.testing.assert_allclose(
                linalg.spectral_radius_upper(M, z, norm),
                _sequential_power_bound(M, z, norm), rtol=1e-12)
        np.testing.assert_array_equal(M, before)
    for M, z in ((3.0 * np.eye(2), 400), (1e-3 * np.eye(2), 200)):
        np.testing.assert_allclose(
            linalg.spectral_radius_upper(M, z, norm),
            _sequential_power_bound(M, z, norm), rtol=1e-12)


def test_spectral_radius_upper_zero_matrix():
    assert linalg.spectral_radius_upper(np.zeros((3, 3)), 5) == 0.0


def test_spectral_radius_upper_bad_norm():
    with pytest.raises(ValueError, match="unknown norm"):
        linalg.spectral_radius_upper(np.eye(2), 3, norm="nuclear")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3),
                min_size=9, max_size=9),
       st.integers(min_value=2, max_value=12))
@example(flat=[3, 3, 0, -1, -1, 2, -2, -2, -2], z=3)
def test_spectral_radius_upper_sound_hypothesis(flat, z):
    M = np.array(flat, dtype=float).reshape(3, 3)
    # A nilpotent M has rho = 0, but eigvals is only accurate to about
    # eps^(1/3) on its defective eigenvalue, so decide that case exactly.
    cube = np.linalg.matrix_power(np.array(flat, dtype=np.int64)
                                  .reshape(3, 3), 3)
    rho = 0.0 if not cube.any() else np.max(np.abs(np.linalg.eigvals(M)))
    assert linalg.spectral_radius_upper(M, z) >= rho - 1e-9


def test_min_real_eigenvalue_symmetric():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(linalg.min_real_eigenvalue(M), -1.0,
                               atol=1e-12)


def test_min_real_eigenvalue_no_real_spectrum():
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert linalg.min_real_eigenvalue(M) is None


def test_min_real_eigenvalue_dim_cap():
    with pytest.raises(ValueError, match="eigensolve infeasible"):
        linalg.min_real_eigenvalue(np.zeros((2, 2)), max_dim=1)


def test_det_shift_matches_numpy():
    rng = np.random.default_rng(11)
    M = rng.uniform(-1, 1, size=(5, 5))
    np.testing.assert_allclose(linalg.det_shift(M), np.linalg.det(M))


def test_frobenius_and_abs_entry_sum():
    M = np.array([[1.0, -2.0], [2.0, 0.0]])
    assert linalg.frobenius(M) == 3.0
    assert linalg.abs_entry_sum(M) == 5.0


def test_min_eig_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.min_eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_min_eig_symmetric_value():
    M = np.diag([3.0, -2.0, 7.0])
    np.testing.assert_allclose(linalg.min_eig_symmetric(M), -2.0,
                               atol=1e-12)


def test_as_dense_accepts_both_forms():
    A = linalg.SymWeightedMatrix(2, {(0, 1): 1.0})
    np.testing.assert_array_equal(linalg.as_dense(A), A.to_dense())
    np.testing.assert_array_equal(linalg.as_dense(A.to_dense()),
                                  A.to_dense())
