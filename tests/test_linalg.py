import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbrefute import linalg

from conftest import nonempty_weighted_graph


def test_sym_matrix_rejects_self_loop():
    with pytest.raises(ValueError, match="nonzero diagonal entry at index 1"):
        linalg.SymWeightedMatrix(3, {(1, 1): 1.0})
    with pytest.raises(ValueError, match="nonzero diagonal entry at index 0"):
        linalg.symmetric_degrees(np.eye(3))


def test_sym_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        linalg.SymWeightedMatrix(2, {(0, 5): 1.0})


def test_sym_matrix_rejects_conflicting_weights():
    with pytest.raises(ValueError):
        linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (1, 0): -1.0})


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_sym_matrix_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match=r"non-finite weight .* at index "
                                         r"pair \(1,2\)"):
        linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (1, 2): w})


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_symmetric_degrees_rejects_non_finite_entries(w):
    # NaN - NaN and inf - inf are NaN, which no asymmetry bound catches
    M = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, w], [0.0, w, 0.0]])
    with pytest.raises(ValueError,
                       match=rf"^non-finite entry {w} at index \(1, 2\)$"):
        linalg.symmetric_degrees(M)


def test_symmetric_degrees_rejects_overflowing_degrees():
    big = np.full((3, 3), 1e308) - np.diag(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^weighted degree of row 0 overflows$"):
        linalg.symmetric_degrees(big)


def test_sym_matrix_drops_zero_weights():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (0, 2): 0.0})
    assert A.entries == {(0, 1): 1.0}


def test_from_dense_roundtrip():
    # the pair map of a dense graph's upper triangle densifies back to it
    rng = np.random.default_rng(3)
    dense = nonempty_weighted_graph(rng, 7)
    us, vs = np.nonzero(np.triu(dense, 1))
    A = linalg.SymWeightedMatrix(
        7, {(u, v): dense[u, v] for u, v in zip(us, vs)})
    np.testing.assert_array_equal(linalg.symmetric_degrees(A)[0], dense)


def test_degrees_are_weighted():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 2.0, (1, 2): -1.5})
    np.testing.assert_array_equal(linalg.symmetric_degrees(A)[1],
                                  [2.0, 3.5, 1.5])


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


def test_spectral_radius_upper_rescale_guard():
    # 3 * Id overflows naive powering long before z = 400;
    # ||(3 Id_2)^400||_F = sqrt(2) 3^400
    val = linalg.spectral_radius_upper(3.0 * np.eye(2), 400)
    np.testing.assert_allclose(val, 3.0 * 2.0 ** (1 / 800), rtol=1e-12)


def test_spectral_radius_upper_tiny_rescale():
    val = linalg.spectral_radius_upper(1e-3 * np.eye(2), 200)
    np.testing.assert_allclose(val, 1e-3 * 2.0 ** (1 / 400), rtol=1e-12)


def _sequential_power_bound(M, z):
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
    return np.exp((np.log(np.sqrt((P * P).sum())) + log_scale) / z)


def test_spectral_radius_upper_matches_sequential_products():
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1.0, 40.0):
        M = scale * rng.uniform(-1, 1, size=(9, 9))
        before = M.copy()
        for z in range(1, 21):
            np.testing.assert_allclose(
                linalg.spectral_radius_upper(M, z),
                _sequential_power_bound(M, z), rtol=1e-12)
        np.testing.assert_array_equal(M, before)
    for M, z in ((3.0 * np.eye(2), 400), (1e-3 * np.eye(2), 200)):
        np.testing.assert_allclose(
            linalg.spectral_radius_upper(M, z),
            _sequential_power_bound(M, z), rtol=1e-12)


def test_spectral_radius_upper_rejects_overflow():
    # the rescaled square is 4 * ones; its product with M overflows, and
    # the resulting inf must not pass for a bound
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="overflowed"):
        linalg.spectral_radius_upper(np.full((4, 4), 1e308), 3)


def test_spectral_radius_upper_zero_matrix():
    assert linalg.spectral_radius_upper(np.zeros((3, 3)), 5) == 0.0


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


def test_real_eigenvalues_symmetric():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(np.sort(linalg.real_eigenvalues(M)),
                               [-1.0, 1.0], atol=1e-12)


def test_real_eigenvalues_no_real_spectrum():
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert linalg.real_eigenvalues(M).size == 0


def test_real_eigenvalues_dim_cap(monkeypatch):
    monkeypatch.setattr(linalg, "EIG_DIM_CAP", 1)
    with pytest.raises(ValueError, match="eigensolve infeasible"):
        linalg.real_eigenvalues(np.zeros((2, 2)))


def test_det_shift_matches_numpy():
    rng = np.random.default_rng(11)
    M = rng.uniform(-1, 1, size=(5, 5))
    np.testing.assert_allclose(linalg.det_shift(M), np.linalg.det(M))


def test_symmetric_degrees_accepts_both_forms():
    A = linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (1, 2): -2.0})
    for form in (A, A.to_dense(), A.to_dense().tolist()):
        dense, degs = linalg.symmetric_degrees(form)
        assert dense.dtype == np.float64
        np.testing.assert_array_equal(dense, A.to_dense())
        np.testing.assert_array_equal(degs, [1.0, 3.0, 2.0])


def _cholesky_cases():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 300))
    ones = np.ones((4, 1))
    return {
        "pd": X @ X.T + 300.0 * np.eye(300),
        "singular-psd": ones @ ones.T,
        "indefinite": X + X.T,
        "pd-1x1": np.array([[2.0]]),
        "zero-1x1": np.array([[0.0]]),
        "negative-1x1": np.array([[-1.0]]),
    }


def _numpy_verdict(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("name", list(_cholesky_cases()))
@pytest.mark.parametrize("direct", [True, False], ids=["direct", "fallback"])
@pytest.mark.parametrize("pad", [0, 3], ids=["contiguous", "leading-view"])
def test_cholesky_in_place_matches_numpy(monkeypatch, name, direct, pad):
    # the verdict of np.linalg.cholesky, whether numpy's dpotrf is called
    # in place or np.linalg.cholesky stands in; on a leading block of a
    # wider array (lda > n) nothing outside the block is touched
    a = _cholesky_cases()[name]
    if not direct:
        monkeypatch.setattr(linalg, "_POTRF", None)
    n = a.shape[0]
    buf = np.full((n + pad, n + pad), 7.0)
    buf[:n, :n] = a
    block = buf[:n, :n]
    verdict = linalg.cholesky_in_place(block)
    assert verdict == _numpy_verdict(a)
    np.testing.assert_array_equal(np.tril(block, -1), np.tril(a, -1))
    assert (buf[n:] == 7.0).all() and (buf[:, n:] == 7.0).all()
    if verdict and direct and linalg.POTRF_SYMBOL is not None:
        # the factor is numpy's, bit for bit, in the upper triangle
        np.testing.assert_array_equal(np.triu(block),
                                      np.linalg.cholesky(a).T)
    if not direct:
        np.testing.assert_array_equal(block, a)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "fallback"])
def test_cholesky_in_place_reads_the_upper_triangle(monkeypatch, direct):
    # a symmetric positive definite upper triangle decides, whatever the
    # strict lower triangle holds
    if not direct:
        monkeypatch.setattr(linalg, "_POTRF", None)
    a = np.array([[4.0, 1.0, 0.0], [-9.0, 3.0, 1.0], [5.0, 8.0, 2.0]])
    assert linalg.cholesky_in_place(a.copy())
    assert not linalg.cholesky_in_place(a.T.copy())


@pytest.mark.parametrize("a", [
    np.eye(3).T[:, ::-1],
    np.asfortranarray(np.arange(6.0).reshape(2, 3)[:, :2]),
    np.eye(3, dtype=np.float32),
    np.eye(3)[:2],
    np.eye(3).tolist(),
], ids=["reversed", "column-view", "float32", "non-square", "list"])
def test_cholesky_in_place_refuses_other_layouts(a):
    with pytest.raises(ValueError):
        linalg.cholesky_in_place(a)


def test_cholesky_in_place_resolves_nothing_without_a_symbol(monkeypatch):
    monkeypatch.setattr(linalg, "_POTRF_SYMBOLS", ("no_such_dpotrf_",))
    assert linalg._resolve_potrf() == (None, None)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("direct", [True, False], ids=["direct", "fallback"])
def test_cholesky_in_place_fails_on_non_finite_entries(monkeypatch, entry,
                                                       direct):
    # OpenBLAS's dpotrf runs through a NaN pivot, and np.linalg.cholesky
    # returns its NaN factor; a verdict must not count that as positive
    if not direct:
        monkeypatch.setattr(linalg, "_POTRF", None)
    a = 4.0 * np.eye(3)
    a[0, 2] = a[2, 0] = entry
    assert not linalg.cholesky_in_place(a)
