import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nbrefute import (certify, instances, linalg, nonbacktracking, refute,
                      walks)

import dense_reference
import exact_reference


def kept_entry(F, row, col):
    """Reference predicate for the split: the two tensor-factor index
    multisets of (row, col) share at most (k-3)/2 indices."""
    alpha_r, beta_r = F.pair_of(row)
    alpha_c, beta_c = F.pair_of(col)
    left = list(alpha_r) + list(alpha_c)
    right = list(beta_r) + list(beta_c)
    overlap = 0
    for i in set(left):
        overlap += min(left.count(i), right.count(i))
    return overlap <= (F.k - 3) // 2


def quadratic_form_oracle(I, x):
    """sum_l (sum_{clauses containing l} (k-1)! * w * prod x over the rest)^2,
    which the flattened matrix must reproduce as a quadratic form on
    x^(tensor (k-1))."""
    total = 0.0
    scale = math.factorial(I.k - 1)
    for ell in range(I.n):
        inner = 0.0
        for tup, w in I.clauses.items():
            if ell in tup:
                prod = 1.0
                for i in tup:
                    if i != ell:
                        prod *= x[i]
                inner += scale * w * prod
        total += inner * inner
    return total


def tensor_power(x, reps):
    y = np.asarray(x, dtype=float)
    out = np.ones(1)
    for _ in range(reps):
        out = np.outer(out, y).ravel()
    return out


def test_row_of_pair_of_roundtrip():
    F = dense_reference.flatten(instances.XorInstance(4, 3, {(0, 1, 2): 1.0}))
    for row in range(F.dim):
        alpha, beta = F.pair_of(row)
        assert F.row_of(alpha, beta) == row
    with pytest.raises(ValueError, match="out of range"):
        F.row_of((0,), (9,))


def test_flatten_single_clause_frozen_entries():
    I = instances.XorInstance(3, 3, {(0, 1, 2): 1.0})
    F = dense_reference.flatten(I)
    A = F.base
    assert A[F.row_of((0,), (0,)), F.row_of((1,), (1,))] == 1.0
    assert A[F.row_of((0,), (1,)), F.row_of((1,), (0,))] == 1.0
    # the pair below pulls its middle indices from different clauses of the
    # bucket decomposition, and a single clause offers only one
    assert A[F.row_of((0,), (1,)), F.row_of((1,), (2,))] == 0.0
    assert np.count_nonzero(A) == 12
    np.testing.assert_array_equal(A, A.T)
    assert np.all(np.diag(A) == 0.0)


def test_flatten_quadratic_identity_k3():
    rng = np.random.default_rng(31)
    for seed in range(4):
        I = instances.sample_kxor(6, 3, 0.5, seed=seed)
        if I.m == 0:
            continue
        F = dense_reference.flatten(I)
        for _ in range(3):
            x = rng.choice([-1.0, 1.0], size=6)
            y = tensor_power(x, 2)
            np.testing.assert_allclose(
                y @ F.base @ y, quadratic_form_oracle(I, x), atol=1e-10)


def test_flatten_quadratic_identity_k5():
    I = instances.XorInstance(5, 5, {(0, 1, 2, 3, 4): -0.7})
    F = dense_reference.flatten(I)
    assert F.dim == 5 ** 4
    np.testing.assert_array_equal(F.base, F.base.T)
    assert np.all(np.diag(F.base) == 0.0)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.choice([-1.0, 1.0], size=5)
        y = tensor_power(x, 4)
        np.testing.assert_allclose(
            y @ F.base @ y, quadratic_form_oracle(I, x), atol=1e-8)


def test_flatten_rejects_even_arity():
    I = instances.XorInstance(6, 4, {(0, 1, 2, 3): 1.0})
    with pytest.raises(ValueError, match="flattening needs odd k"):
        dense_reference.flatten(I)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the arity check")


def test_refute_xor_rejects_even_arity_up_front(monkeypatch):
    monkeypatch.setattr(refute, "_swap_parts", _fail_if_called)
    I = instances.XorInstance(6, 4, {(0, 1, 2, 3): 1.0, (1, 2, 4, 5): -1.0})
    with pytest.raises(ValueError, match="k=4 is unsupported"):
        refute.refute_xor(I)


@pytest.mark.parametrize("k", [2, 4])
def test_refute_csp_rejects_even_arity_up_front(monkeypatch, k):
    monkeypatch.setattr(instances, "fourier_decompose", _fail_if_called)
    monkeypatch.setattr(refute, "_swap_parts", _fail_if_called)
    J = instances.sample_csp(instances.predicate_table("parity", k), 5, k,
                             0.2, seed=0)
    assert J.m > 0
    with pytest.raises(ValueError, match=f"k={k} is unsupported"):
        refute.refute_csp(J)


def test_refute_csp_rejects_arity_one_up_front(monkeypatch):
    monkeypatch.setattr(instances, "fourier_decompose", _fail_if_called)
    J = instances.sample_csp([0.0, 1.0], 6, 1, 0.5, seed=0)
    assert J.m > 0
    with pytest.raises(ValueError, match="arity k=1 is unsupported: the "
                                         "refutation's flattening needs odd "
                                         "k >= 3"):
        refute.refute_csp(J)


def test_flatten_dimension_cap():
    I = instances.XorInstance(82, 3, {(0, 1, 2): 1.0})
    with pytest.raises(ValueError, match="flatten infeasible"):
        dense_reference.flatten(I)


def test_split_is_exact_partition():
    for seed in range(3):
        I = instances.sample_kxor(7, 3, 0.4, seed=seed)
        if I.m == 0:
            continue
        F = dense_reference.flatten(I)
        main, residual = dense_reference.split(F)
        np.testing.assert_array_equal(main.base + residual.base, F.base)
        rows, cols = np.nonzero(main.base)
        for r, c in zip(rows[:50], cols[:50]):
            assert kept_entry(F, r, c)
        rows, cols = np.nonzero(residual.base)
        for r, c in zip(rows[:50], cols[:50]):
            assert not kept_entry(F, r, c)


def test_split_partition_k5():
    I = instances.XorInstance(5, 5, {(0, 1, 2, 3, 4): 1.0})
    main, residual = dense_reference.split(dense_reference.flatten(I))
    np.testing.assert_array_equal(
        main.base + residual.base, dense_reference.flatten(I).base)
    rows, cols = np.nonzero(main.base)
    for r, c in zip(rows[:40], cols[:40]):
        assert kept_entry(main, r, c)


def test_split_single_clause_all_residual():
    # with one clause both tensor factors always reuse its variables, so
    # nothing survives the split
    I = instances.XorInstance(4, 3, {(0, 1, 2): 1.0})
    main, residual = dense_reference.split(dense_reference.flatten(I))
    assert np.count_nonzero(main.base) == 0
    assert np.count_nonzero(residual.base) == 12
    assert dense_reference.residual_bound(residual) == 12.0


def test_refute_xor_single_clause_clamps():
    I = instances.XorInstance(4, 3, {(0, 1, 2): 1.0})
    cert = refute.refute_xor(I)
    assert cert.final_bound == 1.0
    assert cert.meta["clamped"] is True
    assert cert.informative is False
    names = [s["name"] for s in cert.steps]
    assert "main_empty" in names
    assert names[-1] == "opt_bound"


def test_refute_xor_dominates_brute_force():
    for seed in range(3):
        I = instances.sample_kxor(11, 3, 0.3, seed=seed)
        cert = refute.refute_xor(I)
        opt = instances.brute_opt(I)
        assert cert.final_bound >= opt - 1e-12
        assert cert.sound is True
        assert cert.meta["m"] == I.m
        cert.validate()


def test_refutations_reject_other_modes():
    I = instances.sample_kxor(9, 3, 0.3, seed=0)
    J = instances.sample_csp(instances.predicate_table("3sat", 3), 9, 3,
                             0.05, 0)
    for mode in ("eig", "estimate"):
        with pytest.raises(ValueError, match=repr(mode)):
            refute.refute_xor(I, mode=mode)
        with pytest.raises(ValueError, match=repr(mode)):
            refute.refute_csp(J, mode=mode)


def test_refute_xor_requires_clauses():
    I = instances.XorInstance(5, 3, {})
    with pytest.raises(ValueError, match="no clauses to refute"):
        refute.refute_xor(I)


def test_refute_xor_informative_flag_tracks_bound():
    I = instances.sample_kxor(12, 3, 0.9, seed=4)
    cert = refute.refute_xor(I)
    assert cert.informative is (cert.final_bound < 1.0)


def _random_table(k, seed):
    return np.random.default_rng(seed).integers(0, 2, size=2 ** k)


def _reduction_cases():
    sat = instances.predicate_table("3sat")
    rng = np.random.default_rng(31)
    # every scope repeats an index, and every constraint appears twice
    repeated = [((i, i, j), tuple(int(s) for s in rng.choice((-1, 1), 3)))
                for i, j in rng.integers(0, 6, size=(10, 2))]
    return [
        instances.sample_csp(sat, 9, 3, 0.05, seed=1),
        instances.sample_csp(_random_table(3, 2), 8, 3, 0.1, seed=2),
        instances.sample_csp(_random_table(5, 3), 6, 5, 0.005, seed=3),
        instances.sample_csp(_random_table(5, 4), 5, 5, 0.02, seed=4),
        instances.CspInstance(6, 3, sat, repeated + repeated),
        instances.sample_csp(instances.predicate_table("parity"), 7, 3,
                             0.05, seed=5),
    ]


# the degree-d parts of the CSP, d < k, flattened into each degree pair's
# M (d = 2j - 1) and M' (d = 2j) after the x_i^2 = 1 reduction
@pytest.mark.parametrize("J", _reduction_cases(),
                         ids=lambda J: f"k{J.k}-n{J.n}-m{J.m}")
def test_flatten_degree_d_matches_loop(J):
    c0, want = reference_pairs(J)
    _, pairs, _ = _csp_chain(J)
    # parity's terms all have degree 3, which reduces to 3 or 1
    parity = np.array_equal(J.truth_table,
                            instances.predicate_table("parity", J.k))
    assert not parity or c0 == 0.0 and not want[1][1].any()
    for j, (M, M2) in want.items():
        assert not M2.diagonal().any()
        if j not in pairs:
            assert not (M.any() or M2.any() or j == 1 and c0)
            continue
        got_M, got_M2, got_c0 = pairs[j]
        # bit for bit, the signs of zeros included
        assert got_M.tobytes() == M.tobytes()
        assert got_M2.tobytes() == M2.tobytes()
        assert got_c0 == (c0 if j == 1 else 0.0)


def reduced_part_value_oracle(J, d, x):
    """Direct evaluation at the assignment x of every term chat_S prod_{i
    in S} c_i x_{alpha_i}, |S| >= 1, whose reduced degree is d."""
    total = 0.0
    fourier = instances.fourier_decompose(J.truth_table)
    for alpha, c in J.constraints:
        for S, chat in fourier.coefficients.items():
            odd = [i for i, count in Counter(alpha[t] for t in S).items()
                   if count % 2]
            if S and len(odd) == d:
                total += chat * math.prod(c[t] * x[alpha[t]] for t in S)
    return total


def test_flatten_degree_d_matches_value_oracle():
    table = instances.predicate_table("3sat")
    J = instances.sample_csp(table, 5, 3, 0.05, seed=6)
    assert J.m > 0
    _, pairs, _ = _csp_chain(J)
    M, M2, c0 = pairs[1]
    assert M.shape == (1, 5) and M2.shape == (5, 5)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.choice([-1.0, 1.0], size=5)
        for d, got in ((0, c0), (1, (M @ x)[0]), (2, x @ M2 @ x)):
            np.testing.assert_allclose(
                got, reduced_part_value_oracle(J, d, x), atol=1e-10)


def test_flatten_degree_d_parity_is_zero():
    table = instances.predicate_table("parity", 3)
    J = instances.sample_csp(table, 5, 3, 0.05, seed=2)
    # parity has no Fourier term below degree 3, so pair 1 holds only the
    # degree-3 terms that a repeated index reduces to degree 1
    _, pairs, _ = _csp_chain(J)
    M, M2, c0 = pairs[1]
    assert M.any() and not M2.any() and c0 == 0.0
    distinct = instances.CspInstance(
        J.n, J.k, J.truth_table,
        [(alpha, c) for alpha, c in J.constraints if len(set(alpha)) == 3])
    assert 0 < distinct.m < J.m
    _, pairs, _ = _csp_chain(distinct)
    assert all(not (M.any() or M2.any() or c0)
               for M, M2, c0 in pairs.values())


def test_a_repeated_index_moves_a_degree_3_term_to_pair_1():
    # P(z) = (1 + z_0 z_1 z_2) / 2 on scope (0, 0, 1, 2, 3): x_0 x_0 x_1 =
    # x_1, so chat_{012} = 1/2 lands in pair (1, 2)'s M, a star
    table = [(1 + math.prod(instances.assignment_from_index(i, 5)[:3])) / 2
             for i in range(32)]
    J = instances.CspInstance(4, 5, table, [((0, 0, 1, 2, 3), (1,) * 5)])
    cert = refute.refute_csp(J)
    values = {s["name"]: s["value"] for s in cert.steps}
    assert "degree_3_4_bound" not in values
    assert values["degree_1_2_bound"] == math.nextafter(0.5, math.inf)
    assert cert.final_bound >= instances.csp_brute_opt(J)


def _sign_powers(n, reps):
    """x^(reps), one row per x in {+-1}^n."""
    x = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    y = np.ones((len(x), 1))
    for _ in range(reps):
        y = (y[:, :, None] * x[:, None, :]).reshape(len(x), -1)
    return y


_SAT = instances.predicate_table("3sat")
_MAJORITY = np.array([float(sum(instances.assignment_from_index(i, 3)) > 0)
                      for i in range(8)])


def _bordered_block(M, M2):
    """S = [[0, M/2], [M^T/2, (M2 + M2^T)/2]]: the degree pair's block,
    built from refute's docstring."""
    rows, cols = M.shape
    S = np.zeros((rows + cols, rows + cols))
    S[:rows, rows:], S[rows:, :rows] = M / 2, M.T / 2
    S[rows:, rows:] = (M2 + M2.T) / 2
    return S


@pytest.mark.parametrize("J", [
    instances.sample_csp(_SAT, 12, 3, 0.01, seed=0),
    instances.sample_csp(_SAT, 10, 3, 0.03, seed=1),
    instances.sample_csp(_random_table(3, 4), 12, 3, 0.02, seed=2),
    instances.sample_csp(_random_table(3, 5), 9, 3, 0.05, seed=3),
    instances.sample_csp(_random_table(5, 6), 8, 5, 0.002, seed=4),
    instances.sample_csp(_random_table(5, 7), 7, 5, 0.003, seed=5),
    # every scope is (i, i, i): the degree-2 terms reduce to constants, so
    # M' = 0 and S is a star
    instances.CspInstance(5, 3, _SAT, [((i, i, i), (1, -1, 1))
                                       for i in range(4)]),
    # majority has odd degrees only: M' = 0, so S is a star
    instances.sample_csp(_MAJORITY, 12, 3, 0.02, seed=6),
], ids=lambda J: f"k{J.k}-n{J.n}-m{J.m}")
def test_degree_d_bounds_dominate_enumerated_forms(J):
    # every pair step (2j - 1, 2j) is at least the maximum of c0 + y^T M y'
    # + y'^T M' y' over x (c0 in pair 1 only): the exact ones (a star or S
    # = 0) equal it rounded up, and a witness of dim <= 42 is exactly PD,
    # and not at 0.99 w when its first rung verified
    steps = {s["name"]: s for s in refute.refute_csp(J, z=6).steps}
    assert not [name for name in steps if name.endswith("matrix_bound")]
    c0, pairs = reference_pairs(J)
    for j, (M, M2) in pairs.items():
        c = c0 if j == 1 else 0.0
        step = steps.get(f"degree_{2 * j - 1}_{2 * j}_bound")
        assert (step is None) == (not M.any() and not M2.any() and not c)
        if step is None:
            continue
        y, y2 = _sign_powers(J.n, j - 1), _sign_powers(J.n, j)
        top = c + float((np.einsum("ij,ij->i", y @ M, y2)
                         + np.einsum("ij,ij->i", y2 @ M2, y2)).max())
        assert step["value"] >= top, (j, step["value"], top)
        S = _bordered_block(M, M2)
        assert not S.diagonal().any()
        if not M2.any() and (j == 1 or not M.any()):
            assert step["method"] == "exact" and "witness" not in step
            # c0 + ||M||_1 is the exact maximum
            assert step["value"] == math.nextafter(top, math.inf)
            continue
        assert step["method"] == "cholesky"
        witness = step["witness"]
        assert witness["dim"] == sum(M.shape)
        degs = np.abs(S).sum(axis=1)
        keep = np.flatnonzero(degs)
        w = witness["a"] + witness["b"] * degs[keep]
        assert step["value"] == certify.round_up(certify.exact_sum(
            np.append(w, c)))
        if witness["dim"] <= 42:
            S = S[np.ix_(keep, keep)]
            assert exact_reference.is_positive_definite(np.diag(w) - S)
            if witness["cholesky_probes"] == 1:
                assert not exact_reference.is_positive_definite(
                    np.diag(0.99 * w) - S)


@pytest.mark.parametrize("refute_fn, I", [
    (refute.refute_xor, instances.sample_kxor(12, 3, 0.2, seed=1)),
    (refute.refute_xor, instances.sample_kxor(8, 5, 0.2, seed=3)),
    (refute.refute_csp, instances.sample_csp(_SAT, 12, 3, 0.02, seed=1)),
    (refute.refute_csp, instances.sample_csp(_random_table(5, 6), 8, 5,
                                             0.002, seed=4)),
], ids=["xor-k3", "xor-k5", "3sat-k3", "table-k5"])
def test_refutations_certify_by_exact_sums_and_cholesky_only(refute_fn, I):
    # no power-norm (gelfand) or eigensolve step in any refutation
    cert = refute_fn(I, z=6)
    assert {s["method"] for s in cert.steps} == {"exact", "cholesky"}
    assert cert.sound


def test_refute_csp_dominates_brute_force():
    table = instances.predicate_table("3sat")
    for seed in (0, 3):
        J = instances.sample_csp(table, 10, 3, 0.01, seed=seed)
        assert J.m > 0
        cert = refute.refute_csp(J)
        opt = instances.csp_brute_opt(J)
        assert cert.final_bound >= opt - 1e-12
        cert.validate()
        assert cert.kind == "csp_refutation"


def test_refute_csp_parity_matches_xor_route():
    # parity constraints over distinct supports collapse to a k-XOR
    # instance; the two pipelines must price them identically
    table = instances.predicate_table("parity", 3)
    scopes = [(0, 1, 2), (1, 3, 5), (2, 4, 7), (0, 3, 6), (4, 5, 6),
              (1, 2, 9), (3, 7, 8)]
    rng = np.random.default_rng(23)
    constraints = []
    clauses = {}
    for scope in scopes:
        c = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        constraints.append((scope, c))
        clauses[scope] = float(np.prod(c))
    J = instances.CspInstance(10, 3, table, constraints)
    I = instances.XorInstance(10, 3, clauses)
    assert refute.refute_csp(J).final_bound == refute.refute_xor(I).final_bound


def test_refute_csp_handles_degenerate_scopes():
    table = instances.predicate_table("parity", 3)
    J = instances.CspInstance(6, 3, table, [
        ((0, 0, 1), (1, 1, 1)),
        ((2, 3, 4), (1, -1, 1)),
    ])
    cert = refute.refute_csp(J)
    values = {s["name"]: s["value"] for s in cert.steps}
    # x_0 x_0 x_1 = x_1: chat_3 = 1/2 lands in pair (1, 2)'s M, a star,
    # whose exact bound is ||M||_1 rounded up
    assert values["degree_1_2_bound"] == math.nextafter(0.5, math.inf)
    assert "degree_k_degenerate" not in values
    opt = instances.csp_brute_opt(J)
    assert cert.final_bound >= opt - 1e-12


def test_refute_csp_dictator_skips_top_degree():
    # P(z) = (1 + z_0) / 2 has no top Fourier coefficient
    table = [0.0] * 4 + [1.0] * 4
    J = instances.CspInstance(8, 3, table, [
        ((0, 1, 2), (1, 1, 1)),
        ((3, 4, 5), (-1, 1, 1)),
    ])
    cert = refute.refute_csp(J)
    # chat_k = 0 leaves every support weight 0, so no degree-k step
    assert not [s for s in cert.steps if s["name"].startswith("degree_k_")]
    assert cert.final_bound == 1.0
    assert cert.final_bound >= instances.csp_brute_opt(J) - 1e-12


def test_refute_csp_requires_constraints():
    J = instances.CspInstance(4, 3, instances.predicate_table("3sat"), [])
    with pytest.raises(ValueError, match="no constraints"):
        refute.refute_csp(J)


def test_audit_passes_honest_certificate():
    I = instances.sample_kxor(10, 3, 0.3, seed=1)
    cert = refute.refute_xor(I)
    report = refute.audit_refutation(I, cert)
    assert report["auditable"] is True
    assert report["passed"] is True
    assert report["certified_bound"] == cert.final_bound


def test_audit_fails_tampered_certificate():
    I = instances.sample_kxor(10, 3, 0.3, seed=1)
    cert = refute.refute_xor(I)
    cert.steps[-1]["value"] = 0.01
    cert.final_bound = 0.01
    report = refute.audit_refutation(I, cert)
    assert report["auditable"] is True
    assert report["passed"] is False


def test_audit_reports_infeasible_sizes():
    I = instances.XorInstance(30, 3, {(0, 1, 2): 1.0, (3, 4, 5): -1.0})
    cert = refute.refute_xor(I)
    report = refute.audit_refutation(I, cert)
    assert report["auditable"] is False
    assert "infeasible" in report["reason"]


def test_audit_csp_certificate():
    table = instances.predicate_table("3sat")
    J = instances.sample_csp(table, 9, 3, 0.01, seed=5)
    assert J.m > 0
    cert = refute.refute_csp(J)
    report = refute.audit_refutation(J, cert)
    assert report["auditable"] is True
    assert report["passed"] is True


def test_audit_rejects_unknown_kind():
    from nbrefute import certify
    I = instances.sample_kxor(8, 3, 0.3, seed=0)
    cert = certify.Certificate("mystery", 8, [
        {"name": "x", "claim": "c", "value": 1.0, "method": "exact"}])
    with pytest.raises(ValueError, match="cannot audit"):
        refute.audit_refutation(I, cert)


def _dense_parts(I):
    """The dense reference for what _swap_parts returns: A'_sym =
    A'[lo,lo] + A'[lo,hi] of the split of flatten(I), the degrees of A''s
    lo rows, and b2, the correctly rounded sum of |A''| and the rounding
    allowance. A' is swap-invariant, so a lo row's degree is its hi row's,
    summed in the hi row's order, the strip's (_gram_blocks)."""
    main, residual = dense_reference.split(dense_reference.flatten(I))
    dense, degs = linalg.symmetric_degrees(main.base)
    q = main.n ** main.half
    lo, hi = refute._swap_index(q)
    _, allowance = refute._entry_errors(refute._unfolding(I), q)
    b2 = math.fsum(np.append(np.abs(residual.base), allowance).tolist())
    return dense[np.ix_(lo, lo)] + dense[np.ix_(lo, hi)], degs[hi], b2


def _csp_chain(J):
    """refute_csp(J)'s certificate, the pair matrices and constant {j: (M,
    M', c0)} it hands to _degree_pair_step, and the rescaled weighted XOR
    instances it hands to the XOR chain for the degree-k part of J (one or
    none), each with that chain's polynomial bound."""
    pairs, chains = {}, []
    real_pair, real_chain = refute._degree_pair_step, refute._xor_chain

    def pair_step(M, M2, j, c0):
        pairs[j] = M, M2, c0
        return real_pair(M, M2, j, c0)

    def xor_chain(I, *args):
        steps, poly = real_chain(I, *args)
        chains.append((I, poly))
        return steps, poly

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refute, "_degree_pair_step", pair_step)
        mp.setattr(refute, "_xor_chain", xor_chain)
        cert = refute.refute_csp(J)
    return cert, pairs, chains


def _degree_k_chain(J):
    """refute_csp(J)'s certificate, its degree-k XOR instance and that
    chain's polynomial bound."""
    cert, _, [(I, poly)] = _csp_chain(J)
    return cert, I, poly


def reduced_terms(J):
    """The per-constraint reference for refute_csp's reduction: for every
    constraint (alpha, c), then every nonzero chat_S, |S| >= 1, in sorted
    order, (|S|, the sorted indices of odd multiplicity in alpha_S, chat_S
    prod_{i in S} c_i), the term chat_S prod c_i x^(alpha_S) reduced by
    x_i^2 = 1."""
    items = sorted((S, v) for S, v in instances.fourier_decompose(
        J.truth_table).coefficients.items() if S and v != 0.0)
    return [(len(S), tuple(sorted(i for i, count in Counter(
        alpha[t] for t in S).items() if count % 2)),
        chat * math.prod(c[t] for t in S))
        for alpha, c in J.constraints for S, chat in items]


def reference_pairs(J):
    """(c0, {j: (M, M')}) added one reduced term at a time: c0 the terms of
    degree 0, and M and M' those of degree 2j - 1 and 2j, each at the
    base-n rank of its indices."""
    c0, n = 0.0, J.n
    pairs = {j: (np.zeros((n ** (j - 1), n ** j)), np.zeros((n ** j,) * 2))
             for j in range(1, (J.k + 1) // 2)}
    for _, key, w in reduced_terms(J):
        d = len(key)
        if d == 0:
            c0 += w
        elif d < J.k:
            M = pairs[(d + 1) // 2][1 - d % 2]
            M.flat[np.ravel_multi_index(key, (n,) * d)] += w
    return c0, pairs


def degree_k_loop(J):
    """The per-constraint reference for refute_csp's degree-k part: the
    support weights of the degree-k terms still over k distinct indices,
    summed in constraint order, zero sums dropped, and the reduced
    monomials of the rest."""
    weights, reduced = {}, []
    for d, key, w in reduced_terms(J):
        if len(key) == J.k:
            weights[key] = weights.get(key, 0.0) + w
        elif d == J.k:
            reduced.append((key, w))
    return {key: w for key, w in weights.items() if w != 0.0}, reduced


@pytest.mark.parametrize("J", [
    instances.sample_csp(instances.predicate_table("3sat"), 10, 3, 0.05,
                         seed=0),
    instances.sample_csp(instances.predicate_table("parity"), 8, 3, 0.2,
                         seed=1),
    instances.sample_csp(_random_table(5, 7), 7, 5, 0.01, seed=2),
], ids=lambda J: f"k{J.k}-n{J.n}-m{J.m}")
def test_degree_k_aggregation_matches_loop(J):
    weights, reduced = degree_k_loop(J)
    # in the k = 3 cases the +-chat_k terms of some supports sum to 0
    assert reduced and len(weights) > 1
    # a repeated index reduces the term to a lower odd degree
    assert {len(key) % 2 for key, _ in reduced} == {1}
    assert max(len(key) for key, _ in reduced) < J.k
    cert, I, _ = _degree_k_chain(J)
    values = {s["name"]: s["value"] for s in cert.steps}
    W = max(abs(w) for w in weights.values())
    assert values["degree_k_rescale"] == W
    assert I.clauses == {key: w / W for key, w in weights.items()}
    assert "degree_k_degenerate" not in values


def _integers(a):
    """a as int64, which it must hold exactly."""
    r = np.rint(a)
    np.testing.assert_array_equal(r, a)
    return r.astype(np.int64)


@pytest.mark.parametrize("J", [
    instances.sample_csp(_SAT, 10, 3, 0.05, seed=0),
    instances.sample_csp(instances.predicate_table("parity"), 12, 3, 0.02,
                         seed=1),
    instances.sample_csp(_MAJORITY, 12, 3, 0.02, seed=6),
    instances.sample_csp(_random_table(5, 7), 7, 5, 0.003, seed=5),
    # n = 2 < k: every scope repeats an index
    instances.sample_csp(_SAT, 2, 3, 0.5, seed=0),
], ids=lambda J: f"k{J.k}-n{J.n}-m{J.m}")
def test_csp_chain_parts_sum_to_the_value_exactly(J):
    # m chat_empty + c0 + sum_j (y^T M y' + y'^T M' y') + sum_S w_S x^S is
    # sum_i P(c_i o x^alpha_i) at every x, in integers after scaling by 2^k
    scale = 2 ** J.k
    cert, _, chains = _csp_chain(J)
    c0, pairs = reference_pairs(J)
    x = _sign_powers(J.n, 1).astype(np.int64)
    p0 = instances.fourier_decompose(J.truth_table).coefficient(())
    total = np.full(len(x), J.m * _integers(scale * p0) + _integers(
        scale * c0))
    for j, (M, M2) in pairs.items():
        y = _sign_powers(J.n, j - 1).astype(np.int64)
        y2 = _sign_powers(J.n, j).astype(np.int64)
        total += np.einsum("ij,ij->i", y @ _integers(scale * M), y2)
        total += np.einsum("ij,ij->i", y2 @ _integers(scale * M2), y2)
    for I, _ in chains:
        # the chain's weights are w / W rounded, within u |w| / W, so W
        # times them rounds back to w
        W = next(s["value"] for s in cert.steps
                 if s["name"] == "degree_k_rescale")
        w = scale * W * I.weights
        assert np.abs(w - np.rint(w)).max() < 1e-6
        total += np.prod(x[:, I.supports], axis=2) @ np.rint(w).astype(
            np.int64)
    rows = (J.signs * x[:, J.scopes] > 0) @ (1 << np.arange(J.k - 1, -1, -1))
    value = J.truth_table[rows].sum(axis=1)
    np.testing.assert_array_equal(total, scale * _integers(value))


def _degree_k_instance(J):
    return _degree_k_chain(J)[1]


def _builder_cases():
    cases = [instances.sample_kxor(n, 3, p, seed=seed)
             for n, p, seed in ((8, 0.5, 0), (11, 0.3, 1), (14, 0.2, 2),
                                (14, 0.05, 3))]
    sat = instances.predicate_table("3sat")
    cases += [_degree_k_instance(instances.sample_csp(sat, n, 3, p, seed))
              for n, p, seed in ((10, 0.05, 0), (12, 0.03, 1), (14, 0.02, 2))]
    # k = 5 keeps nothing in A' below n = 8 (a kept entry spans 8 indices)
    cases += [instances.sample_kxor(n, 5, p, seed=seed)
              for n, p, seed in ((5, 1.0, 0), (6, 0.8, 1), (7, 0.5, 2),
                                 (8, 0.2, 3))]
    # variables 0-2 (k = 3) and most pairs (k = 5) are in no clause, so
    # their blocks of V are all zero; the last alpha of k = 3 has a strip
    # with no columns
    cases += [instances.XorInstance(9, 3, {(4, 7, 8): 1.0, (5, 6, 8): -1.0,
                                           (4, 5, 6): 1.0, (3, 6, 7): -1.0}),
              instances.XorInstance(9, 3, {(4, 7, 8): 0.3, (5, 6, 8): -0.7,
                                           (4, 5, 6): 0.9, (3, 6, 7): -0.45,
                                           (3, 5, 8): 0.6}),
              instances.XorInstance(8, 5, {(3, 4, 5, 6, 7): -0.6,
                                           (2, 4, 5, 6, 7): 1.0,
                                           (2, 3, 5, 6, 7): 0.8})]
    return cases


def _gram_blocks_per_index(V, q):
    """_gram_blocks with each strip multiplied out one product V_beta
    V_alpha^T per second half-index beta > alpha and stacked."""
    for a in range(q):
        rows = V[a * q:(a + 1) * q]
        if rows.any():
            strip = [V[b * q:(b + 1) * q] @ rows.T for b in range(a + 1, q)]
            yield a, rows @ rows.T, np.concatenate(
                strip or [np.zeros((0, q))], axis=0)


# "one-slab": each strip V_{>alpha} V_alpha^T in one product, as
# _gram_blocks forms it; "slab-per-index": one product per beta, so the
# pipeline and the reference must read the strip's row blocks by the
# helper's layout alone, whatever call shape produced them
@pytest.mark.parametrize("blocks", [None, _gram_blocks_per_index],
                         ids=["one-slab", "slab-per-index"])
@pytest.mark.parametrize("I", _builder_cases(),
                         ids=lambda I: f"k{I.k}-n{I.n}-m{I.m}")
def test_swap_parts_match_dense_split(monkeypatch, I, blocks):
    if blocks is not None:
        monkeypatch.setattr(refute, "_gram_blocks", blocks)
    sym, degs, b2 = _dense_parts(I)
    parts_sym, parts_degs, parts_b2, entry_err = refute._swap_parts(I)
    np.testing.assert_array_equal(parts_sym, sym)
    np.testing.assert_array_equal(parts_degs, degs)
    assert parts_b2 == b2
    # +-1 weights give integer entries, summed exactly
    assert (entry_err == 0.0) == all(abs(w) == 1.0
                                     for w in I.clauses.values())


@pytest.mark.parametrize("I", [
    instances.sample_kxor(9, 3, 0.4, seed=1),
    instances.sample_kxor(12, 3, 0.3, seed=2),
    instances.sample_kxor(7, 5, 0.5, seed=2),
    _degree_k_instance(instances.sample_csp(instances.predicate_table("3sat"),
                                            12, 3, 0.03, seed=1)),
], ids=lambda I: f"k{I.k}-n{I.n}-m{I.m}")
def test_swap_parts_b2_equals_fsum_of_dense_residual(monkeypatch, I):
    # dense_reference.residual_bound is math.fsum over a list of the dense
    # split's residual; with the rounding allowance held at 0, the exact
    # vectorized b2 of _swap_parts must equal it bit for bit
    entry_errors = refute._entry_errors
    monkeypatch.setattr(refute, "_entry_errors",
                        lambda V, q: (entry_errors(V, q)[0], 0.0))
    _, residual = dense_reference.split(dense_reference.flatten(I))
    assert refute._swap_parts(I)[2] == dense_reference.residual_bound(
        residual)


def overlap_by_gathers(left, right, h, n):
    """The mask as k - 1 strip-sized gathers, one per digit of the right
    rows: whether row i of left shares at least h indices with row j of
    right, counting the digits of j found in i, at [i, j]."""
    member = np.zeros((len(left), n), dtype=np.int8)
    member[np.arange(len(left))[:, None], left] = 1
    return sum(member[:, column] for column in right.T) >= h


@pytest.mark.parametrize("n,k", [(4, 3), (7, 3), (4, 5), (5, 5)])
def test_overlap_mask_matches_multiset_overlap(n, k):
    h = (k - 1) // 2
    q = n ** h
    digits = refute._digits(n, k)
    halves = refute._digits(n, h + 1)
    full = refute._overlap_at_least(digits, 0, h, n, halves)
    # split's whole mask and every strip of _swap_parts, bit for bit, one
    # row per row of V_{>alpha}
    np.testing.assert_array_equal(
        full, overlap_by_gathers(digits, digits, h, n).T)
    for a in range(q):
        np.testing.assert_array_equal(
            refute._overlap_at_least(digits[a * q:(a + 1) * q], a + 1, h, n,
                                     halves),
            overlap_by_gathers(digits[a * q:(a + 1) * q],
                               digits[(a + 1) * q:], h, n).T)
    # on the rows of V that can hold a clause fragment (distinct digits)
    # the mask is the multiset overlap of the split condition
    fragments = [i for i, row in enumerate(digits.tolist())
                 if len(set(row)) == k - 1]
    for i in fragments:
        row = Counter(digits[i].tolist())
        for j in fragments:
            shared = sum((row & Counter(digits[j].tolist())).values())
            assert full[j, i] == (shared >= h)


def test_swap_parts_rescaled_weights_are_not_signs():
    # the CSP cases above exercise weights other than +-1
    weights = {abs(w) for I in _builder_cases() for w in I.clauses.values()}
    assert weights - {1.0}


def _weighted(I, seed):
    """I with each weight's magnitude redrawn from [0.1, 1]."""
    rng = np.random.default_rng(seed)
    return instances.XorInstance(I.n, I.k, {
        tup: w * float(rng.uniform(0.1, 1.0)) for tup, w in I.clauses.items()})


@pytest.mark.parametrize("I", [
    instances.sample_kxor(10, 3, 0.3, seed=1),
    instances.sample_kxor(7, 5, 0.5, seed=2),
    _weighted(instances.sample_kxor(20, 3, 0.1, seed=3), 3),
    _weighted(instances.sample_kxor(8, 5, 0.3, seed=4), 4),
], ids=lambda I: f"k{I.k}-n{I.n}-m{I.m}")
def test_flatten_is_swap_invariant_and_symmetric(I):
    F = dense_reference.flatten(I)
    q = I.n ** F.half
    grid = F.base.reshape(q, q, q, q)
    # the blocks below the block diagonal are the strips' transposes
    np.testing.assert_array_equal(grid, grid.transpose(1, 0, 3, 2))
    if all(abs(w) == 1.0 for w in I.clauses.values()):
        np.testing.assert_array_equal(F.base, F.base.T)
        return
    # A[u, v] and A[v, u] pair the same two rows of V in different
    # products, each within gamma_n (|V| |V|^T)_ij of the symmetric exact
    # value
    absV = np.abs(refute._unfolding(I))
    error = (absV @ absV.T).reshape(q, q, q, q).transpose(0, 2, 1, 3)
    assert np.all(np.abs(F.base - F.base.T)
                  <= 2.0 * certify.gamma(I.n) * error.reshape(F.base.shape))


def test_residual_bound_covers_entry_rounding():
    # b2 bounds the exact sum |A''| of the instance the chain is handed,
    # not only the sum of its rounded entries
    J = instances.sample_csp(instances.predicate_table("3sat"), 10, 3, 0.05,
                             seed=0)
    I = _degree_k_instance(J)
    V = refute._unfolding(I)
    assert refute._entry_errors(V, I.n)[1] > 0
    digits = refute._digits(I.n, I.k)
    exact = Fraction(0)
    # A'' is V V^T at the pairs of rows sharing an index, middle-swapped
    h = (I.k - 1) // 2
    for j, i in zip(*np.nonzero(refute._overlap_at_least(
            digits, 0, h, I.n, refute._digits(I.n, h + 1)))):
        exact += abs(sum(Fraction(a) * Fraction(b)
                         for a, b in zip(V[i], V[j]) if a and b))
    b2 = next(s["value"] for s in refute.refute_xor(I, z=6).steps
              if s["name"] == "residual_bound")
    assert exact <= Fraction(b2)


def test_degree_k_bound_covers_rescale_rounding():
    J = instances.sample_csp(instances.predicate_table("3sat"), 10, 3, 0.05,
                             seed=0)
    chat = Fraction(instances.fourier_decompose(J.truth_table).coefficient(
        (0, 1, 2)))
    w = {}
    for alpha, c in J.constraints:
        if len(set(alpha)) == 3:
            key = tuple(sorted(alpha))
            w[key] = w.get(key, 0) + chat * math.prod(c)
    cert, I, poly = _degree_k_chain(J)
    values = {s["name"]: s["value"] for s in cert.steps}
    W = Fraction(values["degree_k_rescale"])
    # the chain bounds the rescaled instance as rounded: sum_S w_S x_S <=
    # W sum_S tilde_S x_S + sum_S |w_S - W tilde_S|
    rounding = sum(abs(v - W * Fraction(I.clauses[key]))
                   for key, v in w.items() if v)
    assert rounding > 0
    assert (W * Fraction(poly) / math.factorial(3) + rounding
            <= Fraction(values["degree_k_bound"]))


def _dense_witness(I):
    """A'_sym, the lo degrees and the main_trace_bound step written out
    from the diagonal witness on them and its exact trace 2 sum_lo w_u,
    rounded up, from the dense split of flatten(I) (None when the split
    keeps nothing)."""
    sym, degs, _ = _dense_parts(I)
    if not degs.any():
        return sym, degs, None
    w, witness = certify.diagonal_witness(sym.copy(), degs)
    return sym, degs, {
        "name": "main_trace_bound",
        "claim": "max_y y^T A' y <= tr W over sign vectors y = x^(k-1), "
                 "for the swap-invariant diagonal W = diag(a + b deg_u) on "
                 "rows of nonzero degree; W - A' PSD on swap-symmetric "
                 "vectors, verified by Cholesky of W_sym - A'_sym - c Id",
        "value": _up(2.0 * certify.exact_sum(w)), "method": "cholesky",
        "witness": witness}


def _up(x):
    return math.nextafter(x, math.inf)


def _dense_xor_steps(I):
    """refute_xor's steps recomputed from flatten, split, the diagonal
    witness on the dense split's symmetric block, and residual_bound, each
    closed-form operation after the witness rounded up."""
    _, _, step = _dense_witness(I)
    if step is None:
        b1 = 0.0
        steps = [{"name": "main_empty",
                  "claim": "the split kept no entries, so "
                           "max_y y^T A' y = 0",
                  "value": 0.0, "method": "exact"}]
    else:
        b1 = step["value"]
        steps = [step]
    _, residual = dense_reference.split(dense_reference.flatten(I))
    b2 = _up(dense_reference.residual_bound(residual))
    steps.append({"name": "residual_bound",
                  "claim": "max_y y^T A'' y <= sum of |entries| of A''",
                  "value": b2, "method": "exact"})
    poly = _up(math.sqrt(_up(I.n * _up(b1 + b2))))
    steps.append({"name": "polynomial_bound",
                  "claim": "max_x <T, x^(k)> <= sqrt(n * (bound(A') + "
                           "bound(A''))) over sign assignments",
                  "value": poly, "method": "exact"})
    bound = min(1.0, _up(0.5 + _up(poly / (2.0 * I.m
                                          * math.factorial(I.k)))))
    steps.append({"name": "opt_bound",
                  "claim": "opt(I) <= 1/2 + polynomial_bound / (2 m k!), "
                           "clamped to 1",
                  "value": bound, "method": "exact"})
    return steps


def test_refute_xor_matches_dense_chain():
    # (30, 0.002, 0) is sparse: 8 clauses touch 52 of A''s 900 vertices
    for n, p, seed in ((4, 0.5, 0), (9, 0.4, 1), (12, 0.3, 2), (13, 0.2, 3),
                       (30, 0.002, 0)):
        I = instances.sample_kxor(n, 3, p, seed=seed)
        got = refute.refute_xor(I, z=6).to_json_dict()
        want = _dense_xor_steps(I)
        assert json.dumps(got["steps"]) == json.dumps(want)
        assert got["final_bound"] == want[-1]["value"]


def test_edge_route_reads_only_touched_vertices(monkeypatch):
    seen = []
    incidence = nonbacktracking.incidence

    def spy(A):
        seen.append(len(A))
        return incidence(A)

    monkeypatch.setattr(nonbacktracking, "incidence", spy)
    I = instances.sample_kxor(30, 3, 0.002, seed=0)
    refute.refute_xor(I, z=6)
    main, _ = dense_reference.split(dense_reference.flatten(I))
    certify.lambda_certificate(main.base, z=6)
    touched = np.count_nonzero(np.abs(main.base).sum(axis=1))
    assert touched < main.dim
    # the refutation chain no longer goes through lambda at all
    assert seen == [touched]


def _witness_weights(step, degs):
    """w of an emitted witness step: a + b deg_u on rows of nonzero
    degree, 0 elsewhere."""
    w = step["witness"]
    return np.where(degs > 0, w["a"] + w["b"] * degs, 0.0)


@pytest.mark.parametrize("n, p, seed", [(9, 0.5, 0), (12, 0.3, 1),
                                        (14, 0.2, 2), (14, 0.5, 3)])
def test_diagonal_witness_is_psd(n, p, seed):
    I = instances.sample_kxor(n, 3, p, seed=seed)
    sym, degs, step = _dense_witness(I)
    w = _witness_weights(step, degs)
    keep = degs > 0
    # the step records the core's witness, and its weights
    core_w, record = certify.diagonal_witness(sym.copy(), degs)
    assert record == step["witness"]
    assert np.array_equal(core_w, w[keep])
    gap = (np.diag(w) - sym)[np.ix_(keep, keep)]
    assert np.linalg.eigvalsh(gap).min() >= 0.0
    # tr W = 2 sum_lo w_u is what the step claims, rounded up
    trace = 2.0 * math.fsum(w.tolist())
    assert trace <= step["value"] <= math.nextafter(trace, math.inf)


def test_diagonal_witness_check_is_not_vacuous():
    # the verified scale sits within the first margin of the least
    # feasible one: 1% below it the factorization fails
    I = instances.sample_kxor(14, 3, 0.5, seed=3)
    sym, degs, _ = _dense_parts(I)
    _, w = certify.diagonal_witness(sym.copy(), degs)
    assert w["cholesky_probes"] == 1
    neg, d = certify._kept_rows(-sym, degs)

    def factorizes(sigma):
        a_w, b_w = sigma * w["theta"], sigma * (1.0 - w["theta"])
        weights = a_w + b_w * d
        # the factorization consumes a triangle of what it is given
        return certify._factorizes(
            neg.copy(), np.zeros(d.size), weights,
            certify._cholesky_shift(weights, np.zeros(d.size), 0.0))

    assert factorizes(w["scale"])
    assert not factorizes(w["scale"] * (1.0 - 1e-2))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("seed", range(6))
def test_diagonal_witness_bounds_plain_signed_graphs(seed, sign):
    # the n x n input of a norm certificate, with an isolated vertex in
    # the middle, so the core drops a row that is not a trailing one
    A = walks.sample_gamma_graph(24, 3.0, seed)
    A[12] = A[:, 12] = 0.0
    degs = np.abs(A).sum(axis=1)
    keep = degs > 0
    w, record = certify.diagonal_witness(sign * A, degs)
    assert record["dim"] == 24 and record["rows"] == keep.sum() == w.size
    assert np.array_equal(w, record["a"] + record["b"] * degs[keep])
    gap = np.diag(w) - sign * A[np.ix_(keep, keep)]
    assert np.linalg.eigvalsh(gap).min() >= 0.0


def _swap_symmetric_max(I):
    """max over x in {+-1}^n of y^T A' y for y = x^(k-1), by brute force
    on the dense split of flatten(I), after checking the premises of the
    symmetric-block argument: A' is invariant under the pair swap and zero
    on the rows (alpha, alpha)."""
    main, _ = dense_reference.split(dense_reference.flatten(I))
    q = I.n ** main.half
    grid = main.base.reshape(q, q, q, q)
    assert np.array_equal(grid, grid.transpose(1, 0, 3, 2))
    assert not main.base[np.arange(q) * (q + 1)].any()
    x = np.array(list(itertools.product([-1.0, 1.0], repeat=I.n)))
    y = x
    for _ in range(I.k - 2):
        y = (y[:, :, None] * x[:, None, :]).reshape(len(x), -1)
    return float(np.einsum("ij,ij->i", y @ main.base, y).max())


@pytest.mark.parametrize("I", [
    instances.sample_kxor(6, 3, 0.6, seed=0),
    instances.sample_kxor(8, 3, 0.4, seed=1),
    instances.sample_kxor(10, 3, 0.3, seed=2),
    instances.sample_kxor(7, 5, 0.5, seed=2),
    instances.sample_kxor(8, 5, 0.2, seed=3),
], ids=lambda I: f"k{I.k}-n{I.n}-m{I.m}")
def test_witness_bounds_swap_symmetric_form(I):
    # the witness is verified on swap-symmetric vectors only; the chain
    # evaluates A' only at y = x^(k-1), which is one
    top = _swap_symmetric_max(I)
    step = refute.refute_xor(I, z=6).steps[0]
    assert step["value"] >= top
    if I.k == 5 and I.n == 7:
        # a kept k = 5 entry spans 8 indices: nothing survives the split
        assert step["name"] == "main_empty" and top == 0.0
    else:
        assert step["name"] == "main_trace_bound" and top > 0.0


def test_diagonal_witness_refuses_all_zero_degrees():
    with pytest.raises(ValueError, match="every degree is zero"):
        certify.diagonal_witness(np.zeros((3, 3)), np.zeros(3))


def test_diagonal_witness_verifies_nothing_with_a_nan_entry():
    # the factorization runs through a NaN pivot; that is no verification
    S = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="no diagonal witness"):
        certify.diagonal_witness(S, np.full(3, 2.0))


def test_diagonal_witness_falls_back_to_gershgorin(monkeypatch):
    # one Lanczos step is a Rayleigh quotient of the random start, far
    # below the least feasible scale, so every guided rung fails and the
    # Gershgorin point ends the ladder
    monkeypatch.setattr(certify, "LANCZOS_STEPS", 1)
    I = instances.sample_kxor(12, 3, 0.5, seed=2)
    cert = refute.refute_xor(I, z=6)
    w = next(s for s in cert.steps if "witness" in s)["witness"]
    assert w["cholesky_probes"] > len(certify.WITNESS_MARGINS)
    assert w["b"] == pytest.approx(1.0 + certify.WITNESS_MARGINS[-1])
    assert cert.final_bound >= instances.brute_opt(I) - 1e-12
    # the core alone, on the same block, lands on the same point
    sym, degs, _ = _dense_parts(I)
    assert certify.diagonal_witness(sym, degs)[1] == w


def _symmetric_with_diagonal(dim, seed):
    """A dense symmetric matrix with a nonzero diagonal and its absolute
    row sums."""
    rng = np.random.default_rng(seed)
    S = np.triu(rng.uniform(-1.0, 1.0, (dim, dim))
                * (rng.random((dim, dim)) < 0.3))
    S = S + np.triu(S, 1).T
    return S, np.abs(S).sum(axis=1)


# Blocks with at most LANCZOS_STEPS rows, as (S, deg) thunks.
_SMALL_GUIDE_BLOCKS = {
    "signs": lambda: _dense_parts(instances.sample_kxor(9, 3, 0.5,
                                                        seed=0))[:2],
    "weighted": lambda: _dense_parts(_weighted(
        instances.sample_kxor(9, 3, 0.5, seed=1), 1))[:2],
    "diagonal": lambda: _symmetric_with_diagonal(45, 2),
    # 2^150 is past float32's range
    "past-float32": lambda: tuple(2.0 ** 150 * x
                                  for x in _symmetric_with_diagonal(45, 2)),
}


def _criterion_10_block(mult, seed):
    """The witness block of criterion 10's 3-XOR instance at n = 60."""
    I = instances.sample_kxor(60, 3, mult * 60 ** -1.5, seed=seed)
    return refute._swap_parts(I)[:2]


@pytest.mark.parametrize("name", list(_SMALL_GUIDE_BLOCKS))
def test_lanczos_guide_matches_the_eigensolve(name):
    # with at least as many steps as rows the Krylov space is the whole
    # space, so the capped top Ritz value is the top eigenvalue up to the
    # single-precision products
    sym, degs = _SMALL_GUIDE_BLOCKS[name]()
    a, d = certify._kept_rows(sym, degs)
    assert d.size <= certify.LANCZOS_STEPS
    thetas = np.array(certify.WITNESS_THETAS)
    want = [np.linalg.eigvalsh(a / np.sqrt(np.outer(w, w)))[-1]
            for w in thetas[:, None] + np.outer(1.0 - thetas, d)]
    *_, (steps, capped) = certify._lanczos_top(a, d, thetas)
    assert steps == d.size
    np.testing.assert_allclose(capped, want, rtol=1e-5)


@pytest.mark.parametrize("make", [*_SMALL_GUIDE_BLOCKS.values(),
                                  lambda: _criterion_10_block(40, 1)],
                         ids=[*_SMALL_GUIDE_BLOCKS, "n60"])
def test_settled_guide_is_at_most_the_capped_one(make):
    # the settled tridiagonal is the leading block of the capped one, so by
    # Cauchy interlacing no direction's settled estimate is above its
    # capped one
    sym, degs = make()
    a, d = certify._kept_rows(sym, degs)
    (steps, settled), (cap, capped) = certify._lanczos_top(
        a, d, np.array(certify.WITNESS_THETAS))
    assert cap == min(certify.LANCZOS_STEPS, d.size)
    assert 2 * certify.LANCZOS_CHECK < steps < cap
    assert steps % certify.LANCZOS_CHECK == 0
    assert (settled <= capped).all()


def test_a_failed_settled_rung_resumes_to_the_capped_witness(monkeypatch):
    # criterion 10's instance at mult 20, seed 5: the settled estimate is
    # 1.4e-3 under the capped one, so the first rung fails; the guide runs
    # on to the cap and the ladder restarts, to the witness a guide that
    # never stops gives, one probe later
    sym, degs = _criterion_10_block(20, 5)
    w, record = certify.diagonal_witness(sym.copy(), degs)
    monkeypatch.setattr(certify, "LANCZOS_SETTLE", -1.0)
    capped_w, capped = certify.diagonal_witness(sym, degs)
    np.testing.assert_array_equal(w, capped_w)
    assert record["lanczos_steps"] == certify.LANCZOS_STEPS
    assert record["cholesky_probes"] == capped["cholesky_probes"] + 1
    assert record == {**capped, "cholesky_probes": record["cholesky_probes"]}


@pytest.mark.parametrize("steps", [1, certify.LANCZOS_STEPS])
def test_every_factorization_is_float64_with_the_shifted_diagonal(
        monkeypatch, steps):
    # the guide runs in single precision; what counts is the float64
    # Cholesky of diag(w - c) - S, every probe of the ladder included
    S, degs = _symmetric_with_diagonal(40, 3)
    shifts, factorized = [], []
    shift, cholesky = certify._cholesky_shift, linalg.cholesky_in_place

    def record_shift(w, diag, entry_err):
        shifts.append((w.copy(), shift(w, diag, entry_err)))
        return shifts[-1][1]

    def record_cholesky(H):
        factorized.append(H.copy())
        return cholesky(H)

    monkeypatch.setattr(certify, "LANCZOS_STEPS", steps)
    monkeypatch.setattr(certify, "_cholesky_shift", record_shift)
    monkeypatch.setattr(linalg, "cholesky_in_place", record_cholesky)
    w, record = certify.diagonal_witness(S.copy(), degs)
    assert len(factorized) == len(shifts) == record["cholesky_probes"]
    assert (record["cholesky_probes"] > 1) == (steps == 1)
    off = ~np.eye(S.shape[0], dtype=bool)
    for H, (w_probe, c) in zip(factorized, shifts):
        assert H.dtype == np.float64
        np.testing.assert_array_equal(H[off], -S[off])
        np.testing.assert_array_equal(H.diagonal(),
                                      (w_probe - c) - S.diagonal())
    np.testing.assert_array_equal(shifts[-1][0], w)
    assert shifts[-1][1] == record["shift"]


def _witness_blocks():
    """Blocks for the witness with their degrees: a signed one, one with a
    nonzero diagonal, the same with its upper triangle one ulp off the
    lower (as A'_sym can be for weights other than +-1), and a graph whose
    kept rows are not a leading range."""
    S, degs = _symmetric_with_diagonal(40, 3)
    upper = np.triu(np.ones(S.shape, dtype=bool), 1)
    A = walks.sample_gamma_graph(24, 3.0, 0)
    A[12] = A[:, 12] = 0.0
    return [
        _dense_parts(instances.sample_kxor(12, 3, 0.5, seed=2))[:2],
        (S, degs),
        (np.where(upper, np.nextafter(S, np.inf), S), degs),
        (A, np.abs(A).sum(axis=1)),
    ]


# Ladders whose first probes fail: one Lanczos step fails them at the
# first pivot, a scale 1% under the estimate only after most of the
# factorization has been written.
_FAILING_LADDERS = {
    "guided": {},
    "one-step": {"LANCZOS_STEPS": 1},
    "under-scale": {"WITNESS_MARGINS": (-1e-2, 1e-2)},
}


@pytest.mark.parametrize("ladder", list(_FAILING_LADDERS))
@pytest.mark.parametrize("case", range(4),
                         ids=["signs", "diagonal", "asymmetric", "gap"])
def test_witness_is_the_same_without_the_direct_routine(
        monkeypatch, case, ladder):
    # np.linalg.cholesky in place of the in-place dpotrf gives the same
    # weights and record, also when failed probes restore the triangle
    for name, value in _FAILING_LADDERS[ladder].items():
        monkeypatch.setattr(certify, name, value)
    S, degs = _witness_blocks()[case]
    w, record = certify.diagonal_witness(S.copy(), degs)
    monkeypatch.setattr(linalg, "_POTRF", None)
    fallback_w, fallback_record = certify.diagonal_witness(S.copy(), degs)
    np.testing.assert_array_equal(fallback_w, w)
    assert fallback_record == record
    assert (record["cholesky_probes"] > 1) == (ladder != "guided")


def test_a_failed_probe_restores_the_triangle(monkeypatch):
    # a probe that fails deep into the factorization has overwritten most
    # of the upper triangle; the next probe still sees -S off the diagonal.
    # The first fails on the settled estimate, the second on the capped
    # one the ladder restarts from.
    monkeypatch.setattr(certify, "WITNESS_MARGINS", (-1e-2, 1e-2))
    S, degs = _symmetric_with_diagonal(40, 3)
    probes, cholesky = [], linalg.cholesky_in_place

    def record_cholesky(H):
        before = H.copy()
        verdict = cholesky(H)
        probes.append((before, verdict, np.count_nonzero(H != before)))
        return verdict

    monkeypatch.setattr(linalg, "cholesky_in_place", record_cholesky)
    certify.diagonal_witness(S.copy(), degs)
    assert [verdict for _, verdict, _ in probes] == [False, False, True]
    assert probes[0][2] > S.size // 4
    off = ~np.eye(S.shape[0], dtype=bool)
    for H, _, _ in probes:
        np.testing.assert_array_equal(H[off], -S[off])


def test_witness_holds_no_copy_of_the_block():
    # the factorization works in the block's own buffer, so the witness
    # allocates less than one more block: the guide's float32 copy is
    # half of one, and np.linalg.cholesky's returned factor was a whole
    S, degs = _symmetric_with_diagonal(1000, 4)
    tracemalloc.start()
    try:
        certify.diagonal_witness(S, degs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * S.nbytes


def _verified(S, w):
    """diag(w) - S is PSD, by a float64 eigensolve."""
    return np.linalg.eigvalsh(np.diag(w) - S).min() >= 0.0


def test_witness_past_the_single_precision_range():
    # 2^150 is past float32's range: the guide's copy is scaled by a power
    # of two, so a guided rung still verifies
    sym, degs, _ = _dense_parts(instances.sample_kxor(12, 3, 0.3, seed=1))
    sym, degs = certify._kept_rows(sym, degs)
    big = 2.0 ** 150
    big_w, big_record = certify.diagonal_witness(big * sym, big * degs)
    assert big_record["theta"] in certify.WITNESS_THETAS
    assert big_record["cholesky_probes"] <= len(certify.WITNESS_MARGINS)
    assert _verified(big * sym, big_w)
    # a block beside one 2^300 times larger leaves no single-precision
    # scale for both, so every direction's run goes non-finite and the
    # Gershgorin point, verified in float64, is the only rung
    wide = np.zeros((2 * degs.size,) * 2)
    wide[:degs.size, :degs.size] = 2.0 ** 300 * sym
    wide[degs.size:, degs.size:] = sym
    wide_degs = np.concatenate((2.0 ** 300 * degs, degs))
    wide_w, wide_record = certify.diagonal_witness(wide.copy(), wide_degs)
    assert wide_record["estimate"] == np.inf
    assert wide_record["cholesky_probes"] == 1
    for part in (slice(0, degs.size), slice(degs.size, None)):
        assert _verified(wide[part, part], wide_w[part])


def _witness_dominance_cases():
    cases = [instances.sample_kxor(n, 3, p, seed=seed)
             for n in (9, 12, 14) for p in (0.2, 0.5) for seed in range(15)]
    cases += [instances.sample_csp(instances.predicate_table(name, 3), 12, 3,
                                   p, seed=seed)
              for name in ("3sat", "parity") for p, seed in ((0.02, 0),
                                                             (0.05, 1))]
    return cases


def test_witness_chain_dominates_brute_force():
    informative = 0
    for I in _witness_dominance_cases():
        if hasattr(I, "clauses"):
            cert, opt = refute.refute_xor(I, z=6), instances.brute_opt(I)
        else:
            cert, opt = refute.refute_csp(I, z=6), instances.csp_brute_opt(I)
        assert cert.sound
        assert cert.final_bound >= opt - 1e-12, (I.n, I.m, cert.final_bound,
                                                 opt)
        informative += cert.informative
    assert informative > 0


def _digest(cert):
    return hashlib.sha256(json.dumps(cert.to_json_dict(), sort_keys=True)
                          .encode()).hexdigest()


def test_refutations_rerun_byte_identical():
    I = instances.sample_kxor(30, 3, 0.02, seed=4)
    J = instances.sample_csp(instances.predicate_table("3sat"), 16, 3, 0.02,
                             seed=5)
    for refute_fn, inst in ((refute.refute_xor, I), (refute.refute_csp, J)):
        first, second = refute_fn(inst, z=6), refute_fn(inst, z=6)
        assert _digest(first) == _digest(second)
        assert any("witness" in s for s in first.steps)


def test_refutation_golden_digests():
    # Pinned fixed-seed certificates (numpy 2.4.6 with OpenBLAS 0.3.31 on
    # x86-64; the witness's Lanczos estimate is recorded, and it comes from
    # float32 products, so another BLAS may round it differently).
    # Reruns are byte-identical at a fixed BLAS thread count; these two
    # certificates are also the same at 1, 2 and 4 OpenBLAS threads, which
    # larger instances need not be. Library certificates carry no
    # timestamp; the CLI adds one. A change that moves a bound on purpose
    # recomputes these pins and says so; any other change must keep them.
    # The CSP case rescales by W = 0.625, so it covers the u sum |w|
    # allowance and nonzero entry rounding errors.
    I = instances.sample_kxor(30, 3, 0.02, seed=3)
    J = instances.sample_csp(instances.predicate_table("3sat"), 20, 3, 0.03,
                             seed=1)
    assert _digest(refute.refute_xor(I, z=6)) == (
        "83de94a497e0ddedc9a59b2d211ec426b9f82e18f8731fb1463dcee436f58bf8")
    assert _digest(refute.refute_csp(J, z=6)) == (
        "285772273416f95f4b9887f76194473a33fb5d0f501e9cab6015ff9f64f80aef")


def test_refutations_never_read_the_clause_dict(monkeypatch):
    I = instances.sample_kxor(14, 3, 0.1, seed=1)
    J = instances.sample_csp(instances.predicate_table("3sat"), 12, 3, 0.03,
                             seed=2)
    want = _digest(refute.refute_xor(I, z=6)), _digest(refute.refute_csp(J))

    def refuse(self):
        raise AssertionError("XorInstance.clauses read")

    monkeypatch.setattr(instances.XorInstance, "clauses", property(refuse))
    got = _digest(refute.refute_xor(I, z=6)), _digest(refute.refute_csp(J))
    assert got == want


def test_refute_xor_beyond_the_dense_cap():
    # n^2 = 8100 is past the dense reference's FLATTEN_DIM_CAP; the pipeline
    # only needs the swap blocks (q(q+1)/2 = 4095)
    I = instances.XorInstance(90, 3, {(0, 1, 2): 1.0})
    cert = refute.refute_xor(I, z=6)
    assert [s["name"] for s in cert.steps][0] == "main_empty"
    assert cert.final_bound == 1.0


def test_refute_size_cap_bounds_the_swap_block():
    I = instances.XorInstance(121, 3, {(0, 1, 2): 1.0})
    with pytest.raises(ValueError, match="infeasible: swap block dimension "
                                         "7381 exceeds cap 7260"):
        refute.refute_xor(I)


def _k5_csp_past_the_cap():
    """40 random 5-ary constraints at n = 60: the swap block (q = 3600)
    is past BLOCK_DIM_CAP, and M' alone would be 60^4 doubles."""
    rng = np.random.default_rng(7)
    return instances.CspInstance(60, 5, _random_table(5, 8), [
        (tuple(a), tuple(c)) for a, c in zip(
            rng.integers(0, 60, size=(40, 5)).tolist(),
            rng.choice((-1, 1), size=(40, 5)).tolist())])


@pytest.mark.parametrize("refute_fn, I", [
    (refute.refute_csp, _k5_csp_past_the_cap()),
    (refute.refute_xor, instances.XorInstance(60, 5, {(0, 1, 2, 3, 4): 1.0})),
], ids=["csp", "xor"])
def test_refutations_refuse_the_cap_before_allocating(refute_fn, I):
    tracemalloc.start()
    try:
        with pytest.raises(linalg.Infeasible, match="swap block dimension "
                                                    "6481800 exceeds cap"):
            refute_fn(I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
