import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrefute import instances


def test_sample_kxor_p_zero_and_one():
    empty = instances.sample_kxor(8, 3, 0.0, seed=0)
    assert empty.m == 0
    full = instances.sample_kxor(6, 3, 1.0, seed=0)
    assert full.m == math.comb(6, 3)
    assert all(w in (-1.0, 1.0) for w in full.clauses.values())


def test_sample_kxor_deterministic():
    a = instances.sample_kxor(10, 3, 0.3, seed=42)
    b = instances.sample_kxor(10, 3, 0.3, seed=42)
    assert a.clauses == b.clauses


def test_sample_kxor_rank_indexed_draws():
    # oracle: one uniform per support in lexicographic rank order decides
    # presence (u < p) and sign (u < p/2)
    n, k, p, seed = 9, 3, 0.4, 7
    I = instances.sample_kxor(n, k, p, seed)
    draws = np.random.default_rng(seed).random(math.comb(n, k))
    expect = {}
    for rank, combo in enumerate(itertools.combinations(range(n), k)):
        u = draws[rank]
        if u < p:
            expect[combo] = 1.0 if u < p / 2 else -1.0
    assert I.clauses == expect


def test_sample_kxor_rejects_bad_arity():
    with pytest.raises(ValueError, match="exceeds variable count"):
        instances.sample_kxor(2, 3, 0.5, seed=0)


def test_xor_instance_validates_clauses():
    with pytest.raises(ValueError, match="strictly increasing"):
        instances.XorInstance(5, 3, {(2, 1, 0): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        instances.XorInstance(3, 3, {(0, 1, 5): 1.0})
    with pytest.raises(ValueError, match="zero weight"):
        instances.XorInstance(4, 3, {(0, 1, 2): 0.0})
    with pytest.raises(ValueError, match="arity"):
        instances.XorInstance(5, 3, {(0, 1): 1.0})


def test_tensor_entry_symmetric_and_zero_on_repeats():
    I = instances.XorInstance(5, 3, {(0, 2, 4): -1.0})
    for perm in itertools.permutations((0, 2, 4)):
        assert instances.tensor_entry(I, perm) == -1.0
    assert instances.tensor_entry(I, (0, 0, 4)) == 0.0
    assert instances.tensor_entry(I, (1, 2, 3)) == 0.0
    with pytest.raises(ValueError, match="arity"):
        instances.tensor_entry(I, (0, 1))


def test_value_hand_example():
    I = instances.XorInstance(3, 3, {(0, 1, 2): 1.0})
    assert instances.value(I, [1, 1, 1]) == 1.0
    assert instances.value(I, [-1, 1, 1]) == 0.0
    I2 = instances.XorInstance(3, 3, {(0, 1, 2): -1.0})
    assert instances.value(I2, [-1, 1, 1]) == 1.0


def test_value_requires_clauses():
    I = instances.XorInstance(3, 3, {})
    with pytest.raises(ValueError, match="no clauses"):
        instances.value(I, [1, 1, 1])


def test_brute_opt_matches_direct_enumeration():
    I = instances.sample_kxor(8, 3, 0.4, seed=5)
    best = max(
        instances.value(I, x)
        for x in itertools.product((-1.0, 1.0), repeat=8)
    )
    np.testing.assert_allclose(instances.brute_opt(I), best, rtol=1e-12)


def test_brute_opt_single_clause_is_satisfiable():
    I = instances.XorInstance(4, 3, {(0, 1, 2): -1.0})
    assert instances.brute_opt(I) == 1.0


def test_brute_opt_cap():
    I = instances.XorInstance(30, 3, {(0, 1, 2): 1.0})
    with pytest.raises(ValueError, match="oracle infeasible"):
        instances.brute_opt(I)


def _cube(n):
    return [np.array(x) for x in itertools.product((-1.0, 1.0), repeat=n)]


def _enumerated_opt(evaluate, I):
    return max(evaluate(I, x) for x in _cube(I.n))


@pytest.mark.parametrize("n,k,p,seed", [(6, 3, 0.5, 0), (9, 3, 0.2, 1),
                                        (10, 3, 0.1, 2), (7, 5, 0.4, 3),
                                        (10, 5, 0.05, 4)])
def test_brute_opt_equals_enumeration_sign_weights(n, k, p, seed):
    I = instances.sample_kxor(n, k, p, seed=seed)
    assert I.m > 0
    assert instances.brute_opt(I) == _enumerated_opt(instances.value, I)


@pytest.mark.parametrize("seed", range(4))
def test_brute_opt_non_dyadic_weights(seed):
    rng = np.random.default_rng(seed)
    n, k = 9, 3
    clauses = {c: rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
               for c in itertools.combinations(range(n), k)
               if rng.random() < 0.3}
    I = instances.XorInstance(n, k, clauses)
    np.testing.assert_allclose(instances.brute_opt(I),
                               _enumerated_opt(instances.value, I),
                               rtol=1e-12)


def _random_table_cases():
    rng = np.random.default_rng(21)
    return [(rng.integers(0, 2, size=2 ** k).astype(float), n, k, p, seed)
            for seed, (n, k, p) in enumerate(((8, 3, 0.03), (10, 3, 0.005),
                                              (6, 5, 0.0005), (9, 2, 0.1)))]


@pytest.mark.parametrize("table,n,k,p,seed", [
    (instances.predicate_table("3sat"), 8, 3, 0.03, 0),
    (instances.predicate_table("3sat"), 10, 3, 0.01, 1),
    (instances.predicate_table("parity"), 9, 3, 0.02, 2),
    (instances.predicate_table("parity", 5), 7, 5, 0.001, 3),
] + _random_table_cases())
def test_csp_brute_opt_equals_enumeration(table, n, k, p, seed):
    J = instances.sample_csp(table, n, k, p, seed)
    assert J.m > 0
    # sampled scopes repeat indices too
    assert any(len(set(alpha)) < k for alpha, _ in J.constraints)
    assert (instances.csp_brute_opt(J)
            == _enumerated_opt(instances.csp_value, J))


def test_csp_brute_opt_repeated_scope_indices():
    # a mask built with OR instead of XOR gets each of these wrong
    table = instances.predicate_table("parity")
    rng = np.random.default_rng(5)
    constraints = []
    for _ in range(12):
        i, j = rng.choice(6, size=2, replace=False)
        scope = [(i, i, j), (i, j, i), (j, i, i), (i, i, i)][rng.integers(4)]
        constraints.append((scope, tuple(rng.choice((-1, 1), size=3))))
    J = instances.CspInstance(6, 3, table, constraints)
    assert (instances.csp_brute_opt(J)
            == _enumerated_opt(instances.csp_value, J))


@pytest.mark.parametrize("sign", [1, -1])
def test_oracles_find_a_constant_optimum(sign):
    # the unique optimum is x = sign * (1, ..., 1): the first and the last
    # point of the transform
    n = 5
    xor = instances.XorInstance(
        n, 3, {c: float(sign) for c in itertools.combinations(range(n), 3)})
    # sign * x_i OR sign * x_i OR sign * x_i for every i
    csp = instances.CspInstance(n, 3, instances.predicate_table("3sat"),
                                [((i, i, i), (sign,) * 3) for i in range(n)])
    for I, oracle, evaluate in ((xor, instances.brute_opt, instances.value),
                                (csp, instances.csp_brute_opt,
                                 instances.csp_value)):
        best = [x for x in _cube(n) if evaluate(I, x) == 1.0]
        assert len(best) == 1 and np.all(best[0] == sign)
        assert oracle(I) == 1.0


def test_csp_brute_opt_cap():
    J = instances.CspInstance(30, 3, instances.predicate_table("3sat"),
                              [((0, 1, 29), (1, 1, 1))])
    with pytest.raises(ValueError, match="oracle infeasible: assignment "
                                         "enumeration over 30 variables "
                                         "exceeds cap 24"):
        instances.csp_brute_opt(J)
    with pytest.raises(ValueError, match="no constraints"):
        instances.csp_brute_opt(
            instances.CspInstance(3, 3, J.truth_table, []))


def test_assignment_index_frozen_order():
    # lexicographic with -1 before +1: index 0 is all -1
    assert instances.assignment_from_index(0, 2) == (-1, -1)
    assert instances.assignment_from_index(1, 2) == (-1, 1)
    assert instances.assignment_from_index(2, 2) == (1, -1)
    assert instances.assignment_from_index(3, 2) == (1, 1)
    for idx in range(8):
        z = instances.assignment_from_index(idx, 3)
        assert instances.index_from_assignment(z) == idx


def test_csp_instance_validation():
    with pytest.raises(ValueError, match="length 2\\^3"):
        instances.CspInstance(4, 3, [0, 1], [])
    with pytest.raises(ValueError, match="0 or 1"):
        instances.CspInstance(4, 3, [0.5] * 8, [])
    table = instances.predicate_table("3sat")
    with pytest.raises(ValueError, match="out of range"):
        instances.CspInstance(4, 3, table, [((0, 1, 9), (1, 1, 1))])
    with pytest.raises(ValueError, match="must be \\+-1"):
        instances.CspInstance(4, 3, table, [((0, 1, 2), (1, 0, 1))])


def test_csp_value_3sat_hand_example():
    table = instances.predicate_table("3sat")
    # one clause x0 OR x1 OR x2 and one clause (NOT x0) OR x1 OR x2
    J = instances.CspInstance(3, 3, table, [
        ((0, 1, 2), (1, 1, 1)),
        ((0, 1, 2), (-1, 1, 1)),
    ])
    assert instances.csp_value(J, [1, -1, -1]) == 0.5
    assert instances.csp_value(J, [1, 1, -1]) == 1.0
    assert instances.csp_value(J, [-1, -1, -1]) == 0.5


def test_csp_value_requires_constraints():
    J = instances.CspInstance(3, 3, instances.predicate_table("3sat"), [])
    with pytest.raises(ValueError, match="no constraints"):
        instances.csp_value(J, [1, 1, 1])


def test_csp_scopes_may_repeat_indices():
    table = instances.predicate_table("3sat")
    J = instances.CspInstance(3, 3, table, [((0, 0, 1), (1, -1, 1))])
    # x0 OR (NOT x0) OR x1 is a tautology
    for x in itertools.product((-1, 1), repeat=3):
        assert instances.csp_value(J, x) == 1.0


def test_sample_csp_rank_indexed_draws():
    n, k, p, seed = 4, 2, 0.3, 11
    table = np.array([0.0, 1.0, 1.0, 0.0])
    J = instances.sample_csp(table, n, k, p, seed)
    draws = np.random.default_rng(seed).random((n ** k) * (2 ** k))
    expect = []
    rank = 0
    for alpha in itertools.product(range(n), repeat=k):
        for c_rank in range(2 ** k):
            if draws[rank] < p:
                expect.append(
                    (alpha, instances.assignment_from_index(c_rank, k)))
            rank += 1
    assert J.constraints == expect


@pytest.mark.parametrize("n,k,p,seed", [(4, 2, 0.3, 11), (7, 3, 0.05, 2),
                                        (5, 3, 0.5, 3), (4, 5, 0.01, 4)])
def test_sample_csp_chunked_draws_match_one_call(monkeypatch, n, k, p, seed):
    table = np.ones(2 ** k)
    table[0] = 0.0
    whole = instances.sample_csp(table, n, k, p, seed)
    assert (n ** k) * (2 ** k) <= instances.CSP_DRAW_CHUNK
    monkeypatch.setattr(instances, "CSP_DRAW_CHUNK", 7)
    assert instances.sample_csp(table, n, k, p, seed).constraints \
        == whole.constraints


def test_csp_brute_opt_matches_direct():
    table = instances.predicate_table("3sat")
    J = instances.sample_csp(table, 7, 3, 0.02, seed=3)
    assert J.m > 0
    best = max(
        instances.csp_value(J, x)
        for x in itertools.product((-1.0, 1.0), repeat=7)
    )
    np.testing.assert_allclose(instances.csp_brute_opt(J), best, rtol=1e-12)


def test_fourier_3sat_frozen_coefficients():
    F = instances.fourier_decompose(instances.predicate_table("3sat"))
    assert F.coefficient(()) == 7 / 8
    for i in range(3):
        assert F.coefficient((i,)) == 1 / 8
    for S in ((0, 1), (0, 2), (1, 2)):
        assert F.coefficient(S) == -1 / 8
    assert F.coefficient((0, 1, 2)) == 1 / 8


def test_fourier_parity_coefficients():
    F = instances.fourier_decompose(instances.predicate_table("parity", 3))
    assert F.coefficient(()) == 0.5
    assert F.coefficient((0, 1, 2)) == 0.5
    for d in (1, 2):
        assert all(v == 0.0 for v in F.degree_part(d).values())


def test_fourier_reconstruction_is_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        table = rng.integers(0, 2, size=8).astype(float)
        F = instances.fourier_decompose(table)
        np.testing.assert_array_equal(F.reconstruct_table(), table)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1),
                min_size=8, max_size=8))
def test_fourier_mean_invariant(bits):
    table = np.array(bits, dtype=float)
    F = instances.fourier_decompose(table)
    assert F.coefficient(()) == table.mean()


def test_fourier_rejects_bad_length():
    with pytest.raises(ValueError, match="power of two"):
        instances.fourier_decompose([0.0, 1.0, 1.0])


def test_predicate_table_errors():
    with pytest.raises(ValueError, match="arity 3"):
        instances.predicate_table("3sat", k=4)
    with pytest.raises(ValueError, match="unknown predicate"):
        instances.predicate_table("majority")


def test_xor_json_roundtrip():
    I = instances.sample_kxor(8, 3, 0.4, seed=2)
    d = I.to_json_dict()
    assert d["kind"] == "xor" and d["version"] == 1
    back = instances.XorInstance.from_json_dict(d)
    assert back.clauses == I.clauses
    assert back.n == I.n and back.k == I.k
    assert back.p == I.p and back.seed == I.seed


def test_csp_json_roundtrip():
    table = instances.predicate_table("3sat")
    J = instances.sample_csp(table, 6, 3, 0.05, seed=9)
    d = J.to_json_dict()
    assert d["kind"] == "csp"
    back = instances.CspInstance.from_json_dict(d)
    assert back.constraints == J.constraints
    np.testing.assert_array_equal(back.truth_table, J.truth_table)
