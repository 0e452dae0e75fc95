import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrefute import instances, refute

from csp_reference import (csp_value, index_from_assignment,
                           reconstruct_table, xor_value)


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
    with pytest.raises(ValueError, match=r"^clause \(2, 1, 0\) is not a "
                                         "strictly increasing index tuple$"):
        instances.XorInstance(5, 3, {(2, 1, 0): 1.0})
    with pytest.raises(ValueError,
                       match=r"^clause \(0, 1, 5\) out of range for n=3$"):
        instances.XorInstance(3, 3, {(0, 1, 5): 1.0})
    with pytest.raises(ValueError,
                       match=r"^clause \(0, 1, 2\) has zero weight$"):
        instances.XorInstance(4, 3, {(0, 1, 2): 0.0})
    with pytest.raises(ValueError,
                       match=r"^clause \(0, 1\) does not have arity 3$"):
        instances.XorInstance(5, 3, {(0, 1): 1.0})
    # NaN fails every comparison, so the magnitude window alone lets it in
    for w in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=rf"^clause \(1, 2, 3\) has "
                                             rf"non-finite weight {w}$"):
            instances.XorInstance(5, 3, {(0, 1, 2): 1.0, (1, 2, 3): w})
    # the first offending clause is named, whichever check it fails
    with pytest.raises(ValueError, match=r"^clause \(1, 2, 7\) out of"):
        instances.XorInstance(5, 3, {(0, 1, 2): 1.0, (1, 2, 7): 1.0,
                                     (2, 2, 3): 1.0, (0, 1, 4): 0.0})
    with pytest.raises(ValueError, match=r"^clause \(0, 1, 4\) has zero"):
        instances.XorInstance(5, 3, {(0, 1, 4): 0.0, (1, 2, 7): 1.0})
    with pytest.raises(ValueError, match=r"^clause \(3, 4\) does not"):
        instances.XorInstance(5, 3, {(0, 1, 2): 1.0, (3, 4): 1.0,
                                     (0, 1, 2, 3): 1.0})


def _array_form(clauses):
    """The (supports, weights) arrays of a {tuple: weight} mapping."""
    return (np.array(list(clauses), dtype=np.int64).reshape(-1, 3),
            np.array(list(clauses.values()), dtype=float))


def test_xor_instance_arrays_give_the_same_messages():
    # the mapping cases above, as arrays: the same message, and the same
    # first offending clause, whichever form comes in
    cases = [{(2, 1, 0): 1.0}, {(0, 1, 5): 1.0}, {(0, 1, 2): 0.0},
             {(0, 1, 2): 1.0, (1, 2, 3): float("nan")},
             {(0, 1, 2): 1.0, (1, 2, 7): 1.0, (2, 2, 3): 1.0,
              (0, 1, 4): 0.0},
             {(0, 1, 4): 0.0, (1, 2, 7): 1.0},
             {(0, 1, 2): 0.5, (1, 2, 3): 2.0}]
    for clauses in cases:
        n = 3 if (0, 1, 5) in clauses else 5
        with pytest.raises(ValueError) as by_dict:
            instances.XorInstance(n, 3, clauses)
        with pytest.raises(ValueError) as by_arrays:
            instances.XorInstance(n, 3, _array_form(clauses))
        assert str(by_arrays.value) == str(by_dict.value)
    with pytest.raises(ValueError,
                       match=r"^clause \(0, 1\) does not have arity 3$"):
        instances.XorInstance(5, 3, (np.array([[0, 1], [1, 2]]), [1.0, 1.0]))
    with pytest.raises(ValueError, match=r"size 3 into shape \(2,\)"):
        instances.XorInstance(5, 3, ([[0, 1, 2], [1, 2, 3]], [1.0] * 3))
    # only arrays can repeat a support; its second occurrence is named
    with pytest.raises(ValueError,
                       match=r"^clause \(1, 2, 3\) appears more than once$"):
        instances.XorInstance(5, 3, ([[1, 2, 3], [0, 1, 2], [1, 2, 3]],
                                     [1.0, -1.0, 1.0]))


def test_xor_instance_arrays_are_read_only_copies():
    supports = np.array([[1, 2, 4], [0, 1, 2]])
    weights = np.array([0.5, -1.0])
    I = instances.XorInstance(5, 3, (supports, weights))
    assert I.supports.dtype == np.int64 and I.weights.dtype == float
    for array in (I.supports, I.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the caller's arrays stay theirs
    supports[0, 0] = 3
    weights[0] = 1.0
    assert I.clauses == {(1, 2, 4): 0.5, (0, 1, 2): -1.0}
    assert I.m == 2 and supports.flags.writeable


@pytest.mark.parametrize("n,k,p,seed", [(9, 3, 0.4, 7), (12, 3, 0.05, 1),
                                        (8, 5, 0.3, 2), (6, 3, 1.0, 0)])
def test_xor_instance_mapping_and_arrays_agree(n, k, p, seed):
    I = instances.sample_kxor(n, k, p, seed)
    J = instances.XorInstance(n, k, I.clauses, p=p, seed=seed)
    np.testing.assert_array_equal(J.supports, I.supports)
    np.testing.assert_array_equal(J.weights, I.weights)
    assert J.clauses == I.clauses
    assert J.to_json_dict() == I.to_json_dict()
    assert (refute.refute_xor(J, z=6).to_json_dict()
            == refute.refute_xor(I, z=6).to_json_dict())


@pytest.mark.parametrize("n,k,p,seed", [(9, 3, 0.4, 7), (15, 3, 0.1, 3),
                                        (9, 5, 0.2, 4), (7, 7, 1.0, 5),
                                        (10, 3, 0.0, 6)])
def test_sample_kxor_matches_dict_reference(n, k, p, seed):
    # the dict-built sampler: one uniform per support in lexicographic
    # rank order, the supports kept in that order
    draws = np.random.default_rng(seed).random(math.comb(n, k))
    want = {combo: 1.0 if u < p / 2 else -1.0 for combo, u in zip(
        itertools.combinations(range(n), k), draws) if u < p}
    I = instances.sample_kxor(n, k, p, seed)
    assert I.supports.shape == (len(want), k)
    assert list(zip(map(tuple, I.supports.tolist()),
                    I.weights.tolist())) == list(want.items())


def test_value_hand_example():
    I = instances.XorInstance(3, 3, {(0, 1, 2): 1.0})
    assert xor_value(I, [1, 1, 1]) == 1.0
    assert xor_value(I, [-1, 1, 1]) == 0.0
    I2 = instances.XorInstance(3, 3, {(0, 1, 2): -1.0})
    assert xor_value(I2, [-1, 1, 1]) == 1.0


def test_value_matches_clause_loop():
    # the per-clause loop xor_value() replaced; the vectorized sum adds in
    # another order, so weights off +-1 agree to rounding only
    rng = np.random.default_rng(3)
    I = instances.sample_kxor(9, 3, 0.4, seed=2)
    J = instances.XorInstance(9, 3, {t: w * float(rng.uniform(0.1, 1.0))
                                     for t, w in I.clauses.items()})
    for inst, rel in ((I, 0.0), (J, 1e-14)):
        for x in rng.choice((-1.0, 1.0), size=(20, 9)):
            loop = sum((1.0 + w * math.prod(x[list(t)])) / 2.0
                       for t, w in inst.clauses.items()) / inst.m
            assert abs(xor_value(inst, x) - loop) <= rel * loop


def test_value_requires_clauses():
    I = instances.XorInstance(3, 3, {})
    with pytest.raises(ValueError, match="no clauses"):
        xor_value(I, [1, 1, 1])


def test_brute_opt_matches_direct_enumeration():
    I = instances.sample_kxor(8, 3, 0.4, seed=5)
    best = max(
        xor_value(I, x)
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
    assert instances.brute_opt(I) == _enumerated_opt(xor_value, I)


@pytest.mark.parametrize("seed", range(4))
def test_brute_opt_non_dyadic_weights(seed):
    rng = np.random.default_rng(seed)
    n, k = 9, 3
    clauses = {c: rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
               for c in itertools.combinations(range(n), k)
               if rng.random() < 0.3}
    I = instances.XorInstance(n, k, clauses)
    np.testing.assert_allclose(instances.brute_opt(I),
                               _enumerated_opt(xor_value, I),
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
            == _enumerated_opt(csp_value, J))


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
            == _enumerated_opt(csp_value, J))


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
    for I, oracle, evaluate in ((xor, instances.brute_opt, xor_value),
                                (csp, instances.csp_brute_opt,
                                 csp_value)):
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
        assert index_from_assignment(z) == idx


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
    with pytest.raises(ValueError, match=r"constraint \(\(0, 1\), \(1, 1\)\) "
                                         "does not have arity 3"):
        instances.CspInstance(4, 3, table, [((0, 1, 2), (1, 1, 1)),
                                            ((0, 1), (1, 1))])
    with pytest.raises(ValueError, match="does not have arity 3"):
        instances.CspInstance(4, 3, table, [((0, 1, 2), (1, 1))])
    with pytest.raises(ValueError, match="does not have arity 3"):
        instances.CspInstance(4, 3, table, [((0, 1), (1, 1))] * 3)
    # the first offending constraint is named, whichever check it fails
    with pytest.raises(ValueError, match=r"scope \(0, 1, 9\)"):
        instances.CspInstance(4, 3, table, [((0, 1, 2), (1, 1, 1)),
                                            ((0, 1, 9), (1, 1, 1)),
                                            ((0, 1, 2), (1, 0, 1))])
    with pytest.raises(ValueError, match=r"pattern \(1, 0, 1\)"):
        instances.CspInstance(4, 3, table, [((0, 1, 2), (1, 0, 1)),
                                            ((0, 1, 9), (1, 1, 1))])


def test_csp_instance_accepts_no_constraints():
    J = instances.CspInstance(4, 3, instances.predicate_table("3sat"), [])
    assert J.m == 0 and J.constraints == []
    assert J.scopes.shape == J.signs.shape == (0, 3)


def test_csp_instance_arrays_are_read_only_copies():
    pairs = np.array([[[0, 1, 2], [1, -1, 1]], [[3, 3, 0], [-1, -1, 1]]])
    J = instances.CspInstance(4, 3, instances.predicate_table("3sat"), pairs)
    pairs[0, 0, 0] = 3
    assert J.constraints == [((0, 1, 2), (1, -1, 1)), ((3, 3, 0), (-1, -1, 1))]
    with pytest.raises(ValueError, match="read-only"):
        J.scopes[0, 0] = 1
    J.constraints.clear()
    assert J.m == 2


def test_csp_value_3sat_hand_example():
    table = instances.predicate_table("3sat")
    # one clause x0 OR x1 OR x2 and one clause (NOT x0) OR x1 OR x2
    J = instances.CspInstance(3, 3, table, [
        ((0, 1, 2), (1, 1, 1)),
        ((0, 1, 2), (-1, 1, 1)),
    ])
    assert csp_value(J, [1, -1, -1]) == 0.5
    assert csp_value(J, [1, 1, -1]) == 1.0
    assert csp_value(J, [-1, -1, -1]) == 0.5


def test_csp_value_requires_constraints():
    J = instances.CspInstance(3, 3, instances.predicate_table("3sat"), [])
    with pytest.raises(ValueError, match="no constraints"):
        csp_value(J, [1, 1, 1])


def csp_value_loop(J, x):
    """The per-constraint reference for csp_value."""
    total = 0.0
    for alpha, c in J.constraints:
        z = tuple(int(c[j] * x[alpha[j]]) for j in range(J.k))
        total += J.truth_table[index_from_assignment(z)]
    return total / J.m


@pytest.mark.parametrize("k,n,p", [(3, 6, 0.05), (5, 5, 0.01)])
def test_csp_value_matches_loop(k, n, p):
    rng = np.random.default_rng(k)
    J = instances.sample_csp(rng.integers(0, 2, size=2 ** k), n, k, p, 1)
    for x in rng.choice([-1.0, 1.0], size=(8, n)):
        assert csp_value(J, x) == csp_value_loop(J, x)


def test_csp_scopes_may_repeat_indices():
    table = instances.predicate_table("3sat")
    J = instances.CspInstance(3, 3, table, [((0, 0, 1), (1, -1, 1))])
    # x0 OR (NOT x0) OR x1 is a tautology
    for x in itertools.product((-1, 1), repeat=3):
        assert csp_value(J, x) == 1.0


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


def sample_csp_loop(n, k, p, seed):
    """The per-hit reference for sample_csp's decoding: each hit's rank
    divided into alpha's base-n digits and the truth-table index of c."""
    draws = np.random.default_rng(seed).random((n ** k) * (2 ** k))
    constraints = []
    for rank in np.flatnonzero(draws < p).tolist():
        alpha_rank, c_rank = divmod(rank, 2 ** k)
        alpha = []
        for _ in range(k):
            alpha_rank, digit = divmod(alpha_rank, n)
            alpha.append(digit)
        constraints.append((tuple(reversed(alpha)),
                            instances.assignment_from_index(c_rank, k)))
    return constraints


@pytest.mark.parametrize("n,k,p", [(4, 5, 0.01), (5, 5, 0.002), (3, 5, 0.0),
                                   (2, 5, 1.0), (3, 3, 1.0), (6, 3, 0.0)])
def test_sample_csp_matches_loop(n, k, p):
    J = instances.sample_csp(np.ones(2 ** k), n, k, p, seed=n + k)
    assert J.constraints == sample_csp_loop(n, k, p, seed=n + k)
    assert J.scopes.shape == J.signs.shape == (J.m, k)
    if p == 0.0:
        assert J.m == 0
    if p == 1.0:
        assert J.m == (n ** k) * (2 ** k)


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
        csp_value(J, x)
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
        np.testing.assert_array_equal(reconstruct_table(F), table)


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


def test_xor_json_keeps_clause_order_and_rejects_a_repeat():
    d = instances.XorInstance(5, 3, {(1, 2, 3): 1.0}).to_json_dict()
    d["clauses"].append({"vars": [0, 1, 2], "weight": -0.5})
    back = instances.XorInstance.from_json_dict(d)
    assert back.supports.tolist() == [[1, 2, 3], [0, 1, 2]]
    assert back.weights.tolist() == [1.0, -0.5]
    # a repeated support would count its clause twice in m
    d["clauses"].append({"vars": [0, 1, 2], "weight": 1.0})
    with pytest.raises(ValueError, match=r"^clause \(0, 1, 2\) appears "
                                         r"more than once$"):
        instances.XorInstance.from_json_dict(d)


def test_xor_instance_weight_magnitude():
    with pytest.raises(ValueError, match=r"^clause weights must satisfy "
                                         r"0 < \|w\| <= 1$"):
        instances.XorInstance(5, 3, {(0, 1, 2): 0.5, (1, 2, 3): -1.5})


def test_csp_json_roundtrip():
    table = instances.predicate_table("3sat")
    J = instances.sample_csp(table, 6, 3, 0.05, seed=9)
    d = J.to_json_dict()
    assert d["kind"] == "csp"
    back = instances.CspInstance.from_json_dict(d)
    assert back.constraints == J.constraints
    np.testing.assert_array_equal(back.truth_table, J.truth_table)
