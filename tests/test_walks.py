import itertools

import numpy as np
import pytest

from nbrefute import linalg, nonbacktracking, walks

from conftest import MALFORMED_GRAPHS, complete_graph
from walk_reference import BlockWalk, Walk, enumerate_nbw, is_canonical


def weighted_k4():
    return linalg.SymWeightedMatrix(4, {
        (0, 1): 0.8, (0, 2): -1.0, (0, 3): 0.5,
        (1, 2): -0.6, (1, 3): 1.0, (2, 3): -0.9,
    })


def test_walk_validation():
    with pytest.raises(ValueError, match="at least one edge"):
        Walk([3])
    with pytest.raises(ValueError, match="does not move"):
        Walk([0, 1, 1, 2])
    W = Walk([0, 1, 2, 0])
    assert W.z == 3
    assert W.edges() == [(0, 1), (1, 2), (2, 0)]
    assert W.is_nonbacktracking()
    assert not Walk([0, 1, 0]).is_nonbacktracking()
    assert Walk((0, 1)) == Walk([0, 1])
    assert hash(Walk((0, 1))) == hash(Walk([0, 1]))


def test_block_walk_validation():
    W = BlockWalk([(0, 1, 2), (2, 1, 0)])
    assert W.q == 1
    assert W.z == 2
    assert W.edge_multiplicities() == {(0, 1): 2, (1, 2): 2}
    with pytest.raises(ValueError, match="even number of blocks"):
        BlockWalk([(0, 1, 2)])
    with pytest.raises(ValueError, match="expected 2"):
        BlockWalk([(0, 1, 2), (2, 1)])
    with pytest.raises(ValueError, match="block 0 backtracks"):
        BlockWalk([(0, 1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="reverse of block 0"):
        BlockWalk([(0, 1, 2), (1, 2, 0)])
    # the wrap link is enforced too
    with pytest.raises(ValueError, match="reverse of block 1"):
        BlockWalk([(0, 1, 2), (2, 1, 3)])


def test_is_canonical():
    assert is_canonical(Walk([0, 1, 2]))
    assert not is_canonical(Walk([0, 2, 1]))
    assert is_canonical(BlockWalk([(0, 1, 2), (2, 1, 0)]))
    assert not is_canonical(BlockWalk([(1, 0, 2), (2, 0, 1)]))


def test_enumerate_nbw_triangle():
    A = complete_graph(3)
    found = enumerate_nbw(A, (0, 1), (1, 2), 2)
    assert found == [Walk((0, 1, 2))]
    assert enumerate_nbw(A, (0, 1), (1, 0), 2) == []
    assert enumerate_nbw(A, (0, 1), (0, 1), 1) == [Walk((0, 1))]


def test_enumerate_nbw_errors(monkeypatch):
    A = complete_graph(3)
    with pytest.raises(ValueError, match="not an oriented edge"):
        enumerate_nbw(A, (0, 3), (1, 2), 2)
    monkeypatch.setattr(walks, "ENUM_CAP", 2)
    with pytest.raises(ValueError, match="cap exceeded"):
        enumerate_nbw(complete_graph(4), (0, 1), (1, 2), 4)


def test_walk_cap_is_read_at_call_time_by_every_walk_sum(monkeypatch):
    monkeypatch.setattr(walks, "ENUM_CAP", 2)
    message = r"^enumeration cap exceeded: more than 2 partial walks"
    for call in (lambda: enumerate_nbw(complete_graph(4), (0, 1), (1, 2), 4),
                 lambda: walks.nbw_power_entry(weighted_k4(), (0, 1),
                                               (2, 0), 4),
                 lambda: walks.trace_walk_sum(weighted_k4(), 1, 2)):
        with pytest.raises(linalg.Infeasible, match=message):
            call()


def test_walk_sums_frozen():
    # exact values: the walk order and the product order fix every bit
    assert walks.trace_walk_sum(weighted_k4(), 2, 3) == 62.20989287999997
    assert walks.nbw_power_entry(weighted_k4(), (0, 1), (2, 3), 4) == 0.0
    assert (walks.nbw_power_entry(weighted_k4(), (0, 1), (2, 0), 4)
            == -0.8049844718999243)
    found = enumerate_nbw(complete_graph(5), (0, 1), (2, 3), 5)
    assert [W.vertices for W in found] == [
        (0, 1, 3, 0, 2, 3), (0, 1, 3, 4, 2, 3), (0, 1, 4, 0, 2, 3)]


def test_nbw_power_entry_matches_operator_power():
    A = weighted_k4()
    G = nonbacktracking.build(A)
    for z in (2, 3, 4):
        M = np.linalg.matrix_power(G.B, z - 1)
        for eid, e in enumerate(G.index.edges):
            for fid, f in enumerate(G.index.edges):
                np.testing.assert_allclose(
                    walks.nbw_power_entry(A, e, f, z), M[eid, fid],
                    atol=1e-12)


def test_nbw_power_entry_refuses_large_inputs_before_searching(monkeypatch):
    def search(*args):
        raise AssertionError("the walker ran")

    monkeypatch.setattr(walks, "_nb_walks", search)
    with pytest.raises(linalg.Infeasible,
                       match=r"^enumeration infeasible: \(n=20, z=8\)"):
        walks.nbw_power_entry(complete_graph(20), (0, 1), (1, 2), 8)
    with pytest.raises(linalg.Infeasible, match=r"\(n=5, z=5\)"):
        walks.nbw_power_entry(complete_graph(5), (0, 1), (1, 2), 5)
    with pytest.raises(linalg.Infeasible, match=r"\(n=6, z=2\)"):
        walks.nbw_power_entry(complete_graph(6), (0, 1), (1, 2), 2)
    # the largest admitted input reaches the walker
    with pytest.raises(AssertionError, match="the walker ran"):
        walks.nbw_power_entry(complete_graph(5), (0, 1), (1, 2), 4)


def test_nbw_power_entry_rejects_short_walks():
    with pytest.raises(ValueError, match="at least two edges"):
        walks.nbw_power_entry(complete_graph(3), (0, 1), (1, 2), 1)


def test_trace_walk_sum_matches_direct_trace():
    for A in (weighted_k4(), complete_graph(4)):
        G = nonbacktracking.build(A)
        for q, z in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            M = np.linalg.matrix_power(G.B, z - 1)
            direct = float(np.trace(np.linalg.matrix_power(M @ M.T, q)))
            np.testing.assert_allclose(
                walks.trace_walk_sum(A, q, z), direct, atol=1e-10)


def test_trace_walk_sum_triangle_frozen():
    assert walks.trace_walk_sum(complete_graph(3), 2, 2) == 6.0


def test_trace_walk_sum_single_edge_is_zero():
    A = linalg.SymWeightedMatrix(2, {(0, 1): 1.0})
    assert walks.trace_walk_sum(A, 1, 2) == 0.0


def test_trace_walk_sum_caps():
    with pytest.raises(ValueError, match="enumeration infeasible"):
        walks.trace_walk_sum(complete_graph(6), 1, 2)
    with pytest.raises(ValueError, match="at least two edges"):
        walks.trace_walk_sum(complete_graph(3), 1, 1)
    with pytest.raises(ValueError, match="at least one block pair"):
        walks.trace_walk_sum(complete_graph(3), 0, 2)


def brute_census(q, z, v_max):
    """Independent enumeration of canonical interesting block walks: try
    every assignment of vertex labels below v_max to the free slots, let
    the BlockWalk constructor reject malformed ones, and bucket survivors
    by (vertices, distinct undirected edges, max per-block cycle excess)."""
    counts = {}
    blocks_n = 2 * q
    free = (z + 1) + (blocks_n - 1) * (z - 1)
    for assign in itertools.product(range(v_max), repeat=free):
        blocks = [list(assign[:z + 1])]
        pos = z + 1
        for _ in range(1, blocks_n):
            prev = blocks[-1]
            blocks.append([prev[-1], prev[-2]] + list(assign[pos:pos + z - 1]))
            pos += z - 1
        try:
            W = BlockWalk(blocks)
        except ValueError:
            continue
        if not is_canonical(W):
            continue
        mult = W.edge_multiplicities()
        if any(c < 2 for c in mult.values()):
            continue
        tau_max = 0
        for blk in W.blocks:
            bedges = {(min(u, v), max(u, v)) for u, v in blk.edges()}
            tau_max = max(tau_max, len(bedges) - len(set(blk.vertices)) + 1)
        key = (len(set(W.vertex_sequence())), len(mult), tau_max)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("q,z", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_count_canonical_matches_brute_force(q, z):
    v_cap = min(q * z + 1, walks.CENSUS_MAX_V)
    brute = brute_census(q, z, v_cap)
    for v in range(2, v_cap + 1):
        for e in range(v - 1, q * z + 1):
            for t in range(4):
                expect = sum(c for (vv, ee, tau), c in brute.items()
                             if vv == v and ee == e and tau <= t)
                assert walks.count_canonical(q, z, v, e, t) == expect


def test_count_canonical_frozen_smallest_case():
    # one block pair of single edges: the walk (0,1),(1,0) and nothing else
    assert walks.count_canonical(1, 1, 2, 1, 0) == 1
    assert walks.count_canonical(1, 1, 2, 1, 1) == 1
    assert walks.count_canonical(2, 2, 5, 4, 0) == 1


def test_count_canonical_zero_and_errors():
    assert walks.count_canonical(1, 2, 3, 1, 2) == 0
    with pytest.raises(ValueError, match="census infeasible"):
        walks.count_canonical(1, 2, 7, 6, 1)
    with pytest.raises(ValueError, match="census infeasible"):
        walks.count_canonical(3, 3, 4, 5, 1)
    with pytest.raises(ValueError, match="need q >= 1"):
        walks.count_canonical(0, 2, 3, 2, 1)


def test_canonical_count_bound_dominates_spot_grid():
    for q, z in [(1, 2), (1, 3), (2, 2)]:
        for v in range(2, min(q * z + 1, 5) + 1):
            for e in range(v - 1, q * z + 1):
                for t in (1, 2):
                    count = walks.count_canonical(q, z, v, e, t)
                    assert count <= walks.canonical_count_bound(q, z, v, e, t)


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
@pytest.mark.parametrize("call", [
    lambda A: enumerate_nbw(A, (0, 1), (1, 2), 2),
    lambda A: walks.nbw_power_entry(A, (0, 1), (1, 2), 2),
    lambda A: walks.trace_walk_sum(A, 1, 2),
], ids=["enumerate_nbw", "nbw_power_entry", "trace_walk_sum"])
def test_walk_sums_reject_malformed_graphs(call, case):
    weights, message = MALFORMED_GRAPHS[case]
    with pytest.raises(ValueError, match=message):
        call(np.array(weights))


def test_sample_gamma_graph():
    with pytest.raises(ValueError, match="average degree"):
        walks.sample_gamma_graph(5, 6.0, seed=0)
    full = walks.sample_gamma_graph(5, 5.0, seed=0)
    assert np.count_nonzero(full) == 20
    assert set(full[np.triu_indices(5, 1)]) <= {-1.0, 1.0}
    np.testing.assert_array_equal(full, full.T)
    a = walks.sample_gamma_graph(30, 4.0, seed=7)
    b = walks.sample_gamma_graph(30, 4.0, seed=7)
    np.testing.assert_array_equal(a, b)


def pair_loop_gamma_graph(n, d, seed):
    """The sampler's draws turned into weights one hit at a time."""
    rng = np.random.default_rng(seed)
    p = d / n
    iu, iv = np.triu_indices(n, 1)
    draws = rng.random(iu.shape[0])
    entries = {}
    for idx in np.flatnonzero(draws < p):
        w = 1.0 if draws[idx] < p / 2.0 else -1.0
        entries[(int(iu[idx]), int(iv[idx]))] = w
    return linalg.SymWeightedMatrix(n, entries).to_dense()


@pytest.mark.parametrize("n,d,seed", [(2, 2.0, 0), (4, 0.8, 3), (30, 4.0, 7),
                                      (60, 3.0, 1), (200, 9.0, 5)])
def test_sample_gamma_graph_matches_pair_loop(n, d, seed):
    np.testing.assert_array_equal(walks.sample_gamma_graph(n, d, seed),
                                  pair_loop_gamma_graph(n, d, seed))


def test_rho_b_experiment_records():
    report = walks.rho_B_experiment(20, 3.0, [0, 1, 2])
    assert len(report["records"]) == 3
    for rec in report["records"]:
        assert set(rec) == {"n", "d", "seed", "rho_B", "gelfand_z", "ratio"}
        assert rec["rho_B"] <= rec["gelfand_z"] * (1 + 1e-8)
    ratios = [r["ratio"] for r in report["records"]]
    assert report["median_ratio"] == float(np.median(ratios))


def test_rho_b_experiment_sparse_fallback():
    # find a seed whose sample has fewer edges than vertices to hit the
    # dense-operator fallback
    seed = next(s for s in range(50)
                if 0 < np.count_nonzero(walks.sample_gamma_graph(4, 0.8, s))
                < 8)
    report = walks.rho_B_experiment(4, 0.8, [seed])
    rec = report["records"][0]
    assert rec["rho_B"] >= 0.0
    assert rec["rho_B"] <= rec["gelfand_z"] * (1 + 1e-8)



@pytest.mark.parametrize("n,d", [(4, 0.8), (12, 0.9), (40, 0.5)])
def test_rho_b_sparse_fallback_is_the_built_b(n, d):
    # with fewer edges than vertices the radius is read from B + L - J,
    # which equals the bundle's B bit for bit on +-1 weights
    seeds = [s for s in range(30)
             if 0 < np.count_nonzero(walks.sample_gamma_graph(n, d, s))
             < 2 * n]
    assert seeds
    report = walks.rho_B_experiment(n, d, seeds)
    for seed, rec in zip(seeds, report["records"]):
        G = nonbacktracking.build(walks.sample_gamma_graph(n, d, seed))
        assert rec["rho_B"] == float(np.max(np.abs(np.linalg.eigvals(G.B))))
