import numpy as np
import pytest

from nbrefute import linalg, nonbacktracking

from conftest import complete_graph, nonempty_weighted_graph


def bundle_corpus(count=25, max_n=8, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
        yield nonempty_weighted_graph(rng, n, density=0.6)


def test_oriented_edge_index_layout():
    idx = nonbacktracking.OrientedEdgeIndex([(0, 2), (1, 2)])
    assert idx.edges == [(0, 2), (2, 0), (1, 2), (2, 1)]
    assert list(idx.inverse_of) == [1, 0, 3, 2]


def test_bundle_identities():
    for dense in bundle_corpus():
        G = nonbacktracking.build(dense)
        np.testing.assert_allclose(G.S @ G.J, G.T, atol=1e-12)
        np.testing.assert_allclose(G.T @ G.J, G.S, atol=1e-12)
        np.testing.assert_allclose(G.S @ G.T.T, G.A_dense, atol=1e-12)
        np.testing.assert_allclose(G.S @ G.S.T, G.D, atol=1e-12)
        np.testing.assert_allclose(G.T @ G.T.T, G.D, atol=1e-12)
        np.testing.assert_allclose(G.B + G.L, G.T.T @ G.S, atol=1e-12)


def test_backtracking_entries_are_zero():
    for dense in bundle_corpus(count=10):
        G = nonbacktracking.build(dense)
        ids = np.arange(len(G.index))
        np.testing.assert_array_equal(G.B[ids, G.index.inverse_of], 0.0)


def test_entry_magnitudes_and_support():
    rng = np.random.default_rng(2)
    dense = nonempty_weighted_graph(rng, 6, density=0.7)
    G = nonbacktracking.build(dense)
    edges = G.index.edges
    for ei, (u, v) in enumerate(edges):
        for fi, (s, t) in enumerate(edges):
            val = G.B[ei, fi]
            if v == s and (u, v) != (t, s):
                expect = np.sqrt(abs(dense[u, v]) * abs(dense[s, t]))
                assert abs(abs(val) - expect) < 1e-12
            else:
                assert val == 0.0


def test_determinant_identity_on_random_graphs():
    rng = np.random.default_rng(4)
    # the grid +-0.05, +-0.15, ..., +-0.85 and five seeded uniform draws
    points = [s * (0.05 + 0.1 * i) for i in range(9) for s in (1, -1)]
    points += list(np.random.default_rng(1).uniform(-0.9, 0.9, 5))
    for _ in range(15):
        dense = nonempty_weighted_graph(rng, 6, density=0.6)
        G = nonbacktracking.build(dense)
        for u in points:
            assert nonbacktracking.ihara_bass_residual(dense, u, G) <= 1e-10


def test_identity_singular_at_unit_points():
    dense = complete_graph(3)
    for u in (1.0, -1.0):
        with pytest.raises(ValueError, match="singular"):
            nonbacktracking.ihara_bass_residual(dense, u)


def test_triangle_characteristic_product():
    # on the unweighted 3-cycle, det(Id - u B) = (1 - u^3)^2
    G = nonbacktracking.build(complete_graph(3))
    for u in (0.25, 0.5, 0.75):
        lhs = np.linalg.det(np.eye(6) - u * G.B)
        np.testing.assert_allclose(lhs, (1 - u ** 3) ** 2, atol=1e-10)


def test_pencil_spectrum_matches_edge_operator():
    # the spectrum of B + L - J equals the companion-pencil roots padded
    # with +-1
    rng = np.random.default_rng(9)
    for _ in range(10):
        dense = nonempty_weighted_graph(rng, 5, density=0.8)
        G = nonbacktracking.build(dense)
        n = dense.shape[0]
        m = G.m
        M = G.B + G.L - G.J
        degs = np.diag(G.D)
        comp = np.block([
            [dense, -np.diag(degs - 1.0)],
            [np.eye(n), np.zeros((n, n))],
        ])
        pencil = np.linalg.eigvals(comp)
        pad = [1.0, -1.0] * (m - n) if m >= n else []
        expect = np.sort_complex(np.concatenate([pencil, pad]))
        if m < n:
            # the pencil has extra +-1 roots instead
            continue
        got = np.sort_complex(np.linalg.eigvals(M))
        np.testing.assert_allclose(got, expect, atol=1e-8)


def test_build_accepts_sym_matrix():
    # the pair map and its dense form give the same bundle, field by field
    A = linalg.SymWeightedMatrix(3, {(0, 1): 1.0, (1, 2): -1.0})
    assert nonbacktracking.build(A).B.shape == (4, 4)
    for dense in bundle_corpus(count=10):
        us, vs = np.nonzero(np.triu(dense, 1))
        A = linalg.SymWeightedMatrix(
            dense.shape[0], {(u, v): dense[u, v] for u, v in zip(us, vs)})
        G, H = nonbacktracking.build(dense), nonbacktracking.build(A)
        for name in G._fields:
            if name == "index":
                assert G.index.edges == H.index.edges
                assert all(type(x) is int
                           for e in G.index.edges for x in e)
                np.testing.assert_array_equal(G.index.inverse_of,
                                              H.index.inverse_of)
            else:
                np.testing.assert_array_equal(getattr(G, name),
                                              getattr(H, name))


def test_build_caps_the_bundle_before_allocating(monkeypatch):
    def allocate(dense):
        raise AssertionError("incidence built past the cap")

    A = complete_graph(4)
    monkeypatch.setattr(linalg, "EIG_DIM_CAP", 11)
    monkeypatch.setattr(nonbacktracking, "incidence", allocate)
    with pytest.raises(ValueError, match=r"^bundle infeasible: 12 oriented "
                                         r"edges exceeds cap 11$"):
        nonbacktracking.build(A)
    # 2m at the cap is built
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "EIG_DIM_CAP", 12)
    assert nonbacktracking.build(A).B.shape == (12, 12)
