"""Acceptance gate: one test per shipping criterion, each pinning its
tolerance inline and printing a one-line summary. Criteria 1-9 finish in
about a minute together; criterion 10 refutes eighty instances at n = 60
and dominates the runtime (about 150 s on two cores; marked slow)."""

import math
import time

import numpy as np
import pytest

from nbrefute import certify, instances, linalg, nonbacktracking, refute, walks

from conftest import complete_graph, graph_corpus, nonempty_weighted_graph


def test_criterion_01_determinant_identity():
    tol = 1e-8
    budget_seconds = 30.0
    points_per_matrix = 20
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    evaluations = 0
    for A in graph_corpus(100, 8, seed=0):
        G = nonbacktracking.build(A)
        for u in rng.uniform(-0.9, 0.9, size=points_per_matrix):
            res = nonbacktracking.ihara_bass_residual(A, u, matrices=G)
            worst = max(worst, res)
            evaluations += 1
    elapsed = time.time() - start
    assert worst <= tol, f"worst determinant residual {worst:.3e} > {tol}"
    assert elapsed <= budget_seconds, f"took {elapsed:.1f}s"
    print(f"criterion 1: PASS max residual {worst:.2e} over "
          f"{evaluations} evaluations in {elapsed:.1f}s")


def test_criterion_02_bundle_identities():
    tol = 1e-12
    worst = 0.0
    for A in graph_corpus(100, 8, seed=0):
        G = nonbacktracking.build(A)
        n = G.n
        checks = [
            G.S @ G.J - G.T,
            G.T @ G.J - G.S,
            G.S @ G.T.T - G.A_dense,
            G.S @ G.S.T - G.D,
            G.T @ G.T.T - G.D,
            G.T.T @ G.S - (G.B + G.L),
        ]
        for M in checks:
            worst = max(worst, float(np.max(np.abs(M))))
    assert worst <= tol, f"worst bundle identity deviation {worst:.3e}"
    print(f"criterion 2: PASS max bundle deviation {worst:.2e} "
          f"across 100 graphs")


def test_criterion_03_triangle_determinant():
    tol = 1e-10
    G = nonbacktracking.build(complete_graph(3))
    worst = 0.0
    for u in (0.25, 0.5, 0.75):
        det = linalg.det_shift(np.eye(6) - u * G.B)
        expect = (1.0 - u ** 3) ** 2
        worst = max(worst, abs(det - expect))
    assert worst <= tol, f"triangle determinant off by {worst:.3e}"
    print(f"criterion 3: PASS triangle det(I - uB) matches (1-u^3)^2 "
          f"to {worst:.2e}")


def test_criterion_04_psd_witness():
    tol = -1e-8
    corpus = graph_corpus(500, 12, seed=4)
    violations = 0
    floor = 0.0
    for A in corpus:
        lam = certify.lambda_certificate(A, mode="eig", z=16)
        wit = certify.lowner_witness(A, lam)
        floor = min(floor, wit)
        if wit < tol:
            violations += 1
    assert len(corpus) >= 500
    assert violations == 0, (
        f"{violations} witness violations, worst {floor:.3e}")
    print(f"criterion 4: PASS witness stayed above {tol} on "
          f"{len(corpus)} instances (floor {floor:.2e})")


def test_criterion_05_inf_to_one_certificates():
    slack = 1e-9
    corpus = graph_corpus(60, 10, seed=5)
    violations = 0
    checked = 0
    for idx, dense in enumerate(corpus):
        brute = linalg.brute_inf_to_one(dense)
        for mode in ("gelfand", "eig"):
            cert = certify.inf_to_one_certificate(dense, mode=mode, z=16)
            checked += 1
            if cert.final_bound < brute - slack:
                violations += 1
        if idx % 10 == 0:
            report = certify.audit(dense, cert)
            assert report["passed"], f"audit failed on corpus graph {idx}"
    assert violations == 0, f"{violations} certificates fell below brute"
    print(f"criterion 5: PASS {checked} certificates dominated the exact "
          f"norm, zero violations")


def test_criterion_06_xor_refutation_soundness():
    budget_seconds = 300.0
    start = time.time()
    violations = 0
    informative = 0
    total = 0
    for p in (0.1, 0.3):
        for seed in range(25):
            I = instances.sample_kxor(12, 3, p, seed=seed)
            if I.m == 0:
                continue
            cert = refute.refute_xor(I, mode="gelfand", z=16)
            opt = instances.brute_opt(I)
            total += 1
            if cert.final_bound < opt - 1e-12:
                violations += 1
            if cert.informative:
                informative += 1
            report = refute.audit_refutation(I, cert)
            assert report["auditable"] and report["passed"]
    elapsed = time.time() - start
    assert total == 50
    assert violations == 0, f"{violations} refutations fell below optimum"
    assert elapsed <= budget_seconds, f"took {elapsed:.1f}s"
    print(f"criterion 6: PASS 50 refutations all dominated the brute "
          f"optimum ({informative} informative) in {elapsed:.1f}s")


def test_criterion_07_walk_sum_identities():
    tol = 1e-8
    rng = np.random.default_rng(7)
    graphs = [
        linalg.SymWeightedMatrix(4, {
            (0, 1): 0.8, (0, 2): -1.0, (0, 3): 0.5,
            (1, 2): -0.6, (1, 3): 1.0, (2, 3): -0.9,
        }),
        nonempty_weighted_graph(rng, 5),
    ]
    worst = 0.0
    for A in graphs:
        G = nonbacktracking.build(A)
        for z in (2, 3, 4):
            M = np.linalg.matrix_power(G.B, z - 1)
            for eid, e in enumerate(G.index.edges):
                for fid, f in enumerate(G.index.edges):
                    dev = abs(walks.nbw_power_entry(A, e, f, z)
                              - M[eid, fid])
                    worst = max(worst, dev)
        for q, z in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            M = np.linalg.matrix_power(G.B, z - 1)
            direct = float(np.trace(np.linalg.matrix_power(M @ M.T, q)))
            dev = abs(walks.trace_walk_sum(A, q, z) - direct)
            worst = max(worst, dev)
    assert worst <= tol, f"worst walk-sum deviation {worst:.3e}"
    print(f"criterion 7: PASS walk sums reproduced operator powers and "
          f"traces to {worst:.2e}")


def test_criterion_08_census_ceiling():
    pairs = [(q, z) for q in range(1, 7) for z in range(1, 7) if q * z <= 6]
    violations = []
    points = 0
    for q, z in pairs:
        for v in range(2, 6):
            for e in range(v - 1, q * z + 1):
                for t in (1, 2):
                    count = walks.count_canonical(q, z, v, e, t)
                    bound = walks.canonical_count_bound(q, z, v, e, t)
                    points += 1
                    if count > bound:
                        violations.append((q, z, v, e, t, count, bound))
    assert not violations, f"ceiling violated at {violations[:5]}"
    print(f"criterion 8: PASS census counts stayed under the closed-form "
          f"ceiling at all {points} grid points")


def test_criterion_09_fourier_and_csp_soundness():
    tol = 1e-10
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        table = rng.integers(0, 2, size=8).astype(float)
        F = instances.fourier_decompose(table)
        idx = int(rng.integers(0, 8))
        zvec = instances.assignment_from_index(idx, 3)
        worst = max(worst, abs(F.evaluate(zvec) - table[idx]))
    assert worst <= tol, f"worst Fourier evaluation error {worst:.3e}"
    table = instances.predicate_table("3sat")
    violations = 0
    for seed in (0, 1):
        J = instances.sample_csp(table, 12, 3, 0.008, seed=seed)
        assert J.m > 0
        cert = refute.refute_csp(J, mode="gelfand", z=16)
        opt = instances.csp_brute_opt(J)
        if cert.final_bound < opt - 1e-12:
            violations += 1
    assert violations == 0
    print(f"criterion 9: PASS Fourier identity to {worst:.2e} and both "
          f"3-SAT refutations dominated the optimum")


@pytest.mark.slow
def test_criterion_10_large_scale_refutation():
    n = 60
    z = 6
    seeds = range(1, 21)
    mults = (10, 20, 40, 80)
    bounds = {mult: [] for mult in mults}
    start = time.time()
    for mult in mults:
        p = mult * n ** -1.5
        for seed in seeds:
            I = instances.sample_kxor(n, 3, p, seed=seed)
            cert = refute.refute_xor(I, mode="gelfand", z=z)
            bounds[mult].append(cert.final_bound)
    elapsed = time.time() - start
    informative = sum(1 for u in bounds[40] if u < 1.0)
    medians = [float(np.median(bounds[mult])) for mult in mults]
    assert informative >= 10, (
        f"only {informative}/20 informative at 40 n^-1.5")
    for a, b in zip(medians, medians[1:]):
        assert b <= a + 1e-12, f"median bounds not monotone: {medians}"
    print(f"criterion 10: PASS {informative}/20 informative at density "
          f"40 n^-1.5; median bounds {['%.4f' % m for m in medians]} "
          f"nonincreasing in {elapsed:.0f}s")
