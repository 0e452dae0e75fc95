import functools
import math

import numpy as np
import pytest

from nbrefute import certify, instances, linalg, nonbacktracking, refute

import dense_reference
from conftest import (MALFORMED_GRAPHS, complete_graph,
                      nonempty_weighted_graph)


def test_triangle_eig_lambda_is_one():
    # frozen: the unweighted 3-cycle's edge operator has real spectrum {1},
    # so the eig-mode scale comes out at 1 up to the mandated inflation
    lam = certify.lambda_certificate(complete_graph(3), mode="eig")
    np.testing.assert_allclose(lam, 1.0, atol=1e-5)


def test_k4_gelfand_lambda_window():
    lam = certify.lambda_certificate(complete_graph(4), mode="gelfand", z=16)
    assert np.sqrt(2) - 0.1 <= lam <= 2.1


def test_lambda_floor_is_one():
    # a single light edge has real edge-operator spectrum inside (-1, 1);
    # the eig-mode scale still floors at 1
    A = np.zeros((2, 2))
    A[0, 1] = A[1, 0] = 0.01
    assert certify.lambda_certificate(A, mode="eig", z=8) == 1.0


def test_lambda_sign_invariance_is_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        dense = nonempty_weighted_graph(rng, 7)
        for mode in ("eig", "gelfand"):
            a = certify.lambda_certificate(dense, mode=mode, z=8)
            b = certify.lambda_certificate(-dense, mode=mode, z=8)
            assert a == b


def test_lambda_rejects_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        certify.lambda_certificate(np.zeros((3, 3)))


@pytest.mark.parametrize("mode", ["gelfand", "eig"])
def test_certificates_reject_non_finite_entries(mode):
    # a NaN pair once gave lambda = 1.0 and a NaN final bound
    A = complete_graph(3)
    A[0, 2] = A[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry nan at index "
                                         r"\(0, 2\)"):
        certify.lambda_certificate(A, mode=mode)
    with pytest.raises(ValueError, match=r"non-finite entry nan at index "
                                         r"\(0, 2\)"):
        certify.inf_to_one_certificate(A, mode=mode)


def test_lambda_rejects_bad_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        certify.lambda_certificate(complete_graph(3), mode="power")


def test_lambda_rejects_bad_z():
    with pytest.raises(ValueError, match="power count"):
        certify.lambda_certificate(complete_graph(3), z=0)


def test_companion_power_bound_matches_direct_power():
    # the companion route's bound is the Frobenius power bound of the
    # companion matrix; oracle: power it directly
    rng = np.random.default_rng(1)
    for _ in range(8):
        dense = nonempty_weighted_graph(rng, 6, density=0.7)
        degs = np.abs(dense).sum(axis=1)
        C = nonbacktracking.companion_matrix(dense, degs)
        for z in (3, 7, 12):
            P = np.linalg.matrix_power(C, z)
            direct_fro = np.linalg.norm(P) ** (1.0 / z)
            mine = linalg.spectral_radius_upper(C, z)
            np.testing.assert_allclose(mine, direct_fro, rtol=1e-10)


def test_companion_power_bound_survives_rescale():
    # heavy weights overflow naive powering at large z; the rescaled
    # power bound of the companion matrix must stay finite
    dense = complete_graph(5) * 10.0
    degs = np.abs(dense).sum(axis=1)
    C = nonbacktracking.companion_matrix(dense, degs)
    val = linalg.spectral_radius_upper(C, 200)
    assert np.isfinite(val)
    rho = np.max(np.abs(np.linalg.eigvals(C)))
    assert val >= rho - 1e-6


def test_both_routes_dominate_real_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dense = nonempty_weighted_graph(rng, 6, density=0.7)
        degs = np.abs(dense).sum(axis=1)
        C = nonbacktracking.companion_matrix(dense, degs)
        eigs = np.linalg.eigvals(C)
        real = eigs.real[np.abs(eigs.imag) < 1e-9]
        target = np.max(np.abs(real)) if real.size else 0.0
        lam = certify.lambda_certificate(dense, mode="gelfand", z=16)
        assert lam >= target - 1e-8
        assert lam >= 1.0


def test_lowner_witness_nonnegative_both_modes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        dense = nonempty_weighted_graph(rng, n)
        for mode in ("eig", "gelfand"):
            lam = certify.lambda_certificate(dense, mode=mode, z=12)
            assert certify.lowner_witness(dense, lam) >= -1e-8


def test_lowner_witness_rejects_small_lambda():
    with pytest.raises(ValueError, match="at least 1"):
        certify.lowner_witness(complete_graph(3), 0.5)


def test_lowner_witness_rejects_the_empty_graph():
    with pytest.raises(ValueError, match="empty matrix has no eigenvalues"):
        certify.lowner_witness(np.zeros((0, 0)), 1.0)


def test_inf_to_one_certificate_audits_clean():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        dense = nonempty_weighted_graph(rng, n)
        for mode in ("eig", "gelfand"):
            cert = certify.inf_to_one_certificate(dense, mode=mode, z=12)
            report = certify.audit(dense, cert)
            assert report["auditable"]
            assert report["passed"], report


def test_certificate_soundness_flags():
    # the norm certificate reads no lambda: both modes give the same
    # certificate, one Cholesky-verified step, sound with rounding included
    dense = complete_graph(4)
    gelfand = certify.inf_to_one_certificate(dense, mode="gelfand")
    eig = certify.inf_to_one_certificate(dense, mode="eig")
    assert gelfand.sound is True and eig.sound is True
    assert gelfand.to_json_dict() == eig.to_json_dict()
    assert [s["method"] for s in gelfand.steps] == ["cholesky"]


def _norm_witness(dense):
    """(W, bound) of the norm certificate of dense: W = diag(w) with w the
    witness weights a + b deg_u, zero on rows of degree 0."""
    cert = certify.inf_to_one_certificate(dense)
    w = cert.steps[0]["witness"]
    degs = np.abs(dense).sum(axis=1)
    W = np.diag(np.where(degs > 0, w["a"] + w["b"] * degs, 0.0))
    return W, cert.final_bound


def test_norm_certificate_witness_dominates_both_signs():
    # W - A and W + A are PSD, and tr W is the bound, at least the exact
    # norm; the last graphs have isolated vertices before their last row,
    # so the witness factors a copy of the kept rows of block-diag(A, -A)
    rng = np.random.default_rng(16)
    graphs = [nonempty_weighted_graph(rng, int(rng.integers(2, 11)))
              for _ in range(20)]
    sparse = np.zeros((9, 9))
    sparse[1, 4] = sparse[4, 1] = 1.5
    sparse[4, 6] = sparse[6, 4] = -0.7
    sparse[6, 1] = sparse[1, 6] = 0.3
    graphs += [sparse, np.pad(complete_graph(4), ((2, 3), (2, 3)))]
    for dense in graphs:
        W, bound = _norm_witness(dense)
        assert np.linalg.eigvalsh(W - dense).min() >= -1e-9
        assert np.linalg.eigvalsh(W + dense).min() >= -1e-9
        assert bound >= np.trace(W) * (1.0 - 1e-15)
        assert bound >= linalg.brute_inf_to_one(dense)


def test_norm_certificate_rejects_edgeless_graphs():
    for mode in ("gelfand", "eig"):
        with pytest.raises(ValueError, match="empty graph: no edges to "
                                             "certify"):
            certify.inf_to_one_certificate(np.zeros((4, 4)), mode=mode)


def test_certificate_json_roundtrip():
    cert = certify.inf_to_one_certificate(complete_graph(4), mode="gelfand")
    d = cert.to_json_dict()
    back = certify.Certificate.from_json_dict(d)
    assert back.kind == cert.kind
    assert back.n == cert.n
    assert back.final_bound == cert.final_bound
    assert back.sound == cert.sound
    assert back.steps == cert.steps
    back.validate()


def test_certificate_validate_rejects_bad_method():
    cert = certify.Certificate("inf_to_one", 2, [
        {"name": "s", "claim": "c", "value": 1.0, "method": "vibes"},
    ])
    with pytest.raises(ValueError, match="method"):
        cert.validate()


def _step(method):
    return {"name": "s", "claim": "c", "value": 1.0, "method": method}


def test_certificate_sound_is_computed_from_the_steps():
    # the keyword form a caller builds a certificate with, no sound flag
    cert = certify.Certificate("inf_to_one", 2, [_step("exact")],
                               final_bound=1.0)
    assert certify.VALID_METHODS == ("exact", "cholesky")
    assert cert.sound is True and cert.to_json_dict()["sound"] is True
    cert.validate()
    for method in ("gelfand", "eigensolve"):
        old = certify.Certificate("inf_to_one", 2,
                                  [_step("exact"), _step(method)])
        assert old.sound is False
        with pytest.raises(ValueError, match=f"unknown step method "
                                             f"'{method}'"):
            old.validate()


@pytest.mark.parametrize("method, sound", [
    ("gelfand", True), ("gelfand", False), ("eigensolve", True),
    ("eigensolve", False), ("exact", False), ("cholesky", False)])
def test_certificate_load_refuses_old_steps_and_wrong_sound(method, sound):
    # a loaded gelfand step once validated and counted as sound
    d = certify.Certificate("inf_to_one", 2, [_step(method)]).to_json_dict()
    d["sound"] = sound
    if sound != (method in certify.VALID_METHODS):
        with pytest.raises(ValueError, match="field 'sound' is"):
            certify.Certificate.from_json_dict(d)
    else:
        loaded = certify.Certificate.from_json_dict(d)
        with pytest.raises(ValueError, match="unknown step method"):
            loaded.validate()


def test_audit_refuses_another_kind_or_size():
    # a K4 norm certificate once passed against K3, and a refutation
    # certificate was reported as failed instead of refused
    k4 = certify.inf_to_one_certificate(complete_graph(4))
    with pytest.raises(ValueError, match="for n = 4 against a 3 x 3"):
        certify.audit(complete_graph(3), k4)
    xor = refute.refute_xor(instances.sample_kxor(3, 3, 1.0, seed=0))
    with pytest.raises(ValueError, match="'xor_refutation'"):
        certify.audit(complete_graph(3), xor)


def test_certificate_validate_rejects_bound_mismatch():
    cert = certify.Certificate("inf_to_one", 2, [
        {"name": "s", "claim": "c", "value": 1.0, "method": "exact"},
    ])
    cert.final_bound = 2.0
    with pytest.raises(ValueError):
        cert.validate()


def test_certificate_from_json_keeps_corrupted_bound():
    # lenient load: a tampered bound must survive so audits can fail it
    cert = certify.inf_to_one_certificate(complete_graph(4))
    d = cert.to_json_dict()
    d["final_bound"] = 0.001
    loaded = certify.Certificate.from_json_dict(d)
    assert loaded.final_bound == 0.001
    with pytest.raises(ValueError, match="final_bound does not equal"):
        certify.audit(complete_graph(4), loaded)


def test_audit_validates_the_certificate_first():
    # an invalid norm certificate once got a verdict: this one passed
    # against the brute value 12, and the one whose final_bound is not its
    # last step's value failed
    gelfand = certify.Certificate("inf_to_one", 4, [
        {"name": "s", "claim": "c", "value": 100.0, "method": "gelfand"}])
    assert not gelfand.sound
    with pytest.raises(ValueError, match="unknown step method 'gelfand'"):
        certify.audit(complete_graph(4), gelfand)
    tampered = certify.inf_to_one_certificate(complete_graph(4))
    tampered.final_bound = 100.0
    with pytest.raises(ValueError, match="final_bound does not equal"):
        certify.audit(complete_graph(4), tampered)


def test_audit_reports_every_kind_alike():
    norm = certify.audit(complete_graph(4),
                         certify.inf_to_one_certificate(complete_graph(4)))
    I = instances.sample_kxor(8, 3, 0.3, seed=0)
    xor = refute.refute_xor(I)
    J = instances.sample_csp(instances.predicate_table("3sat"), 8, 3, 0.02,
                             seed=1)
    csp = refute.refute_csp(J)
    report = certify.audit(I, xor)
    assert set(norm) == set(report) == {
        "kind", "n", "certified_bound", "sound_chain", "auditable",
        "brute_force_opt", "passed"}
    assert norm["passed"] and report["passed"]
    assert refute.audit_refutation(I, xor) == report
    assert refute.audit_refutation(J, csp) == certify.audit(J, csp)


def test_audit_reports_infeasible_sizes():
    n = 30
    dense = np.zeros((n, n))
    dense[0, 1] = dense[1, 0] = 1.0
    cert = certify.inf_to_one_certificate(dense, mode="gelfand", z=4)
    report = certify.audit(dense, cert)
    assert report["auditable"] is False
    assert "infeasible" in report["reason"]


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_audit_rejects_malformed_graphs(case):
    weights, message = MALFORMED_GRAPHS[case]
    cert = certify.inf_to_one_certificate(complete_graph(3))
    with pytest.raises(ValueError, match=message):
        certify.audit(np.array(weights), cert)


def test_dual_route_agreement_on_threshold():
    # the same graph certified through both routes gives bounds that both
    # dominate the real spectrum; force the companion route by shrinking
    # the edge cap
    rng = np.random.default_rng(8)
    dense = nonempty_weighted_graph(rng, 6, density=0.8)
    lam_edge = certify.lambda_certificate(dense, mode="gelfand", z=16)
    old = certify.EDGE_ROUTE_CAP
    try:
        certify.EDGE_ROUTE_CAP = 0
        lam_comp = certify.lambda_certificate(dense, mode="gelfand", z=16)
    finally:
        certify.EDGE_ROUTE_CAP = old
    degs = np.abs(dense).sum(axis=1)
    eigs = np.linalg.eigvals(nonbacktracking.companion_matrix(dense, degs))
    real = eigs.real[np.abs(eigs.imag) < 1e-9]
    target = max(1.0, np.max(np.abs(real)) if real.size else 0.0)
    assert lam_edge >= target - 1e-8
    assert lam_comp >= target - 1e-8


def test_companion_route_at_natural_size():
    # a graph past the edge cap takes the companion route unforced: the
    # power bound of the companion matrix of the sign whose first nonzero
    # entry is positive, above its largest absolute real eigenvalue, and
    # the same for +A and -A
    rng = np.random.default_rng(9)
    dense = nonempty_weighted_graph(rng, 60, density=0.8)
    assert 2 * np.count_nonzero(np.triu(dense, 1)) > certify.EDGE_ROUTE_CAP
    degs = np.abs(dense).sum(axis=1)
    lead = dense.ravel()[np.flatnonzero(dense)[0]]
    C = nonbacktracking.companion_matrix(np.sign(lead) * dense, degs)
    lam = certify.lambda_certificate(dense, mode="gelfand", z=16)
    assert lam == max(1.0, linalg.spectral_radius_upper(C, 16))
    assert lam >= certify._max_abs_real_eig(C)
    assert certify.lambda_certificate(-dense, mode="gelfand", z=16) == lam


def _swap_invariant_cases():
    # flattened matrices are exactly invariant under the pair swap: the split
    # main part A' at k = 3 (its pair-diagonal rows are zero) and the full
    # flattened matrix at k = 5 (q = 25, nonzero pair-diagonal rows)
    main, _ = dense_reference.split(
        dense_reference.flatten(instances.sample_kxor(8, 3, 0.5, 0)))
    k5 = dense_reference.flatten(
        instances.XorInstance(5, 5, {(0, 1, 2, 3, 4): -0.7}))
    return [main.base, k5.base]


def test_swap_block_route_through_lambda_certificate():
    # force the companion route on swap-invariant matrices: both signs
    # agree exactly, gelfand mode matches the direct power of the
    # companion matrix and eig mode its inflated eigenvalue bound
    for dense in _swap_invariant_cases():
        degs = np.abs(dense).sum(axis=1)
        C = nonbacktracking.companion_matrix(dense, degs)
        direct = np.linalg.norm(np.linalg.matrix_power(C, 6)) ** (1.0 / 6)
        eig = (1.0 + 1e-6) * certify._max_abs_real_eig(C)
        for mode, want in (("gelfand", direct), ("eig", eig)):
            old = certify.EDGE_ROUTE_CAP
            try:
                certify.EDGE_ROUTE_CAP = 0
                plus = certify.lambda_certificate(dense, mode=mode, z=6)
                minus = certify.lambda_certificate(-dense, mode=mode, z=6)
            finally:
                certify.EDGE_ROUTE_CAP = old
            assert plus == minus
            np.testing.assert_allclose(plus, max(1.0, want), rtol=1e-10)


def test_swap_block_power_bound_survives_rescale():
    # heavy weights at z = 200 rescale the companion matrix's powers on a
    # flattened matrix; the bound must stay finite and dominate the
    # spectral radius
    main = _swap_invariant_cases()[0] * 10.0
    degs = np.abs(main).sum(axis=1)
    C = nonbacktracking.companion_matrix(main, degs)
    val = linalg.spectral_radius_upper(C, 200)
    assert np.isfinite(val)
    rho = np.max(np.abs(np.linalg.eigvals(C)))
    assert val >= rho - 1e-6


def _explicit_power_bound(dense, z):
    """||(B + L - J)^z||_F^(1/z) by np.linalg.matrix_power of the built
    bundle's operator: the reference for the gelfand edge route. The
    operator is first divided by a power of two near its spectral radius,
    which changes no rounding, so heavy weights at large z stay finite."""
    G = nonbacktracking.build(dense)
    M = G.B + G.L - G.J
    rho = np.abs(np.linalg.eigvals(M)).max()
    c = 2.0 ** max(0, int(np.log2(rho))) if rho > 0 else 1.0
    P = np.linalg.matrix_power(M / c, z)
    return c * np.linalg.norm(P) ** (1.0 / z)


def _random_forest(rng, n):
    """+-1 weights on a random forest: B + L - J = B, nilpotent."""
    dense = np.zeros((n, n))
    for v in range(1, n):
        if rng.random() < 0.8:
            u = int(rng.integers(0, v))
            dense[u, v] = dense[v, u] = rng.choice([-1.0, 1.0])
    return dense


def test_gelfand_lambda_matches_explicit_power():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 17))
        dense = nonempty_weighted_graph(rng, n, density=rng.uniform(0.2, 1))
        for z in (1, 2, 3, 6, 12, 16):
            np.testing.assert_allclose(
                certify.lambda_certificate(dense, z=z),
                max(1.0, _explicit_power_bound(dense, z)), rtol=1e-12)
        heavy = 1e3 * dense
        np.testing.assert_allclose(
            certify.lambda_certificate(heavy, z=200),
            max(1.0, _explicit_power_bound(heavy, 200)), rtol=1e-12)


def test_gelfand_power_bound_is_zero_on_signed_forests():
    # a +-1 forest on at most 16 vertices has no nonbacktracking walk of
    # 16 steps: both powers are exactly zero in integer arithmetic
    rng = np.random.default_rng(12)
    for _ in range(20):
        dense = _random_forest(rng, int(rng.integers(2, 17)))
        if not dense.any():
            continue
        assert linalg.spectral_radius_upper(
            nonbacktracking.edge_operator(dense), 16) == 0.0
        assert _explicit_power_bound(dense, 16) == 0.0
        assert certify.lambda_certificate(dense, z=16) == 1.0


def _cap_graph():
    """1024 edges on 64 vertices: 2m is the edge route's cap."""
    n, edges = 64, 1024
    rng = np.random.default_rng(13)
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=edges, replace=False)
    dense = np.zeros((n, n))
    dense[iu[pick], iv[pick]] = rng.uniform(-2.0, 2.0, size=edges)
    return dense + dense.T


@functools.lru_cache(maxsize=None)
def _cap_plus_bound():
    """||(B + L)^16||_F^(1/16) of the cap graph, B + L = T^t S."""
    _, S, T = nonbacktracking.incidence(_cap_graph())
    return linalg.spectral_radius_upper(T.T @ S, 16)


def test_gelfand_lambda_at_the_edge_cap():
    dense = _cap_graph()
    lam = certify.lambda_certificate(dense, z=16)
    np.testing.assert_allclose(
        lam, max(1.0, _explicit_power_bound(dense, 16)), rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-60, 1e100, 1e160])
def test_gelfand_lambda_survives_extreme_weights(scale):
    # the rescaled schedule neither overflows nor underflows at these
    # weights; at 1e-60 the powers are those of -J, so lambda is
    # ||J^16||_F^(1/16) = (2m)^(1/32), and the heavy operators are
    # scale * (B + L) up to J, far below their rounding
    lam = certify.lambda_certificate(scale * _cap_graph(), z=16)
    want = 2048.0 ** (1.0 / 32.0) if scale < 1.0 else scale * _cap_plus_bound()
    np.testing.assert_allclose(lam, want, rtol=1e-12)


def test_edge_operator_equals_built_bundle():
    # eig mode's operator is B + L - J of nonbacktracking.build, bit for bit
    rng = np.random.default_rng(14)
    for _ in range(20):
        dense = nonempty_weighted_graph(rng, int(rng.integers(2, 11)))
        G = nonbacktracking.build(dense)
        np.testing.assert_array_equal(nonbacktracking.edge_operator(dense),
                                      G.B + G.L - G.J)


def test_lambda_never_builds_the_bundle(monkeypatch):
    # both modes assemble their operator from nonbacktracking.incidence;
    # the references, taken before the patch, power and eigensolve the
    # built bundle of the sign whose first nonzero entry is positive
    rng = np.random.default_rng(15)
    graphs = [nonempty_weighted_graph(rng, n) for n in (3, 6, 12, 16)]
    want = []
    for A in graphs:
        A = -A if certify._leads_negative(A) else A
        G = nonbacktracking.build(A)
        eig = certify._max_abs_real_eig(G.B + G.L - G.J) * (1.0 + 1e-6)
        want.append((max(1.0, _explicit_power_bound(A, 8)), max(1.0, eig)))

    def refuse(A):
        raise AssertionError("nonbacktracking.build called")

    monkeypatch.setattr(nonbacktracking, "build", refuse)
    for A, (gelfand, eig) in zip(graphs, want):
        np.testing.assert_allclose(
            certify.lambda_certificate(A, mode="gelfand", z=8), gelfand,
            rtol=1e-12)
        assert certify.lambda_certificate(A, mode="eig") == eig


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _fsum_of(once, twice=()):
    return math.fsum(list(twice) + list(twice) + list(once))


@pytest.mark.parametrize("values", [
    # subnormals: the fixed-point base must sit below 2^-1074
    [5e-324] * 9,
    [1e308, 7e307, 5e-324],
    # a tie at the last place, and the same tie broken far below it
    [1.0, 2.0 ** -53, 2.0 ** -53],
    [1.0, 2.0 ** -53, 2.0 ** -106],
    [1.0, -1.0, 1e-300],
    [-0.5, 2.0 ** -60, -(2.0 ** 900), 2.0 ** 900],
    [],
], ids=repr)
def test_exact_sum_matches_fsum_on_hard_cases(values):
    assert _same_float(certify.exact_sum(np.array(values)), _fsum_of(values))


def test_exact_sum_matches_fsum_across_exponents():
    rng = np.random.default_rng(0)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        values = np.ldexp(rng.uniform(-1.0, 1.0, size),
                          rng.integers(-1074, 1001, size))
        assert _same_float(certify.exact_sum(values),
                           _fsum_of(values.tolist()))
        once, twice = values[:size // 2], np.abs(values[size // 2:])
        assert _same_float(certify.exact_sum(once, twice),
                           _fsum_of(once.tolist(), twice.tolist()))


def test_exact_sum_counts_twice_and_rejects_what_it_cannot_sum():
    assert certify.exact_sum([], [0.1, 0.2]) == math.fsum([0.1, 0.2] * 2)
    assert certify.exact_sum([3.0], []) == 3.0
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            certify.exact_sum(np.array([1.0, bad]))
    # the cap counts an entry of twice two times; a broadcast view keeps
    # the oversized input cheap
    half = np.broadcast_to(1.0, (certify.EXACT_SUM_CAP // 2,))
    with pytest.raises(ValueError, match="exceeds cap"):
        certify.exact_sum([], half)
