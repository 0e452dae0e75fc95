"""The benchmark's workloads: each turns a seed into a fixed list of ops.

An op is one timed call into nbrefute's public entry points. Its result is
checked only after the pass's clock has stopped. Every certificate is made
in sound (gelfand) mode. The package sees only the generated instances,
never the seed.
"""

import contextlib
import io
import json
import os

import numpy as np

from nbrefute import certify, cli, instances, nonbacktracking, refute, walks

import soundness
from soundness import CheckFailed

IHARA_BASS_TOL = 1e-8   # acceptance criterion 1
RHO_SLACK = 1e-9


class Op:
    """One call into the package and the check of its result.

    kind is "cert" for refute_xor / refute_csp (their latency is
    cert_s), "audit" for brute-force audits (audit_s) and "other"
    otherwise. call(state) returns the result; check(result, state)
    raises CheckFailed or returns facts about it (digest, bound,
    informative, residual_share). state is shared by the ops of one pass,
    so an audit can read the certificate its refutation made.
    """

    def __init__(self, name, kind, call, check, instance=None):
        self.name = name
        self.kind = kind
        self.call = call
        self.check = check
        # Instance whose local-search lower bound the check compares with;
        # the harness fills lower_bound in after set-up.
        self.instance = instance
        self.lower_bound = None


def sub_seed(seed, *labels):
    """Independent 32-bit seed for one instance of a workload."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def residual_share(cert):
    """b2 / (b1 + b2) from a refutation's steps: the share of the flattened
    bound that comes from the entrywise-bounded remainder A''."""
    values = {s["name"]: s["value"] for s in cert.steps}
    for prefix, resid in (("main_", "residual_bound"),
                          ("degree_k_", "degree_k_residual_bound")):
        if resid in values:
            b1 = values.get(prefix + "trace_bound", 0.0)
            b2 = values[resid]
            return b2 / (b1 + b2) if b1 + b2 > 0 else None
    return None


def cert_facts(cert):
    return {"digest": soundness.digest(cert.to_json_dict()),
            "bound": cert.final_bound,
            "informative": bool(cert.informative),
            "residual_share": residual_share(cert)}


def refutation_op(name, I, z, local_search):
    """refute_xor or refute_csp on I. With local_search the bound is also
    checked against the harness's own lower bound on opt."""
    # Looked up at call time, so a tracer's wrapper is the one called.
    fn_name = "refute_xor" if hasattr(I, "clauses") else "refute_csp"

    def call(state):
        cert = getattr(refute, fn_name)(I, mode="gelfand", z=z)
        state[name] = cert
        return cert

    def check(cert, state):
        soundness.check_certificate(cert, op.lower_bound)
        return cert_facts(cert)

    op = Op(name, "cert", call, check,
            instance=I if local_search else None)
    return op


def refutation_audit_op(cert_name, I):
    def call(state):
        return refute.audit_refutation(I, state[cert_name])

    def check(report, state):
        if not (report.get("auditable") and report.get("passed")):
            raise CheckFailed(f"audit did not pass: {report}")
        if not report.get("sound_chain"):
            raise CheckFailed("audited certificate is not sound")
        return {}

    return Op(cert_name + "/audit", "audit", call, check)


def random_weighted_graph(rng, n):
    """Symmetric zero-diagonal matrix, each pair an edge with probability
    1/2, weights uniform in [-2, 2] kept at least 1e-3 away from zero; never
    empty."""
    while True:
        w = rng.uniform(-2.0, 2.0, size=(n, n))
        w = np.where(np.abs(w) < 1e-3, np.copysign(1e-3, w), w)
        keep = rng.random((n, n)) < 0.5
        dense = np.triu(np.where(keep, w, 0.0), 1)
        if np.count_nonzero(dense):
            return dense + dense.T


def norm_ops(rng, count):
    ops = []
    for i in range(count):
        A = random_weighted_graph(rng, int(rng.integers(4, 17)))
        name = f"inf_to_one/{i}"

        def call(state, A=A, name=name):
            cert = certify.inf_to_one_certificate(A, mode="gelfand", z=16)
            state[name] = cert
            return cert

        def check(cert, state):
            soundness.check_certificate(cert)
            return {"digest": soundness.digest(cert.to_json_dict())}

        def audit_call(state, A=A, name=name):
            return certify.audit(A, state[name])

        def audit_check(report, state):
            if not (report.get("auditable") and report.get("passed")):
                raise CheckFailed(f"norm audit did not pass: {report}")
            return {}

        ops.append(Op(name, "other", call, check))
        ops.append(Op(name + "/audit", "audit", audit_call, audit_check))
    return ops


def edge_route_op(seed):
    """inf_to_one_certificate on a random weighted graph with exactly 1024
    edges: 2m = 2048 is the edge route's cap at this commit, so this is
    the largest explicit B + L - J the package builds, and it fixes desk's
    peak RSS instead of leaving it to whichever sampled instance happens
    to come closest to the cap. Past brute-force size, so the bound is
    checked against an alternating-sign lower bound on the norm."""
    n, edges = 64, 1024
    rng = np.random.default_rng(sub_seed(seed, 600))
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=edges, replace=False)
    w = rng.uniform(-2.0, 2.0, size=edges)
    w = np.where(np.abs(w) < 1e-3, np.copysign(1e-3, w), w)
    A = np.zeros((n, n))
    A[iu[pick], iv[pick]] = w
    A = A + A.T

    def call(state):
        return certify.inf_to_one_certificate(A, mode="gelfand", z=16)

    def check(cert, state):
        lb = soundness.inf_to_one_lower_bound(A, sub_seed(seed, 601))
        soundness.check_certificate(cert, lb)
        return {"digest": soundness.digest(cert.to_json_dict())}

    return Op("inf_to_one/edge-route-cap", "other", call, check)


def json_digest(obj):
    return {"digest": soundness.digest({"result": obj})}


def ihara_bass_op(rng, count):
    cases = [(random_weighted_graph(rng, int(rng.integers(3, 9))),
              float(rng.uniform(-0.9, 0.9))) for _ in range(count)]

    def call(state):
        return [nonbacktracking.ihara_bass_residual(A, u) for A, u in cases]

    def check(residuals, state):
        worst = max(residuals)
        if not worst <= IHARA_BASS_TOL:
            raise CheckFailed(f"determinant identity residual {worst:.3e}")
        return {}

    return Op("ihara_bass_residual", "other", call, check)


def rho_op(seed):
    seeds = [sub_seed(seed, 900, i) for i in range(20)]

    def call(state):
        return walks.rho_B_experiment(200, 9.0, seeds)

    def check(report, state):
        records = report["records"]
        if len(records) != len(seeds):
            raise CheckFailed(f"{len(records)} records for {len(seeds)} seeds")
        for r in records:
            if not r["gelfand_z"] >= r["rho_B"] * (1.0 - RHO_SLACK):
                raise CheckFailed(f"power bound below spectral radius: {r}")
        return json_digest(report)

    return Op("rho_B_experiment", "other", call, check)


CENSUS_GRID = [(q, z, v, e, t)
               for q in range(1, 7) for z in range(1, 7) if q * z <= 6
               for v in range(2, 6) for e in range(v - 1, q * z + 1)
               for t in (1, 2)]


def census_op():
    def call(state):
        return [walks.count_canonical(q, z, v, e, t)
                for q, z, v, e, t in CENSUS_GRID]

    def check(counts, state):
        for point, count in zip(CENSUS_GRID, counts):
            if count > walks.canonical_count_bound(*point):
                raise CheckFailed(f"census ceiling violated at {point}")
        return json_digest(counts)

    return Op("census", "other", call, check)


def cli_ops(workdir, seed):
    """gen -> refute -> audit through cli.main, in process."""
    inst = os.path.join(workdir, "inst.json")
    cert = os.path.join(workdir, "cert.json")
    argvs = {
        "gen": ["gen", "--kind", "xor", "--n", "16", "--k", "3",
                "--p", "0.3", "--seed", str(sub_seed(seed, 800)),
                "--out", inst],
        "refute": ["refute", "--in", inst, "--z", "16", "--out", cert],
        "audit": ["audit", "--in", inst, "--cert", cert],
    }
    ops = []
    for sub, argv in argvs.items():
        def call(state, argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result, state, sub=sub):
            code, out = result
            if code != 0:
                raise CheckFailed(f"cli {sub} exited {code}: {out}")
            if sub == "refute":
                with open(cert) as fh:
                    return {"digest": soundness.digest(json.load(fh))}
            if sub == "audit" and not json.loads(out).get("passed"):
                raise CheckFailed(f"cli audit did not pass: {out}")
            return {}

        ops.append(Op(f"cli/{sub}", "other", call, check))
    return ops


# Each workload maps (seed, workdir) to its op list. Sampling happens here,
# so it is part of set-up, not of the timed passes.

def xor_n60(seed, workdir):
    # The criterion-10 traffic: random 3-XOR at n = 60, one instance at each
    # of densities 10, 40 and 80 n^-1.5, z = 6. The lambda power recurrence
    # on 3600-dim dense matrices (104 MB each) is most of every
    # certificate; flatten grows with nnz, so density 80 has the largest
    # share of it. It stresses certify, refute and linalg memory traffic,
    # and sets the largest peak RSS of the three workloads (the per-layer
    # split and the RSS are in BASELINE.md). Past brute-force scale, so each
    # bound is checked against the harness's local-search lower bound.
    n = 60
    return [refutation_op(f"xor-n60/d{mult}",
                          instances.sample_kxor(n, 3, mult * n ** -1.5,
                                                sub_seed(seed, i)),
                          z=6, local_search=True)
            for i, mult in enumerate((10, 40, 80))]


def csp_n40(seed, workdir):
    # CSP at n = 40, z = 6: 3-SAT at p = 0.01 and 0.03 (m about 5.1k and
    # 15.4k) and parity at p = 0.01. It takes the refute chain the other
    # way: the degree-k part becomes a weighted XOR instance with rescaled,
    # non-±1 weights that runs the second copy of the XOR chain at dim 1600
    # (20 MB). It also exercises sample_csp over n^k 2^k candidates,
    # flatten_degree_d and specnorm_upper. Parity has only the degree-k
    # part, so a change that helps only the degree-<k terms should show no
    # change on it.
    n = 40
    sat = instances.predicate_table("3sat")
    parity = instances.predicate_table("parity")
    specs = (("3sat-p01", sat, 0.01), ("3sat-p03", sat, 0.03),
             ("parity-p01", parity, 0.01))
    return [refutation_op(f"csp-n40/{label}",
                          instances.sample_csp(table, n, 3, p,
                                               sub_seed(seed, i)),
                          z=6, local_search=True)
            for i, (label, table, p) in enumerate(specs)]


# Replicates per desk cell: the n = 20 audits take most of desk's pass
# (BASELINE.md), smaller ones are cheap, so small n is repeated to steady
# informative_frac and cert_s_p50 across seeds.
DESK_REPLICATES = {12: 8, 16: 8, 20: 1}


def desk(seed, workdir):
    # Everything at n <= 20, with flattened matrices of dim <= 400: the
    # big-matrix lambda recurrence that dominates xor-n60 does little here,
    # so a change to it should predict no change. The brute-force oracles
    # csp_brute_opt and brute_opt at n = 20 dominate (BASELINE.md), so a
    # change to them should predict no change on the other two workloads.
    # It is the only workload that runs the edge route through
    # nonbacktracking.build (up to its 2m = 2048 cap), and the only one
    # covering walks, nonbacktracking and cli.
    sat = instances.predicate_table("3sat")
    light = {}   # replicate -> refute/audit op pairs of its n < 20 cells
    heavy = []   # op groups that take seconds each
    label = 0
    for n, reps in DESK_REPLICATES.items():
        for r in range(reps):
            cells = [(f"xor-n{n}-p{p}-r{r}",
                      lambda s, n=n, p=p: instances.sample_kxor(n, 3, p, s))
                     for p in (0.1, 0.3)]
            cells.append((f"3sat-n{n}-r{r}",
                          lambda s, n=n: instances.sample_csp(sat, n, 3,
                                                              0.008, s)))
            for name, sample in cells:
                label += 1
                I = sample(sub_seed(seed, 100 + label))
                pair = [refutation_op(f"desk/{name}", I, z=16,
                                      local_search=False),
                        refutation_audit_op(f"desk/{name}", I)]
                if n < 20:
                    light.setdefault(r, []).extend(pair)
                else:
                    heavy.append(pair)
    rng = np.random.default_rng(sub_seed(seed, 700))
    heavy += [norm_ops(rng, 50), [edge_route_op(seed)], [rho_op(seed)],
              [ihara_bass_op(rng, 100), census_op()], cli_ops(workdir, seed)]
    # The small refutations are spread over the whole pass, between the
    # heavy groups, so cert_s_p50 samples the machine over the pass rather
    # than over its first few seconds.
    ops = []
    for i in range(max(len(light), len(heavy))):
        ops += light.get(i, [])
        ops += heavy[i] if i < len(heavy) else []
    return ops


WORKLOADS = {"xor-n60": xor_n60, "csp-n40": csp_n40, "desk": desk}


def warm_up():
    """One tiny untimed certificate, so lazy import and BLAS work is done
    before any timed pass."""
    I = instances.sample_kxor(8, 3, 0.5, 0)
    refute.refute_xor(I, mode="gelfand", z=4)
