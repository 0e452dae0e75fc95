"""Sound certificates for PSD lower bounds and the infinity-to-one norm.

The certified chain: a scale parameter lambda >= 1 dominating the absolute
real spectrum of the oriented-edge operator B + L - J (built from +A and -A;
the two values coincide through an exact signed-diagonal similarity) yields

  A  >=  -lambda Id - (1/lambda)(D - Id)       (PSD witness)
  norm_inf_to_one(A)  <=  2 sum_u |lambda + (deg_u - 1)/lambda|

Two interchangeable routes produce lambda, each from the Frobenius power
bound ||M^z||_F^(1/z) of its operator M:

  * edge route: build B + L - J explicitly (2m x 2m) and bound its spectrum.
    It reads only A's vertices of nonzero degree: relabelling them in
    increasing order keeps the canonical edge order and every sign
    convention of nonbacktracking.build, so B + L - J is the same matrix.
  * companion route: the determinant identity shows the spectrum of B + L - J
    equals the roots of det(x^2 Id - xA + (D - Id)) plus copies of +-1, so
    the companion matrix [[A, -(D-Id)], [Id, 0]] (2n x 2n) carries the same
    information. Powers of the companion follow the three-term recurrence
    P_{j+1} = A P_j - (D-Id) P_{j-1}, which keeps the n=60 pipeline (where
    2m would be in the millions) inside dense-matrix range.

The +-1 eigenvalues sit below the lambda floor of 1, so both routes certify
the same inequality; the route is chosen by edge count and is deterministic.

Swap blocks. When the dimension is q^2 and A is exactly invariant under the
index transpose (i, j) -> (j, i) on the q x q grid (every flattened k = 3
and k >= 5 matrix is), the companion route runs on two diagonal blocks
instead of the full matrix. With lo/hi the grid positions (i, j), i < j, and
their transposes and dg the positions (i, i), the orthonormal basis
(e_lo + e_hi)/sqrt2, e_dg, (e_lo - e_hi)/sqrt2 turns A into

  symmetric block      [[A[lo,lo] + A[lo,hi], sqrt2 A[lo,dg]],
                        [sqrt2 A[dg,lo],      A[dg,dg]     ]]   q(q+1)/2
  antisymmetric block  A[lo,lo] - A[lo,hi]                      q(q-1)/2

and leaves D - Id diagonal (degrees are swap-invariant too); the
refutation pipelines build A[lo,lo] and A[lo,hi] of their split matrix
directly and never the dense A (_inf_to_one_from_swap_parts). The change of
basis is orthogonal, so the companion matrix is orthogonally similar to the
direct sum of the two block companions: the spectra agree, and the
Frobenius norm of a power is the root of the blocks' summed squares. Each
block product costs 1/8 of a full one. Any other input is a single block.

mode="gelfand" (power norms, rigorous up to floating point) is the default
for emitted certificates; mode="eig" uses an uncertified dense eigensolve,
is inflated by (1 + 1e-6), and marks the certificate sound=False.
"""

import math

import numpy as np

from . import linalg
from . import nonbacktracking

EIG_MARGIN = 1e-6
# Maximum oriented-edge count (2m) for the explicit edge-space route.
EDGE_ROUTE_CAP = 2048
VALID_METHODS = ("exact", "eigensolve", "gelfand", "brute")


class Certificate:
    """Ordered list of certified steps; the last step's value is the bound.

    Each step is a dict with keys name, claim, value, method. The sound flag
    is True exactly when no step relies on an uncertified eigensolve.
    Extra fields (meta, informative) carry pipeline metadata for the
    refutation certificates.
    """

    def __init__(self, kind, n, steps, final_bound=None, sound=None,
                 meta=None, informative=None):
        self.kind = str(kind)
        self.n = int(n)
        self.steps = [dict(s) for s in steps]
        if final_bound is None:
            if not self.steps:
                raise ValueError("certificate needs at least one step")
            final_bound = self.steps[-1]["value"]
        self.final_bound = float(final_bound)
        if sound is None:
            sound = all(s.get("method") != "eigensolve" for s in self.steps)
        self.sound = bool(sound)
        self.meta = dict(meta) if meta else {}
        self.informative = informative

    def validate(self):
        """Check internal consistency; raises ValueError on violations."""
        if not self.steps:
            raise ValueError("certificate has no steps")
        for s in self.steps:
            for key in ("name", "claim", "value", "method"):
                if key not in s:
                    raise ValueError(f"step missing field {key!r}: {s}")
            if s["method"] not in VALID_METHODS:
                raise ValueError(f"unknown step method {s['method']!r}")
            if not np.isfinite(s["value"]):
                raise ValueError(f"non-finite step value in {s['name']!r}")
        if self.final_bound != self.steps[-1]["value"]:
            raise ValueError("final_bound does not equal the last step value")
        if self.sound and any(s["method"] == "eigensolve" for s in self.steps):
            raise ValueError("sound certificate contains an eigensolve step")

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "n": self.n,
            "steps": [dict(s) for s in self.steps],
            "final_bound": self.final_bound,
            "sound": self.sound,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.informative is not None:
            out["informative"] = bool(self.informative)
        return out

    @classmethod
    def from_json_dict(cls, d):
        # Deliberately lenient: stored final_bound/sound are kept as-is so a
        # tampered certificate can be loaded and then failed by an audit.
        return cls(d["kind"], d["n"], d["steps"],
                   final_bound=d["final_bound"], sound=d["sound"],
                   meta=d.get("meta"), informative=d.get("informative"))


def _prep(A):
    """Normalize input to (dense, n, degrees, edge_count), validating that A
    is square, symmetric, and zero-diagonal."""
    if isinstance(A, linalg.SymWeightedMatrix):
        return A.to_dense(), A.n, A.degrees(), A.edge_count()
    dense, degs = linalg.symmetric_degrees(A)
    m = sum(int(np.count_nonzero(row[u + 1:])) for u, row in enumerate(dense))
    return dense, dense.shape[0], degs, m


def _leads_negative(dense):
    """True when the first nonzero entry (row-major) is negative. The lambda
    value for A and -A is identical mathematically; computing it from the
    representative whose first nonzero entry is positive makes the equality
    exact in floating point as well."""
    flat = dense.ravel()
    return bool(flat[np.argmax(flat != 0)] < 0)


def _swap_index(q):
    """Row ids of the q x q grid positions lo = (i, j) with i < j, their
    transposes hi = (j, i) and the diagonal dg = (i, i)."""
    a, b = np.triu_indices(q, 1)
    return a * q + b, b * q + a, np.arange(q) * (q + 1)


def _swap_blocks(dense, degs, negate=False):
    """Diagonal blocks [(A_b, degs_b)] of dense (negated when asked) in the
    swap basis of the module docstring: two blocks when the dimension is
    q^2 and dense is exactly transpose-invariant on the q x q grid, else
    one block holding dense itself."""
    dim = dense.shape[0]
    q = math.isqrt(dim)
    grid = dense.reshape(q, q, q, q) if q >= 2 and q * q == dim else None
    if grid is None or not np.array_equal(grid, grid.transpose(1, 0, 3, 2)):
        return [(-dense if negate else dense, degs)]
    lo, hi, dg = _swap_index(q)
    pairs = lo.size
    sym = np.empty((pairs + q, pairs + q))
    sym[:pairs, pairs:] = math.sqrt(2.0) * dense[np.ix_(lo, dg)]
    sym[pairs:, :pairs] = math.sqrt(2.0) * dense[np.ix_(dg, lo)]
    sym[pairs:, pairs:] = dense[np.ix_(dg, dg)]
    return _fill_blocks(sym, dense[np.ix_(lo, lo)], dense[np.ix_(lo, hi)],
                        degs, negate)


def _fill_blocks(sym, ll, lh, degs, negate):
    """Swap blocks from ll = A[lo,lo], lh = A[lo,hi]: ll + lh into the top
    left of sym (its dg part set by the caller), ll - lh over ll."""
    pairs = ll.shape[0]
    lo, _, dg = _swap_index(sym.shape[0] - pairs)
    np.add(ll, lh, out=sym[:pairs, :pairs])
    anti = np.subtract(ll, lh, out=ll)
    if negate:
        np.negative(sym, out=sym)
        np.negative(anti, out=anti)
    return [(sym, degs[np.concatenate([lo, dg])]), (anti, degs[lo])]


def companion_matrix(dense, degs):
    """The 2n x 2n block companion [[A, -(D-Id)], [Id, 0]] whose spectrum is
    the root set of det(x^2 Id - xA + (D - Id))."""
    n = dense.shape[0]
    E = np.diag(degs - 1.0)
    return np.block([[dense, -E],
                     [np.eye(n), np.zeros((n, n))]])


def _max_abs_real_eig(M):
    lo = linalg.min_real_eigenvalue(M)
    hi = linalg.min_real_eigenvalue(-M)
    vals = [abs(v) for v in (lo, hi) if v is not None]
    return max(vals) if vals else 0.0


def _lambda_edge_route(A_sym, mode, z):
    G = nonbacktracking.build(A_sym)
    M = G.B + G.L
    M -= G.J
    # the bundle's own 2m x 2m matrices are dead past this point
    del G
    if mode == "eig":
        return _max_abs_real_eig(M)
    return linalg.spectral_radius_upper(M, z)


def _lambda_companion_route(blocks, mode, z):
    """Spectral bound for the companion of the direct sum of the diagonal
    blocks [(A_b, degs_b)]: the max over block companions in eig mode, else
    ||C^z||_F^(1/z) with the per-block norms combined in the log domain."""
    if mode == "eig":
        return max(_max_abs_real_eig(companion_matrix(a, d))
                   for a, d in blocks)
    logs = np.array([_log_companion_power_norm(a, d, z) for a, d in blocks])
    top = logs.max()
    if top == -np.inf:
        return 0.0
    top += 0.5 * np.log(np.exp(2.0 * (logs - top)).sum())
    return float(np.exp(top / z))


def _companion_power_bound(dense, degs, z):
    """||C^z||_F^(1/z) for the companion matrix C of (dense, degs), run on
    its swap blocks."""
    return _lambda_companion_route(_swap_blocks(dense, degs), "gelfand", z)


def _log_companion_power_norm(dense, degs, z):
    """log ||C^z||_F (-inf when it is 0) for the companion matrix C, via the
    recurrence P_{j+1} = A P_j - (D-Id) P_{j-1} with C^z = [[P_z, -P_{z-1}
    E], [P_{z-1}, -P_{z-2} E]] (E = D - Id). Rescales to avoid overflow.
    dense is only read, never written (P_{z-1} or P_{z-2} may be dense
    itself); the elementwise temporaries go into one scratch block."""
    n = dense.shape[0]
    E = degs - 1.0
    work = np.empty((n, n))
    p_prev2 = np.zeros((n, n))   # P_{z-2}
    p_prev = np.eye(n)           # P_{z-1}
    p_cur = dense                # P_z
    log_scale = 0.0
    for _ in range(int(z) - 1):
        s = max(np.abs(p_cur, out=work).max(), np.abs(p_prev, out=work).max())
        if s > linalg._RESCALE_ABOVE or 0.0 < s < linalg._RESCALE_BELOW:
            p_cur = p_cur / s
            p_prev = p_prev / s
            p_prev2 = p_prev2 / s
            log_scale += np.log(s)
        nxt = dense @ p_cur
        nxt -= np.multiply(E[:, None], p_prev, out=work)
        p_prev2, p_prev, p_cur = p_prev, p_cur, nxt

    def sq_sum(x):
        return np.multiply(x, x, out=work).sum()

    v = np.sqrt(sq_sum(p_cur) + sq_sum(np.multiply(p_prev, E, out=work))
                + sq_sum(p_prev) + sq_sum(np.multiply(p_prev2, E, out=work)))
    if v == 0.0:
        return -np.inf
    return np.log(v) + log_scale


def _lambda(m, negate, dense, blocks, mode, z):
    """lambda for a matrix with m edges whose first nonzero entry is negative
    when negate: the edge route on dense(), the matrix restricted to its
    vertices of nonzero degree, when 2m <= EDGE_ROUTE_CAP, else the companion
    route on blocks(), its swap blocks with the sign applied."""
    if mode not in ("eig", "gelfand"):
        raise ValueError(f"unknown mode {mode!r}; use 'eig' or 'gelfand'")
    if int(z) < 1:
        raise ValueError(f"power count must be >= 1, got {z}")
    if m == 0:
        raise ValueError("empty graph: no edges to certify")
    if 2 * m <= EDGE_ROUTE_CAP:
        A_sym = linalg.as_sym_matrix(dense())
        raw = _lambda_edge_route(A_sym.negated() if negate else A_sym,
                                 mode, z)
    else:
        raw = _lambda_companion_route(blocks(), mode, z)
    if mode == "eig":
        raw = raw * (1.0 + EIG_MARGIN)
    return max(1.0, float(raw))


def _dense_lambda(A, mode, z):
    """(lambda, degrees) of A, validated and normalized by _prep."""
    dense, _, degs, m = _prep(A)
    negate = m > 0 and _leads_negative(dense)
    keep = np.flatnonzero(degs)
    return _lambda(m, negate, lambda: dense[np.ix_(keep, keep)],
                   lambda: _swap_blocks(dense, degs, negate), mode, z), degs


def lambda_certificate(A, mode="gelfand", z=16):
    """Scale parameter lambda >= 1 dominating |real spectrum| of B + L - J
    for both +A and -A.

    mode="gelfand": power-norm bound, rigorous up to floating point.
    mode="eig": dense eigensolve, NOT certified; the value is inflated by
    (1 + 1e-6) and downstream certificates are flagged sound=False.

    Raises ValueError on an empty graph (no edges).
    """
    return _dense_lambda(A, mode, z)[0]


def lowner_witness(A, lam):
    """Smallest eigenvalue of the PSD witness A + lam Id + (1/lam)(D - Id).

    The spectral bound predicts a nonnegative value for any lam produced by
    lambda_certificate (tested down to -1e-8 for eigensolver slack).
    """
    lam = float(lam)
    if lam < 1.0:
        raise ValueError(f"lambda must be at least 1, got {lam}")
    dense, n, degs, _ = _prep(A)
    witness = dense + lam * np.eye(n) + (1.0 / lam) * np.diag(degs - 1.0)
    return linalg.min_eig_symmetric(witness)


def inf_to_one_certificate(A, mode="gelfand", z=16):
    """Certificate for norm_inf_to_one(A) <= 2 sum_u |lambda + (deg_u-1)/lambda|.

    Steps record lambda for both signs of A (equal by the signed-diagonal
    similarity) and the final trace bound. sound=True in gelfand mode.
    """
    return _trace_certificate(*_dense_lambda(A, mode, z), mode)


def _inf_to_one_from_swap_parts(halves, degs, m, negate, mode, z):
    """inf_to_one_certificate, unvalidated, of a swap-invariant A that is
    zero on its dg rows, given as halves = [A[lo,lo], A[lo,hi]], its
    degrees, edge count m and _leads_negative(A). The companion route
    empties halves: A[lo,lo] is overwritten by the antisymmetric block and
    A[lo,hi] is dropped once the blocks are formed, so without another
    reference it is freed before the recurrence."""
    q = math.isqrt(degs.size)

    def dense():
        # A[keep, keep] for keep the vertices of nonzero degree: the same
        # pairs among lo and hi, as degrees are swap-invariant
        ll, lh = halves
        lo, hi, _ = _swap_index(q)
        pick = np.flatnonzero(degs[lo])
        keep = np.sort(np.concatenate([lo[pick], hi[pick]]))
        a, b = np.searchsorted(keep, lo[pick]), np.searchsorted(keep, hi[pick])
        out = np.zeros((keep.size, keep.size))
        out[np.ix_(a, a)] = out[np.ix_(b, b)] = ll[np.ix_(pick, pick)]
        out[np.ix_(a, b)] = out[np.ix_(b, a)] = lh[np.ix_(pick, pick)]
        return out

    def blocks():
        ll, lh = halves
        halves.clear()
        dim = ll.shape[0] + q
        return _fill_blocks(np.zeros((dim, dim)), ll, lh, degs, negate)

    return _trace_certificate(
        _lambda(m, negate, dense, blocks, mode, z), degs, mode)


def _trace_certificate(lam, degs, mode):
    method = "eigensolve" if mode == "eig" else "gelfand"
    bound = 2.0 * float(np.abs(lam + (degs - 1.0) / lam).sum())
    steps = [
        {"name": "lambda_plus",
         "claim": "lambda dominates the absolute real spectrum of the "
                  "oriented-edge operator built from +A",
         "value": lam, "method": method},
        {"name": "lambda_minus",
         "claim": "lambda dominates the absolute real spectrum of the "
                  "oriented-edge operator built from -A (identical value "
                  "by signed-diagonal similarity)",
         "value": lam, "method": method},
        {"name": "trace_bound",
         "claim": "norm_inf_to_one(A) <= 2 * sum_u |lambda + (deg_u - 1)/lambda|",
         "value": bound, "method": "exact"},
    ]
    return Certificate("inf_to_one", degs.size, steps)


def audit(A, cert):
    """Cross-check a certificate against the exact brute-force norm.

    Returns a report dict; passed means final_bound >= brute value. When the
    brute oracle is infeasible for A's size the report is marked not
    auditable instead of guessing.
    """
    dense = linalg.as_dense(A)
    try:
        brute = linalg.brute_inf_to_one(dense)
    except ValueError as exc:
        return {"auditable": False, "status": "not auditable",
                "reason": str(exc), "final_bound": cert.final_bound}
    passed = bool(cert.final_bound >= brute)
    slack = cert.final_bound / brute if brute > 0 else float("inf")
    return {"auditable": True, "passed": passed, "brute_value": brute,
            "final_bound": cert.final_bound, "slack": slack}
