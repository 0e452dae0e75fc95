"""Refutation pipelines: flatten an instance's tensor to a matrix, split it
into a certified part and an entrywise-bounded remainder, and combine the
pieces into an upper bound on the optimum value.

The k-XOR chain (k odd) is

    A   = flatten(I)                  V V^T for the n^(k-1) x n unfolding V,
                                      its middle half-indices swapped
    A', A'' = split(A)                A' keeps entries whose two tensor-factor
                                      index groups barely overlap; A'' is the
                                      rest, so A = A' + A'' exactly
    b1  = inf_to_one certificate(A')  from the two swap blocks of A'
    b2  = sum of |entries| of A''
    N   = sqrt(n * (b1 + b2))         bound on max_x <T, x^(k)>
    U   = 1/2 + N / (2 m k!)          clamped to 1

and opt(I) <= U for every assignment; the pipelines never hold A, as row
slabs of V V^T go straight into A''s swap blocks, its degrees and b2. The
CSP(P) chain decomposes P into its multilinear expansion, bounds each
degree-d part (0 < d < k) by a spectral norm of its coefficient matrix
scaled by n^(d/2), and routes the degree-k part through the XOR chain after
aggregating constraints by support into a rescaled weighted XOR instance.
"""

import itertools
import math

import numpy as np

from . import certify
from . import instances
from . import linalg

FLATTEN_DIM_CAP = 6561
# Largest swap block q(q+1)/2 the pipelines certify: k = 3 at n = 120.
BLOCK_DIM_CAP = 7260
# Bytes of one row slab of the unfolding product V V^T.
SLAB_BYTES = 1 << 25


class FlattenedMatrix:
    """Dense square matrix indexed by pairs of (k-1)/2-tuples.

    Row ids are the row-major ranks of the concatenated tuple (alpha, beta)
    over [n]^(k-1); for k = 3 that is simply alpha * n + beta.
    """

    def __init__(self, base, n, k):
        base = np.asarray(base, dtype=float)
        self.n = int(n)
        self.k = int(k)
        self.half = (self.k - 1) // 2
        dim = self.n ** (self.k - 1)
        if base.shape != (dim, dim):
            raise ValueError(
                f"expected shape {(dim, dim)} for n={n}, k={k}, "
                f"got {base.shape}")
        self.base = base

    @property
    def dim(self):
        return self.base.shape[0]

    def row_of(self, alpha, beta):
        """Row id of the pair (alpha, beta) of (k-1)/2-tuples."""
        tup = tuple(alpha) + tuple(beta)
        for i in tup:
            if not (0 <= i < self.n):
                raise ValueError(f"index {i} out of range for n={self.n}")
        return _tuple_rank(tup, self.n)

    def pair_of(self, row):
        digits = tuple(int(d) for d in np.unravel_index(
            int(row), (self.n,) * (self.k - 1)))
        return digits[:self.half], digits[self.half:]


def _tuple_rank(tup, n):
    rank = 0
    for i in tup:
        rank = rank * n + int(i)
    return rank


def _require_odd_arity(k):
    if k % 2 == 0:
        raise ValueError(
            f"even arity k={k} is unsupported: flattening needs odd k")


def _unfolding(I):
    """The n^(k-1) x n unfolding V of the instance tensor: V[(alpha, alpha'),
    l] = w for every clause, every index l of it and every ordering of its
    other k-1 indices into two (k-1)/2-tuples (alpha, alpha'). Then
    A[(alpha,beta),(alpha',beta')] = (V V^T)[(alpha,alpha'),(beta,beta')].
    Each entry of V comes from one clause, so it is assigned, not summed."""
    n, k = I.n, I.k
    tups = np.array(list(I.clauses), dtype=np.int64).reshape(-1, k)
    weights = np.array(list(I.clauses.values()), dtype=float)
    place = n ** np.arange(k - 2, -1, -1)
    V = np.zeros((n ** (k - 1), n))
    for j in range(k):
        rest = np.delete(tups, j, axis=1)
        for perm in itertools.permutations(range(k - 1)):
            V[rest[:, list(perm)] @ place, tups[:, j]] = weights
    return V


def _digits(n, k):
    """Base-n digits (most significant first) of the n^(k-1) row ids."""
    place = n ** np.arange(k - 2, -1, -1)
    return np.arange(n ** (k - 1))[:, None] // place % n


def _overlap_at_least(left, right, h, n):
    """Boolean matrix: digit row i of left and digit row j of right share at
    least h indices. Rows of V that hold a clause fragment have distinct
    digits, and there the count of digits of j found in i is the overlap."""
    member = np.zeros((len(left), n), dtype=np.int8)
    member[np.arange(len(left))[:, None], left] = 1
    return sum(member[:, column] for column in right.T) >= h


def _swap_middle(x, q):
    """Rows of V V^T over (alpha, alpha') x (beta, beta') rearranged as the
    rows of A over (alpha, beta) x (alpha', beta'), as a new array."""
    return x.reshape(-1, q, q, q).transpose(0, 2, 1, 3).reshape(x.shape)


def _slabs(V, q):
    """Row slabs of V V^T, one BLAS product per chunk of first half-indices
    alpha, each at most SLAB_BYTES: yields (a0, a1, rows a0*q .. a1*q-1)."""
    step = max(1, SLAB_BYTES // (8 * q * len(V)))
    for a0 in range(0, q, step):
        a1 = min(q, a0 + step)
        yield a0, a1, V[a0 * q:a1 * q] @ V.T


def flatten(I):
    """Flatten the instance tensor to the dense matrix
    A[(alpha,beta),(alpha',beta')] = sum_l T(alpha,alpha',l) T(beta,beta',l)
    for k = 3, and the analogous split over middle indices for larger odd k:
    the unfolding product V V^T with its two middle half-indices swapped,
    symmetric with zero diagonal. The reference definition: the pipelines
    build only what they read of it (_swap_parts)."""
    n, k = I.n, I.k
    _require_odd_arity(k)
    dim = n ** (k - 1)
    if dim > FLATTEN_DIM_CAP:
        raise ValueError(
            f"flatten infeasible: dense dimension {dim} exceeds cap "
            f"{FLATTEN_DIM_CAP}")
    q = n ** ((k - 1) // 2)
    base = np.empty((dim, dim))
    for a0, a1, slab in _slabs(_unfolding(I), q):
        base[a0 * q:a1 * q] = _swap_middle(slab, q)
    return FlattenedMatrix(base, n, k)


def split(F):
    """Split A into (A', A'') by the overlap of the two tensor-factor index
    groups: an entry at row (alpha, beta), column (alpha', beta') stays in
    A' exactly when the multisets {alpha, alpha'} and {beta, beta'} share at
    most (k-3)/2 indices. A' + A'' = A exactly.
    """
    digits = _digits(F.n, F.k)
    drop = _swap_middle(_overlap_at_least(digits, digits, F.half, F.n),
                        F.n ** F.half)
    main = np.where(drop, 0.0, F.base)
    return (FlattenedMatrix(main, F.n, F.k),
            FlattenedMatrix(F.base - main, F.n, F.k))


def _swap_parts(I):
    """What the XOR chain reads of the split flatten(I) = A' + A'', built
    from row slabs of V V^T without the dense matrix: A'[lo,lo] and
    A'[lo,hi] in certify's swap-block layout, the degrees of A' in row
    order, its edge count, whether its first nonzero entry (row-major) is
    negative, and b2 = sum |A''|. On a slab the split condition reads: the
    row's and the column's fragments share at least (k-1)/2 indices."""
    n, h = I.n, (I.k - 1) // 2
    q = n ** h
    if q * (q + 1) // 2 > BLOCK_DIM_CAP:
        raise ValueError(
            f"refutation infeasible: swap block dimension {q * (q + 1) // 2} "
            f"exceeds cap {BLOCK_DIM_CAP}")
    digits = _digits(n, I.k)
    lo, hi, _ = certify._swap_index(q)
    ll = np.empty((lo.size, lo.size))
    lh = np.empty((lo.size, lo.size))
    degs = np.empty(q * q)
    residual = []
    nnz = 0
    negate = False
    for a0, a1, slab in _slabs(_unfolding(I), q):
        drop = np.flatnonzero(
            _overlap_at_least(digits[a0 * q:a1 * q], digits, h, n))
        flat = slab.reshape(-1)
        residual.append(flat[drop])
        flat[drop] = 0.0
        rows = _swap_middle(slab, q)
        degs[a0 * q:a1 * q] = np.abs(rows, out=slab).sum(axis=1)
        if nnz == 0:
            negate = certify._leads_negative(rows)
        nnz += np.count_nonzero(rows)
        i0, i1 = np.searchsorted(lo // q, [a0, a1])
        local = lo[i0:i1] - a0 * q
        ll[i0:i1] = rows[np.ix_(local, lo)]
        lh[i0:i1] = rows[np.ix_(local, hi)]
    return ll, lh, degs, nnz // 2, negate, _abs_fsum(np.concatenate(residual))


def _abs_fsum(values):
    """Correctly rounded sum of |values|: independent of order and slabs."""
    return math.fsum(np.abs(values[values != 0]).tolist())


def residual_bound(F):
    """Entrywise bound sum |A''_ij| (correctly rounded) on ||A''||_inf->1."""
    return _abs_fsum(F.base)


def _step(name, claim, value, method="exact"):
    return {"name": name, "claim": claim, "value": value, "method": method}


def _xor_chain(I, mode, z, prefix):
    """The XOR chain's steps through b2 and sqrt(n (b1 + b2)). Step names
    start with prefix; A''s certificate steps with prefix or "main_"."""
    # halves = [A'[lo,lo], A'[lo,hi]], handed over so that A'[lo,hi] is
    # freed once the certificate has formed the swap blocks
    *halves, degs, m, negate, b2 = _swap_parts(I)
    if m == 0:
        b1 = 0.0
        steps = [_step(f"{prefix}main_empty", "the split kept no entries, "
                       "so norm_inf_to_one(A') = 0", 0.0)]
    else:
        cert1 = certify._inf_to_one_from_swap_parts(halves, degs, m, negate,
                                                    mode, z)
        b1 = cert1.final_bound
        steps = [dict(s, name=(prefix or "main_") + s["name"])
                 for s in cert1.steps]
    steps.append(_step(f"{prefix}residual_bound",
                       "norm_inf_to_one(A'') <= sum of |entries| of A''", b2))
    return steps, math.sqrt(I.n * (b1 + b2))


def refute_xor(I, mode="gelfand", z=16):
    """Certified upper bound on the optimum of a k-XOR instance (k odd).

    Returns a Certificate of kind xor_refutation whose final bound U
    satisfies opt(I) <= U, with U < 1 flagged as informative. mode and z are
    passed through to the spectral certificates; mode "eig" marks the
    certificate unsound.
    """
    _require_odd_arity(I.k)
    if I.m == 0:
        raise ValueError("no clauses to refute")
    steps, poly = _xor_chain(I, mode, z, "")
    steps.append(_step("polynomial_bound",
                       "max_x <T, x^(k)> <= sqrt(n * (bound(A') + "
                       "bound(A''))) over sign assignments", poly))
    return _refutation(
        "xor_refutation", I, steps,
        0.5 + poly / (2.0 * I.m * math.factorial(I.k)),
        "opt(I) <= 1/2 + polynomial_bound / (2 m k!), clamped to 1",
        mode, z, split_condition=("entry kept when the two tensor-factor "
                                  "index multisets share at most (k-3)/2 "
                                  "indices"))


def _refutation(kind, I, steps, raw, claim, mode, z, **extra_meta):
    """Certificate of I: steps, then opt_bound = min(1, raw) with claim."""
    bound = min(1.0, raw)
    steps.append(_step("opt_bound", claim, bound))
    meta = dict(mode=mode, z=z, n=I.n, k=I.k, m=I.m,
                clamped=bool(raw > 1.0), **extra_meta)
    return certify.Certificate(kind, I.n, steps, meta=meta,
                               informative=bool(bound < 1.0))


def flatten_degree_d(I, d, fourier=None):
    """Degree-d coefficient matrix of a CSP instance: an n^floor(d/2) by
    n^ceil(d/2) matrix M with, for every constraint (alpha, c) and every
    size-d index set S, the value chat_S prod_{i in S} c_i added at the row
    of alpha's first floor(d/2) sorted-S positions and the column of the
    rest."""
    k = I.k
    if not (1 <= d < k):
        raise ValueError(f"degree d must satisfy 1 <= d < k, got {d}")
    if fourier is None:
        fourier = instances.fourier_decompose(I.truth_table)
    part = fourier.degree_part(d)
    a = d // 2
    b = d - a
    rows = I.n ** a
    cols = I.n ** b
    M = np.zeros((rows, cols))
    if not part:
        return M
    items = sorted(part.items())
    for alpha, c in I.constraints:
        for S, chat in items:
            if chat == 0.0:
                continue
            coef = chat
            for i in S:
                coef *= c[i]
            positions = [alpha[i] for i in S]
            r = _tuple_rank(positions[:a], I.n)
            q = _tuple_rank(positions[a:], I.n)
            M[r, q] += coef
    return M


def specnorm_upper(M, z=16):
    """Certified upper bound on the spectral norm: the smallest of the
    Frobenius norm, sqrt(max abs row sum * max abs col sum), and the z-th
    root bound sqrt(||(M^T M)^z||_F^(1/z)).

    Returns (value, method) where method is "gelfand" when the power bound
    won and "exact" otherwise.
    """
    M = np.asarray(M, dtype=float)
    fro = linalg.frobenius(M)
    absM = np.abs(M)
    rowcol = math.sqrt(absM.sum(axis=1).max() * absM.sum(axis=0).max())
    gram = M.T @ M
    gel = math.sqrt(linalg.spectral_radius_upper(gram, z))
    best = min(fro, rowcol, gel)
    method = "gelfand" if gel < min(fro, rowcol) else "exact"
    return best, method


def refute_csp(I, mode="gelfand", z=16):
    """Certified upper bound on the optimum of a CSP(P) instance.

    U = chat_empty + (1/m) [ sum_{0<d<k} n^(d/2) specnorm_upper(M_d)
                             + degree-k bound ]
    where the degree-k part aggregates non-degenerate constraints by
    support into a weighted XOR instance (rescaled so |weights| <= 1, the
    rescale factor carried as a step), runs the XOR polynomial bound on it,
    and adds |chat_k| for each constraint whose scope repeats an index.
    """
    _require_odd_arity(I.k)
    if I.m == 0:
        raise ValueError("no constraints to refute")
    n, k = I.n, I.k
    fourier = instances.fourier_decompose(I.truth_table)
    p0 = fourier.coefficient(())
    steps = [_step("mean_value", "the predicate mean contributes chat_empty "
                   "to every assignment's value", p0)]
    total = 0.0
    for d in range(1, k):
        part = fourier.degree_part(d)
        if not any(v != 0.0 for v in part.values()):
            continue
        M = flatten_degree_d(I, d, fourier)
        s_d, method = specnorm_upper(M, z=z)
        term = (n ** (d / 2.0)) * s_d
        total += term
        steps.append(_step(
            f"degree_{d}_matrix_bound",
            f"the degree-{d} part of the value is bounded by n^({d}/2) times "
            f"a certified spectral-norm bound on its coefficient matrix",
            term, method))
    chat_k = fourier.coefficient(tuple(range(k)))
    if chat_k == 0.0:
        steps.append(_step("degree_k_skipped", "the top Fourier coefficient "
                           "vanishes, so the degree-k part contributes "
                           "nothing", 0.0))
        bound_k = 0.0
    else:
        supp_w = {}
        degenerate = 0
        for alpha, c in I.constraints:
            if len(set(alpha)) != k:
                degenerate += 1
                continue
            key = tuple(sorted(alpha))
            supp_w[key] = supp_w.get(key, 0.0) + chat_k * math.prod(c)
        supp_w = {key: w for key, w in supp_w.items() if w != 0.0}
        bound_k = 0.0
        if supp_w:
            W = max(abs(w) for w in supp_w.values())
            steps.append(_step("degree_k_rescale", "aggregated support "
                               "weights are divided by their max magnitude "
                               "before flattening; the factor multiplies "
                               "the resulting bound", W))
            tilde = {key: w / W for key, w in supp_w.items()}
            chain, poly = _xor_chain(instances.XorInstance(n, k, tilde),
                                     mode, z, "degree_k_")
            steps += chain
            bound_k = W * poly / math.factorial(k)
            steps.append(_step("degree_k_bound", "the non-degenerate "
                               "degree-k contribution is at most W * "
                               "sqrt(n (b1 + b2)) / k!", bound_k))
        if degenerate:
            extra = abs(chat_k) * degenerate
            bound_k += extra
            steps.append(_step("degree_k_degenerate", "each constraint whose "
                               "scope repeats an index contributes at most "
                               "|chat_k|", extra))
    return _refutation("csp_refutation", I, steps,
                       p0 + (total + bound_k) / I.m,
                       "opt(I) <= chat_empty + (sum of degree bounds) / m, "
                       "clamped to 1", mode, z)


def audit_refutation(I, cert, max_n=instances.BRUTE_ASSIGN_CAP):
    """Check a refutation certificate against the exact brute-force optimum.

    Returns a report dict with the recomputed optimum, the certified bound,
    and whether the bound dominates. Instances beyond the enumeration cap
    yield auditable=False instead of a verdict.
    """
    cert.validate()
    if cert.kind == "xor_refutation":
        compute = instances.brute_opt
    elif cert.kind == "csp_refutation":
        compute = instances.csp_brute_opt
    else:
        raise ValueError(
            f"cannot audit certificate of kind {cert.kind!r}")
    report = {
        "kind": cert.kind,
        "n": cert.n,
        "certified_bound": cert.final_bound,
        "sound_chain": cert.sound,
    }
    try:
        opt = compute(I, max_n=max_n)
    except ValueError as exc:
        report["auditable"] = False
        report["reason"] = str(exc)
        return report
    report["auditable"] = True
    report["brute_force_opt"] = opt
    report["passed"] = bool(cert.final_bound >= opt - 1e-12)
    return report
