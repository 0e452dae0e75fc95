"""Refutation pipelines: flatten an instance's tensor to a matrix, split it
into a certified part and an entrywise-bounded remainder, and combine the
pieces into an upper bound on the optimum value.

The k-XOR chain (k odd) is

    A   = flatten(I)                  square matrix over (k-1)/2-tuple pairs
    A', A'' = split(A)                A' keeps entries whose two tensor-factor
                                      index groups barely overlap; A'' is the
                                      rest, so A = A' + A'' exactly
    b1  = inf_to_one certificate(A')
    b2  = sum of |entries| of A''
    N   = sqrt(n * (b1 + b2))         bound on max_x <T, x^(k)>
    U   = 1/2 + N / (2 m k!)          clamped to 1

and opt(I) <= U for every assignment. The CSP(P) chain decomposes P into
its multilinear expansion, bounds each degree-d part (0 < d < k) by a
spectral norm of its coefficient matrix scaled by n^(d/2), and routes the
degree-k part through the XOR chain after aggregating constraints by
support into a rescaled weighted XOR instance.
"""

import itertools
import math

import numpy as np

from . import certify
from . import instances
from . import linalg

FLATTEN_DIM_CAP = 6561


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
        rank = 0
        for i in tuple(alpha) + tuple(beta):
            if not (0 <= i < self.n):
                raise ValueError(f"index {i} out of range for n={self.n}")
            rank = rank * self.n + int(i)
        return rank

    def pair_of(self, row):
        digits = []
        rem = int(row)
        for _ in range(self.k - 1):
            rem, d = divmod(rem, self.n)
            digits.append(d)
        digits.reverse()
        return tuple(digits[:self.half]), tuple(digits[self.half:])


def _tuple_rank(tup, n):
    rank = 0
    for i in tup:
        rank = rank * n + int(i)
    return rank


def _require_odd_arity(k):
    if k % 2 == 0:
        raise ValueError(
            f"even arity k={k} is unsupported: flattening needs odd k")


def flatten(I):
    """Flatten the instance tensor to the matrix
    A[(alpha,beta),(alpha',beta')] = sum_l T(alpha,alpha',l) T(beta,beta',l)
    for k = 3, and the analogous split over middle indices for larger odd k.

    Built per middle index l: each clause containing l contributes the
    ordered splittings of its remaining k-1 indices into two halves, and
    every pair of such fragments adds the product of their weights. The
    result is symmetric with zero diagonal by construction.
    """
    k = I.k
    n = I.n
    _require_odd_arity(k)
    if k < 3:
        raise ValueError(f"arity must be at least 3 to flatten, got {k}")
    dim = n ** (k - 1)
    if dim > FLATTEN_DIM_CAP:
        raise ValueError(
            f"flatten infeasible: dense dimension {dim} exceeds cap "
            f"{FLATTEN_DIM_CAP}")
    h = (k - 1) // 2
    base = np.zeros((dim, dim))
    buckets = {}
    for tup, w in I.clauses.items():
        for ell in tup:
            rest = tuple(i for i in tup if i != ell)
            buckets.setdefault(ell, []).append((rest, w))
    for ell, frags in buckets.items():
        first = []
        second = []
        weights = []
        for rest, w in frags:
            if k == 3:
                a, b = rest
                for alpha, alpha2 in ((a, b), (b, a)):
                    first.append(alpha)
                    second.append(alpha2)
                    weights.append(w)
            else:
                for perm in itertools.permutations(rest):
                    first.append(_tuple_rank(perm[:h], n))
                    second.append(_tuple_rank(perm[h:], n))
                    weights.append(w)
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        weights = np.asarray(weights)
        scale = n ** h
        rows = first[:, None] * scale + first[None, :]
        cols = second[:, None] * scale + second[None, :]
        vals = weights[:, None] * weights[None, :]
        np.add.at(base, (rows.ravel(), cols.ravel()), vals.ravel())
    return FlattenedMatrix(base, n, k)


def split(F):
    """Split A into (A', A'') by the overlap of the two tensor-factor index
    groups: an entry at row (alpha, beta), column (alpha', beta') stays in
    A' exactly when the multisets {alpha, alpha'} and {beta, beta'} share at
    most (k-3)/2 indices. A' + A'' = A exactly.
    """
    n = F.n
    k = F.k
    dim = F.dim
    allow = (k - 3) // 2
    if k == 3:
        ids = np.arange(dim, dtype=np.int64)
        a = ids // n
        b = ids % n
        keep = a[:, None] != b[None, :]
        keep &= a[None, :] != b[:, None]
        keep &= (a != b)[:, None]
        keep &= (a != b)[None, :]
    else:
        h = F.half
        alpha_digits = np.zeros((dim, h), dtype=np.int64)
        beta_digits = np.zeros((dim, h), dtype=np.int64)
        for row in range(dim):
            alpha, beta = F.pair_of(row)
            alpha_digits[row] = alpha
            beta_digits[row] = beta
        acnt = np.zeros((dim, n), dtype=np.int16)
        bcnt = np.zeros((dim, n), dtype=np.int16)
        for row in range(dim):
            acnt[row] = np.bincount(alpha_digits[row], minlength=n)
            bcnt[row] = np.bincount(beta_digits[row], minlength=n)
        keep = np.zeros((dim, dim), dtype=bool)
        for row in range(dim):
            left = acnt[row][None, :] + acnt
            right = bcnt[row][None, :] + bcnt
            overlap = np.minimum(left, right).sum(axis=1)
            keep[row] = overlap <= allow
    main = np.where(keep, F.base, 0.0)
    residual = F.base - main
    return (FlattenedMatrix(main, n, k), FlattenedMatrix(residual, n, k))


def residual_bound(F):
    """Entrywise bound sum |A''_ij| on the inf-to-one norm of the residual."""
    return linalg.abs_entry_sum(F.base)


def _embed_steps(steps, prefix):
    return [dict(s, name=f"{prefix}{s['name']}") for s in steps]


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
    n = I.n
    k = I.k
    F = flatten(I)
    main, residual = split(F)
    steps = []
    if np.count_nonzero(main.base) == 0:
        b1 = 0.0
        steps.append({
            "name": "main_empty",
            "claim": "the split kept no entries, so norm_inf_to_one(A') = 0",
            "value": 0.0,
            "method": "exact",
        })
    else:
        cert1 = certify.inf_to_one_certificate(main.base, mode=mode, z=z)
        b1 = cert1.final_bound
        steps.extend(_embed_steps(cert1.steps, "main_"))
    b2 = residual_bound(residual)
    steps.append({
        "name": "residual_bound",
        "claim": "norm_inf_to_one(A'') <= sum of |entries| of A''",
        "value": b2,
        "method": "exact",
    })
    poly = math.sqrt(n * (b1 + b2))
    steps.append({
        "name": "polynomial_bound",
        "claim": ("max_x <T, x^(k)> <= sqrt(n * (bound(A') + bound(A''))) "
                  "over sign assignments"),
        "value": poly,
        "method": "exact",
    })
    raw = 0.5 + poly / (2.0 * I.m * math.factorial(k))
    bound = min(1.0, raw)
    steps.append({
        "name": "opt_bound",
        "claim": ("opt(I) <= 1/2 + polynomial_bound / (2 m k!), "
                  "clamped to 1"),
        "value": bound,
        "method": "exact",
    })
    meta = {
        "mode": mode,
        "z": z,
        "n": n,
        "k": k,
        "m": I.m,
        "clamped": bool(raw > 1.0),
        "split_condition": ("entry kept when the two tensor-factor index "
                            "multisets share at most (k-3)/2 indices"),
    }
    return certify.Certificate("xor_refutation", n, steps,
                               meta=meta, informative=bool(bound < 1.0))


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
    n = I.n
    k = I.k
    fourier = instances.fourier_decompose(I.truth_table)
    p0 = fourier.coefficient(())
    steps = [{
        "name": "mean_value",
        "claim": "the predicate mean contributes chat_empty to every "
                 "assignment's value",
        "value": p0,
        "method": "exact",
    }]
    total = 0.0
    for d in range(1, k):
        part = fourier.degree_part(d)
        if not any(v != 0.0 for v in part.values()):
            continue
        M = flatten_degree_d(I, d, fourier)
        s_d, method = specnorm_upper(M, z=z)
        term = (n ** (d / 2.0)) * s_d
        total += term
        steps.append({
            "name": f"degree_{d}_matrix_bound",
            "claim": (f"the degree-{d} part of the value is bounded by "
                      f"n^({d}/2) times a certified spectral-norm bound on "
                      f"its coefficient matrix"),
            "value": term,
            "method": method,
        })
    chat_k = fourier.coefficient(tuple(range(k)))
    if chat_k == 0.0:
        steps.append({
            "name": "degree_k_skipped",
            "claim": "the top Fourier coefficient vanishes, so the "
                     "degree-k part contributes nothing",
            "value": 0.0,
            "method": "exact",
        })
        bound_k = 0.0
    else:
        supp_w = {}
        degenerate = 0
        for alpha, c in I.constraints:
            if len(set(alpha)) != k:
                degenerate += 1
                continue
            key = tuple(sorted(alpha))
            coef = chat_k
            for s in c:
                coef *= s
            supp_w[key] = supp_w.get(key, 0.0) + coef
        supp_w = {key: w for key, w in supp_w.items() if w != 0.0}
        bound_k = 0.0
        if supp_w:
            W = max(abs(w) for w in supp_w.values())
            steps.append({
                "name": "degree_k_rescale",
                "claim": "aggregated support weights are divided by their "
                         "max magnitude before flattening; the factor "
                         "multiplies the resulting bound",
                "value": W,
                "method": "exact",
            })
            tilde = {key: w / W for key, w in supp_w.items()}
            xor_like = instances.XorInstance(n, k, tilde)
            F = flatten(xor_like)
            main, residual = split(F)
            if np.count_nonzero(main.base) == 0:
                b1 = 0.0
                steps.append({
                    "name": "degree_k_main_empty",
                    "claim": "the split kept no entries, so "
                             "norm_inf_to_one(A') = 0",
                    "value": 0.0,
                    "method": "exact",
                })
            else:
                cert1 = certify.inf_to_one_certificate(main.base,
                                                       mode=mode, z=z)
                b1 = cert1.final_bound
                steps.extend(_embed_steps(cert1.steps, "degree_k_"))
            b2 = residual_bound(residual)
            steps.append({
                "name": "degree_k_residual_bound",
                "claim": "norm_inf_to_one(A'') <= sum of |entries| of A''",
                "value": b2,
                "method": "exact",
            })
            poly = math.sqrt(n * (b1 + b2))
            bound_k = W * poly / math.factorial(k)
            steps.append({
                "name": "degree_k_bound",
                "claim": "the non-degenerate degree-k contribution is at "
                         "most W * sqrt(n (b1 + b2)) / k!",
                "value": bound_k,
                "method": "exact",
            })
        if degenerate:
            extra = abs(chat_k) * degenerate
            bound_k += extra
            steps.append({
                "name": "degree_k_degenerate",
                "claim": "each constraint whose scope repeats an index "
                         "contributes at most |chat_k|",
                "value": extra,
                "method": "exact",
            })
    raw = p0 + (total + bound_k) / I.m
    bound = min(1.0, raw)
    steps.append({
        "name": "opt_bound",
        "claim": "opt(I) <= chat_empty + (sum of degree bounds) / m, "
                 "clamped to 1",
        "value": bound,
        "method": "exact",
    })
    meta = {
        "mode": mode,
        "z": z,
        "n": n,
        "k": k,
        "m": I.m,
        "clamped": bool(raw > 1.0),
    }
    return certify.Certificate("csp_refutation", n, steps,
                               meta=meta, informative=bool(bound < 1.0))


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
