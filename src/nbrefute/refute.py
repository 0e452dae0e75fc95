"""Refutation pipelines: bound an instance's value by a quadratic form of
its flattened tensor, split that matrix into a certified part and an
entrywise-bounded remainder, and combine the pieces into an upper bound on
the optimum value.

The k-XOR chain (k odd) runs on the flattened matrix

    A[(alpha,beta),(alpha',beta')] = (V V^T)[(alpha,alpha'),(beta,beta')]

for the n^(k-1) x n unfolding V of the tensor (_unfolding): V V^T with its
two middle half-indices swapped, symmetric with zero diagonal. The chain is

    A = A' + A''                      A' keeps entries whose two tensor-factor
                                      index groups barely overlap; A'' is the
                                      rest
    b1  = tr W, W - A' PSD on         diagonal witness on A''s swap-
          swap-symmetric vectors      symmetric block, verified by Cholesky
    b2  = sum of |entries| of A''     correctly rounded (certify.exact_sum)
    N   = sqrt(n * (b1 + b2))         bound on max_x <T, x^(k)>
    U   = 1/2 + N / (2 m k!)          clamped to 1

and opt(I) <= U for every assignment. By Cauchy-Schwarz over the middle
index, <T, x^(k)>^2 <= n y^T A y for y = x^(k-1), a sign vector, and
y^T A y = y^T A' y + y^T A'' y <= b1 + b2: the chain needs only the
one-sided quadratic form of A' at y, which any diagonal W >= A' bounds by
its trace.

Swap-symmetric block. Rows of A are pairs (alpha, beta) of (k-1)/2-tuples,
and y = x^(k-1) is unchanged by the swap (alpha, beta) -> (beta, alpha),
as are A and A'. The split drops every entry of a row (alpha, alpha), as
its index multisets {alpha, alpha'} and {alpha, beta'} share all (k-1)/2
indices of alpha. So with lo the rows alpha < beta and hi their swaps,
y^T A' y = 2 y_lo^T (A'[lo,lo] + A'[lo,hi]) y_lo, and W - A' need only be
PSD on swap-symmetric vectors: diag(w) - A'_sym PSD on the pairs x pairs
block A'_sym = A'[lo,lo] + A'[lo,hi] (certify.diagonal_witness) gives tr W
= 2 sum_lo w_u, W the swap-invariant diagonal that copies w onto both lo
and hi. The pipelines never hold A. Its row (alpha, beta), as a q x q
matrix over (alpha', beta'), q = n^((k-1)/2), is V_alpha V_beta^T for
V_alpha the q rows of V with first half-index alpha, so the strip
V_{>alpha} V_alpha^T gives the lo rows: its row block beta is V_beta
V_alpha^T, the transpose of row (alpha, beta) and A's row (beta, alpha),
contiguous in memory. A''s hi rows and rows (alpha, alpha) (the blocks
V_alpha V_alpha^T) enter only b2 (_swap_parts).
The tests build A whole from the same blocks, as the dense reference that
the pipelines are checked against entry for entry.

The chain is sound with floating-point rounding included: the witness
step by its Cholesky shift, b2 and the degree-k bound by allowances for
the rounding of A''s entries and of the rescale w / W (0 when exact),
and the closed-form steps (b2, N, U, and the CSP chain's degree-d terms,
degree-k bound and total) by rounding every operation up by one ulp.

The CSP(P) chain decomposes P into its multilinear expansion and reduces
every nonzero term chat_S prod_{i in S} c_i x^(alpha_S) of every
constraint by x_i^2 = 1 to the sorted indices of odd multiplicity in
alpha_S, of degree d' (_reduced_terms). The terms with d' = 0 sum to a
constant c0; those with d' = k go through the XOR chain, aggregated by
support into a rescaled weighted XOR instance; the rest are bounded in
pairs (2j - 1, 2j), j = 1 .. (k - 1)/2, one step each
(_degree_pair_step). For M and M' the terms with d' = 2j - 1 and 2j, each
added at the base-n rank of its indices, y = x^(j-1) and y' = x^j, the
pair's part is y^T M y' + y'^T M' y' = z^T S z for z = [y; y'] and S =
[[0, M/2], [M^T/2, (M' + M'^T)/2]], whose diagonal is 0: a term's indices
are distinct, so a row of M' is never its column. It is at most tr W for
S's diagonal witness W, one maximum over x for both degrees, or ||M||_1,
exact when S is a star (M' = 0, M one row); pair 1 adds c0. W has
entry_err 0: each entry of M and M', and c0, sums at most m 2^k terms
chat_S (+-1), each a multiple of 2^-k of magnitude at most 1, so they, M'
+ M'^T and its half are exact, in any order, while m 2^(2k+1) < 2^53.
"""

import itertools
import math

import numpy as np

from . import certify
from . import instances
from . import linalg

# Cap on q(q+1)/2, the swap-symmetric dimension with the pair-diagonal
# rows counted: k = 3 at n = 120.
BLOCK_DIM_CAP = 7260

_up = certify.round_up


def _require_odd_arity(k):
    if k % 2 == 0 or k < 3:
        raise ValueError(f"arity k={k} is unsupported: the refutation's "
                         f"flattening needs odd k >= 3")


def _require_refutable(I, mode, items):
    """The checks both pipelines make before any work: the mode, odd k, a
    nonempty instance, and a swap block within BLOCK_DIM_CAP."""
    if mode != "gelfand":
        raise ValueError(f"unknown refutation mode {mode!r}; the only mode "
                         f"is 'gelfand'")
    _require_odd_arity(I.k)
    if I.m == 0:
        raise ValueError(f"no {items} to refute")
    q = I.n ** ((I.k - 1) // 2)
    if q * (q + 1) // 2 > BLOCK_DIM_CAP:
        raise linalg.Infeasible(
            f"refutation infeasible: swap block dimension {q * (q + 1) // 2} "
            f"exceeds cap {BLOCK_DIM_CAP}")


def _unfolding(I):
    """The n^(k-1) x n unfolding V of the instance tensor: V[(alpha, alpha'),
    l] = w for every clause, every index l of it and every ordering of its
    other k-1 indices into two (k-1)/2-tuples (alpha, alpha'). Then
    A[(alpha,beta),(alpha',beta')] = (V V^T)[(alpha,alpha'),(beta,beta')].
    Each entry of V comes from one clause, so it is assigned, not summed."""
    n, k = I.n, I.k
    place = n ** np.arange(k - 2, -1, -1)
    V = np.zeros((n ** (k - 1), n))
    for j in range(k):
        rest = np.delete(I.supports, j, axis=1)
        for perm in itertools.permutations(range(k - 1)):
            V[rest[:, list(perm)] @ place, I.supports[:, j]] = I.weights
    return V


def _digits(n, k):
    """Base-n digits (most significant first) of the n^(k-1) row ids."""
    place = n ** np.arange(k - 2, -1, -1)
    return np.arange(n ** (k - 1))[:, None] // place % n


def _overlap_at_least(left, start, h, n, halves):
    """Boolean matrix: row (beta, beta'), beta >= start, of V and digit
    row i of left share at least h indices, one row per (beta, beta') and
    one column per i; halves is _digits(n, h + 1), the digits of every
    half-index. Rows of V that hold a clause fragment have distinct
    digits, and there the overlap is the count of the digits of (beta,
    beta') found in i: c[beta, i] + c[beta', i]."""
    member = np.zeros((n, len(left)), dtype=np.int8)
    member[left, np.arange(len(left))[:, None]] = 1
    c = member[halves].sum(axis=1, dtype=np.int8)
    return (c[start:, None] + c[None, :] >= h).reshape(-1, len(left))


def _swap_index(q):
    """Row ids of the q x q grid positions lo = (i, j) with i < j and their
    swaps hi = (j, i)."""
    a, b = np.triu_indices(q, 1)
    return a * q + b, b * q + a


def _gram_blocks(V, q):
    """The upper block triangle of V V^T (module docstring): yields (alpha,
    V_alpha V_alpha^T, V_{>alpha} V_alpha^T) for every alpha whose rows
    V_alpha of V are not all zero (else so are the blocks). Row block
    beta - alpha - 1 of the strip V_{>alpha} V_alpha^T is V_beta
    V_alpha^T, the transpose of V_alpha V_beta^T, contiguous in memory."""
    for a in range(q):
        rows = V[a * q:(a + 1) * q]
        if rows.any():
            yield a, rows @ rows.T, V[(a + 1) * q:] @ rows.T


def _swap_parts(I):
    """What the XOR chain reads of the split A = A' + A'', from
    the blocks of _gram_blocks (module docstring): A'_sym = A'[lo,lo] +
    A'[lo,hi], whose row (alpha, beta) is the strict upper triangle of G'
    + G'^T for the block G = V_alpha V_beta^T split where the row's and the
    column's fragments of V share at least (k-1)/2 indices; the degrees of
    A''s lo rows; b2 = sum |A''| plus its rounding allowance, one exact
    sum over every block's residual array (the strips' twice, the diagonal
    blocks' once); and entry_err (_entry_errors)."""
    n, h = I.n, (I.k - 1) // 2
    q = n ** h
    digits, halves = _digits(n, I.k), _digits(n, h + 1)
    lo, hi = _swap_index(q)
    sym = np.zeros((lo.size, lo.size))
    degs = np.zeros(lo.size)
    V = _unfolding(I)
    entry_err, residual_err = _entry_errors(V, q)
    strips, diagonals = [np.zeros(0)], [[residual_err]]
    for a, diagonal, strip in _gram_blocks(V, q):
        drop = np.flatnonzero(_overlap_at_least(
            digits[a * q:(a + 1) * q], a + 1, h, n, halves))
        flat = strip.reshape(-1)
        strips.append(_abs_values(flat[drop]))
        flat[drop] = 0.0
        # row beta of blocks is G^T for G = V_a V_beta^T: G^T at hi is G at
        # lo, and its degree sums in the order of A's row (beta, a)
        blocks = strip.reshape(-1, q * q)
        i0 = a * q - a * (a + 1) // 2
        rows = sym[i0:i0 + len(blocks)]
        # "clip" writes into rows directly; the default mode buffers a copy
        np.take(blocks, hi, axis=1, out=rows, mode="clip")
        rows += np.take(blocks, lo, axis=1)
        degs[i0:i0 + len(blocks)] = np.abs(blocks, out=blocks).sum(axis=1)
        diagonals.append(_abs_values(diagonal))
        # freed before the next product: two alphas' arrays alive at once
        # grow the heap, and it stays resident through the witness
        del strip, flat, blocks, drop
    b2 = certify.exact_sum(np.concatenate(diagonals), np.concatenate(strips))
    return sym, degs, b2, entry_err


def _entry_errors(V, q):
    """Bounds on the rounding error in A'_sym's spectral norm and in sum
    |A''|, each entry of V V^T being within gamma_n (|V| |V|^T)_ij of exact:
    both 0 when V holds integers small enough for every sum to be exact
    (the +-1 XOR weights), else gamma_{n+1} times the largest row sum of
    the swapped |V| |V|^T, (P P^T)[alpha, beta] with P[alpha, l] =
    sum_alpha' |V[(alpha, alpha'), l]|, and times its entry sum, sum_l
    (sum_r |V_rl|)^2, rounded up; each doubled for its own rounding."""
    n = V.shape[1]
    absV = np.abs(V)
    if (np.array_equal(V, np.round(V))
            and 2 * n * float(absV.max()) ** 2 < 2.0 ** 53):
        return 0.0, 0.0
    P = absV.reshape(q, q, n).sum(axis=1)
    g = 2.0 * certify.gamma(n + 1)
    return (g * float((P @ P.T).max()),
            _up(g * float(np.square(P.sum(axis=0)).sum())))


def _abs_values(values):
    """|values| of the nonzero entries."""
    return np.abs(values[values != 0])


def _step(name, claim, value, method="exact", **extra):
    return {"name": name, "claim": claim, "value": value, "method": method,
            **extra}


def _degree_pair_step(M, M2, j, c0):
    """The step bounding c0 + y^T M y' + y'^T M2 y' for M and M2 the terms
    of reduced degree 2j - 1 and 2j (M2 with a zero diagonal) and c0 those
    of degree 0: c0 plus ||M||_1 (S a star or empty) or tr W, rounded up
    (module docstring)."""
    rows, cols = M.shape
    sym = np.zeros((rows + cols, rows + cols))
    sym[:rows, rows:], sym[rows:, :rows] = 0.5 * M, 0.5 * M.T
    sym[rows:, rows:] = 0.5 * (M2 + M2.T)
    name = f"degree_{2 * j - 1}_{2 * j}_bound"
    claim = (f"the terms of reduced degree {2 * j - 1} and {2 * j} are "
             f"z^T S z for z = [y; y'] and S = [[0, M/2], [M^T/2, (M' + "
             f"M'^T)/2]], plus c0, those of degree 0, in pair 1")
    if not M2.any() and (rows == 1 or not M.any()):
        return _step(name, claim + "; S is a star or 0, at most c0 + ||M||_1",
                     _up(certify.exact_sum(np.append(np.abs(M), c0))))
    w, witness = certify.diagonal_witness(sym, np.abs(sym).sum(axis=1))
    return _step(name, claim + ", z^T S z <= tr W for W - S PSD, verified "
                 "by Cholesky of W - S - c Id",
                 _up(certify.exact_sum(np.append(w, c0))),
                 "cholesky", witness=witness)


def _xor_chain(I, prefix):
    """The XOR chain's steps through b2 and sqrt(n (b1 + b2)), rounded up,
    with names that start with prefix (the witness step's with prefix or
    "main_"): b1 = tr W = 2 sum_lo w_u for the witness w of diag(w) -
    A'_sym PSD (module docstring)."""
    sym, degs, b2, entry_err = _swap_parts(I)
    b2 = _up(b2)
    if not degs.any():
        b1 = 0.0
        steps = [_step(f"{prefix}main_empty", "the split kept no entries, "
                       "so max_y y^T A' y = 0", 0.0)]
    else:
        w, witness = certify.diagonal_witness(sym, degs, entry_err)
        b1 = _up(2.0 * certify.exact_sum(w))
        steps = [_step(
            (prefix or "main_") + "trace_bound",
            "max_y y^T A' y <= tr W over sign vectors y = x^(k-1), for the "
            "swap-invariant diagonal W = diag(a + b deg_u) on rows of "
            "nonzero degree; W - A' PSD on swap-symmetric vectors, verified "
            "by Cholesky of W_sym - A'_sym - c Id", b1, "cholesky",
            witness=witness)]
    steps.append(_step(f"{prefix}residual_bound",
                       "max_y y^T A'' y <= sum of |entries| of A''", b2))
    return steps, _up(math.sqrt(_up(I.n * _up(b1 + b2))))


def refute_xor(I, mode="gelfand", z=16):
    """Certified upper bound on the optimum of a k-XOR instance (k odd).

    Returns a Certificate of kind xor_refutation whose final bound U
    satisfies opt(I) <= U, with U < 1 flagged as informative. The chain's
    one spectral step is the Cholesky-verified diagonal witness, sound with
    rounding included. mode must be "gelfand", the only refutation mode,
    and z is only recorded.
    """
    _require_refutable(I, mode, "clauses")
    steps, poly = _xor_chain(I, "")
    steps.append(_step("polynomial_bound",
                       "max_x <T, x^(k)> <= sqrt(n * (bound(A') + "
                       "bound(A''))) over sign assignments", poly))
    return _refutation(
        "xor_refutation", I, steps,
        _up(0.5 + _up(poly / (2.0 * I.m * math.factorial(I.k)))),
        "opt(I) <= 1/2 + polynomial_bound / (2 m k!), clamped to 1",
        z, split_condition=("entry kept when the two tensor-factor index "
                            "multisets share at most (k-3)/2 indices"))


def _refutation(kind, I, steps, raw, claim, z, **extra_meta):
    """Certificate of I: steps, then opt_bound = min(1, raw) with claim."""
    bound = min(1.0, raw)
    steps.append(_step("opt_bound", claim, bound))
    meta = dict(mode="gelfand", z=z, n=I.n, k=I.k, m=I.m,
                clamped=bool(raw > 1.0), **extra_meta)
    return certify.Certificate(kind, I.n, steps, meta=meta,
                               informative=bool(bound < 1.0))


def _reduced_terms(I, fourier):
    """Every nonzero term chat_S prod_{i in S} c_i x^(alpha_S), |S| >= 1,
    of every constraint (alpha, c), reduced by x_i^2 = 1: its degree d',
    the base-n rank of the d' sorted indices of odd multiplicity in
    alpha_S, and its weight chat_S prod_{i in S} c_i. Per degree d, the d
    columns of alpha_S are sorted by a min/max network and walked once: an
    index equal to a still-unpaired predecessor cancels it, which undoes
    its Horner step of the rank (// n) and takes 2 off d."""
    n = I.n
    terms = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    for d in range(1, I.k + 1):
        items = sorted((S, v) for S, v in fourier.degree_part(d).items()
                       if v != 0.0)
        if not items:
            continue
        sets, chats = map(np.array, zip(*items))
        cols = list(I.scopes[:, sets].reshape(-1, d).T)
        for end in range(d - 1, 0, -1):
            for t in range(end):
                a, b = cols[t], cols[t + 1]
                cols[t], cols[t + 1] = np.minimum(a, b), np.maximum(a, b)
        rank, degree, unpaired = cols[0], np.full(len(cols[0]), d), True
        for t in range(1, d):
            pair = unpaired & (cols[t - 1] == cols[t])
            rank = np.where(pair, rank // n, rank * n + cols[t])
            degree -= 2 * pair
            unpaired = ~pair
        terms.append((degree, rank, (chats * np.prod(I.signs[:, sets],
                                                     axis=2)).ravel()))
    return map(np.concatenate, zip(*terms))


def refute_csp(I, mode="gelfand", z=16):
    """Certified upper bound on the optimum of a CSP(P) instance.

    U = chat_empty + (1/m) [ sum_j degree-(2j-1, 2j) bound + degree-k bound ]
    over every term reduced by x_i^2 = 1 (module docstring): the pair
    bounds, the terms of degree 0 in pair 1's, are exact sums or
    Cholesky-verified diagonal witnesses, and the degree-k part runs the
    XOR polynomial bound on the terms still over k indices, aggregated by
    support into a weighted XOR instance (rescaled so |weights| <= 1, the
    factor carried as a step).
    mode and z are as for refute_xor.
    """
    _require_refutable(I, mode, "constraints")
    n, k = I.n, I.k
    fourier = instances.fourier_decompose(I.truth_table)
    p0 = fourier.coefficient(())
    steps = [_step("mean_value", "the predicate mean contributes chat_empty "
                   "to every assignment's value", p0)]
    degree, rank, weight = _reduced_terms(I, fourier)
    c0 = certify.exact_sum(weight[degree == 0])
    total = 0.0
    for j in range(1, (k + 1) // 2):
        M, M2 = (np.bincount(rank[degree == d], weight[degree == d], n ** d)
                 .reshape(n ** (d // 2), -1) for d in (2 * j - 1, 2 * j))
        if M.any() or M2.any() or c0:
            steps.append(_degree_pair_step(M, M2, j, c0))
            total = _up(total + steps[-1]["value"])
        c0 = 0.0
    # support sums in constraint order, all 0 (so no step) for chat_k = 0
    top = degree == k
    ranks, inverse = np.unique(rank[top], return_inverse=True)
    w = np.bincount(inverse.reshape(-1), weight[top], len(ranks))
    ranks, w = ranks[w != 0.0], w[w != 0.0]
    bound_k = 0.0
    if w.size:
        W = float(np.abs(w).max())
        steps.append(_step("degree_k_rescale", "aggregated support weights "
                           "are divided by their max magnitude before "
                           "flattening; the factor multiplies the resulting "
                           "bound", W))
        place = n ** np.arange(k - 1, -1, -1)
        chain, poly = _xor_chain(instances.XorInstance(
            n, k, (ranks[:, None] // place % n, w / W)), "degree_k_")
        steps += chain
        bound_k = _up(_up(W * poly) / math.factorial(k))
        # w / W is exact for W a power of two, else within u |w| / W (w
        # sums chat_k, so no quotient underflows)
        if math.frexp(W)[0] != 0.5:
            bound_k = _up(bound_k + _up(certify.UNIT_ROUNDOFF
                                        * certify.exact_sum(np.abs(w))))
        steps.append(_step("degree_k_bound", "terms over k distinct indices "
                           "add at most W * sqrt(n (b1 + b2)) / k! + u sum "
                           "|w_S| (0 for W a power of two)", bound_k))
    return _refutation("csp_refutation", I, steps,
                       _up(p0 + _up(_up(total + bound_k) / I.m)),
                       "opt(I) <= chat_empty + (sum of degree bounds) / m, "
                       "clamped to 1", z)


def audit_refutation(I, cert):
    """certify.audit under the name the refutation tests and perfbench use."""
    return certify.audit(I, cert)
