"""Random k-XOR and CSP(P) instances: sampling, evaluation, Fourier
transforms, and exact brute-force optima.

Conventions used throughout:

  * XOR clauses are stored once per support (a strictly increasing k-tuple
    of variable indices) with a weight w, c <= |w| <= 1. The induced
    symmetric k-tensor is T_alpha = w(sort(alpha)) when alpha has k distinct
    indices and 0 otherwise, so the sum of T_alpha x^alpha over ordered
    tuples equals k! times the sum of w x^support over clauses.
  * Assignments are sign vectors x in {-1,+1}^n.
  * CSP truth tables have length 2^k and are indexed lexicographically with
    -1 before +1: entry i is P at the assignment z whose j-th coordinate
    (j = 0 first) is +1 exactly when bit (k-1-j) of i is set. Index 0 is the
    all-(-1) assignment, index 2^k - 1 the all-(+1) assignment.
  * Sampling draws one uniform per candidate object, indexed by the object's
    rank in a fixed canonical order (lexicographic supports for XOR;
    scope-major (alpha, then sign pattern) for CSP). A draw u yields weight
    +1 when u < p/2 and -1 when p/2 <= u < p, so presence has probability
    exactly p with equiprobable signs from a single uniform.
  * The brute-force optima are exact Walsh-Hadamard evaluations over all
    2^n assignments. Both values are multilinear polynomials in x, so the
    instance's Fourier coefficients, indexed by monomial bitmask, go into a
    length-2^n vector and one in-place fast Walsh-Hadamard transform yields
    the value at every x (O(n 2^n) vectorised work). At the cap n = 24 that
    vector is 2^24 doubles (128 MB), plus one half-size temporary (64 MB).
"""

import itertools
import math

import numpy as np

BRUTE_ASSIGN_CAP = 24
# Uniforms per Generator.random call in sample_csp (8 MB of draws).
CSP_DRAW_CHUNK = 1 << 20


class XorInstance:
    """Weighted k-XOR instance.

    clauses maps strictly increasing k-tuples to weights in the magnitude
    window [min_weight, 1]. p and seed are provenance metadata.
    """

    def __init__(self, n, k, clauses, p=None, seed=None, min_weight=None):
        n = int(n)
        k = int(k)
        if k < 2:
            raise ValueError(f"arity must be at least 2, got {k}")
        if k > n:
            raise ValueError(f"arity k={k} exceeds variable count n={n}")
        cleaned = {}
        for tup, w in clauses.items():
            tup = tuple(int(i) for i in tup)
            if len(tup) != k:
                raise ValueError(f"clause {tup} does not have arity {k}")
            if list(tup) != sorted(set(tup)):
                raise ValueError(
                    f"clause {tup} is not a strictly increasing index tuple")
            if not (0 <= tup[0] and tup[-1] < n):
                raise ValueError(f"clause {tup} out of range for n={n}")
            w = float(w)
            if w == 0.0:
                raise ValueError(f"clause {tup} has zero weight")
            cleaned[tup] = w
        mags = [abs(w) for w in cleaned.values()]
        if min_weight is None:
            min_weight = min(mags) if mags else 1.0
        if mags and (min(mags) < min_weight - 1e-12 or max(mags) > 1.0 + 1e-12):
            raise ValueError(
                f"clause weights must satisfy {min_weight} <= |w| <= 1")
        self.n = n
        self.k = k
        self.clauses = cleaned
        self.p = p
        self.seed = seed
        self.min_weight = float(min_weight)

    @property
    def m(self):
        return len(self.clauses)

    def to_json_dict(self):
        meta = {}
        if self.p is not None:
            meta["p"] = self.p
        if self.seed is not None:
            meta["seed"] = self.seed
        return {
            "version": 1,
            "kind": "xor",
            "n": self.n,
            "k": self.k,
            "clauses": [{"vars": list(t), "weight": w}
                        for t, w in sorted(self.clauses.items())],
            "meta": meta,
        }

    @classmethod
    def from_json_dict(cls, d):
        clauses = {tuple(c["vars"]): c["weight"] for c in d["clauses"]}
        meta = d.get("meta", {})
        return cls(d["n"], d["k"], clauses,
                   p=meta.get("p"), seed=meta.get("seed"))


class CspInstance:
    """CSP(P) instance: a truth table plus (scope, negation) constraints.

    Scopes are tuples in [n]^k and may repeat indices; constraints may
    repeat. The negation pattern c is a tuple in {-1,+1}^k; constraint
    (alpha, c) evaluates P at (c_1 x_{alpha_1}, ..., c_k x_{alpha_k}).
    """

    def __init__(self, n, k, truth_table, constraints, p=None, seed=None):
        n = int(n)
        k = int(k)
        table = np.asarray(truth_table, dtype=float)
        if table.shape != (2 ** k,):
            raise ValueError(
                f"truth table must have length 2^{k}={2 ** k}, "
                f"got shape {table.shape}")
        if not np.all((table == 0.0) | (table == 1.0)):
            raise ValueError("truth table values must be 0 or 1")
        cleaned = []
        for alpha, c in constraints:
            alpha = tuple(int(i) for i in alpha)
            c = tuple(int(s) for s in c)
            if len(alpha) != k or len(c) != k:
                raise ValueError(
                    f"constraint ({alpha}, {c}) does not have arity {k}")
            if any(not (0 <= i < n) for i in alpha):
                raise ValueError(f"scope {alpha} out of range for n={n}")
            if any(s not in (-1, 1) for s in c):
                raise ValueError(f"negation pattern {c} must be +-1")
            cleaned.append((alpha, c))
        self.n = n
        self.k = k
        self.truth_table = table
        self.constraints = cleaned
        self.p = p
        self.seed = seed

    @property
    def m(self):
        return len(self.constraints)

    def to_json_dict(self):
        meta = {}
        if self.p is not None:
            meta["p"] = self.p
        if self.seed is not None:
            meta["seed"] = self.seed
        return {
            "version": 1,
            "kind": "csp",
            "n": self.n,
            "k": self.k,
            "truth_table": [int(v) for v in self.truth_table],
            "constraints": [{"vars": list(a), "neg": list(c)}
                            for a, c in self.constraints],
            "meta": meta,
        }

    @classmethod
    def from_json_dict(cls, d):
        constraints = [(tuple(c["vars"]), tuple(c["neg"]))
                       for c in d["constraints"]]
        meta = d.get("meta", {})
        return cls(d["n"], d["k"], d["truth_table"], constraints,
                   p=meta.get("p"), seed=meta.get("seed"))


class FourierExpansion:
    """Multilinear expansion P(z) = sum_S chat_S prod_{i in S} z_i.

    coefficients maps sorted index tuples (subsets of range(k)) to reals;
    the empty tuple's coefficient is the predicate mean.
    """

    def __init__(self, k, coefficients):
        self.k = int(k)
        self.coefficients = {tuple(S): float(v)
                             for S, v in coefficients.items()}

    def coefficient(self, S):
        return self.coefficients.get(tuple(sorted(S)), 0.0)

    def degree_part(self, d):
        """Coefficients of degree exactly d, as a {tuple: value} dict."""
        return {S: v for S, v in self.coefficients.items() if len(S) == d}

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        total = 0.0
        for S, v in self.coefficients.items():
            term = v
            for i in S:
                term *= z[i]
            total += term
        return total

    def reconstruct_table(self):
        k = self.k
        out = np.zeros(2 ** k)
        for idx in range(2 ** k):
            out[idx] = self.evaluate(assignment_from_index(idx, k))
        return out


def assignment_from_index(idx, k):
    """The {-1,+1}^k point at row idx of the truth-table order."""
    return tuple(1 if (idx >> (k - 1 - j)) & 1 else -1 for j in range(k))


def index_from_assignment(z):
    k = len(z)
    idx = 0
    for j, s in enumerate(z):
        if s > 0:
            idx |= 1 << (k - 1 - j)
    return idx


def sample_kxor(n, k, p, seed):
    """Sample a k-XOR instance: each of the C(n,k) supports independently
    present with probability p, sign equiprobable, from one uniform per
    support in lexicographic rank order."""
    n = int(n)
    k = int(k)
    p = float(p)
    if k > n:
        raise ValueError(f"arity k={k} exceeds variable count n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability p must be in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    draws = rng.random(math.comb(n, k))
    clauses = {}
    for rank, combo in enumerate(itertools.combinations(range(n), k)):
        u = draws[rank]
        if u < p:
            clauses[combo] = 1.0 if u < p / 2.0 else -1.0
    return XorInstance(n, k, clauses, p=p, seed=seed)


def tensor_entry(I, alpha):
    """Symmetric tensor entry at an ordered index tuple: the stored clause
    weight when the indices are distinct, 0 otherwise."""
    alpha = tuple(int(i) for i in alpha)
    if len(alpha) != I.k:
        raise ValueError(f"index tuple {alpha} does not have arity {I.k}")
    if any(not (0 <= i < I.n) for i in alpha):
        raise ValueError(f"index tuple {alpha} out of range for n={I.n}")
    if len(set(alpha)) != I.k:
        return 0.0
    return I.clauses.get(tuple(sorted(alpha)), 0.0)


def value(I, x):
    """Fraction of (weighted) constraints satisfied by the assignment x."""
    if I.m == 0:
        raise ValueError("no clauses to evaluate")
    x = np.asarray(x, dtype=float)
    total = 0.0
    for tup, w in I.clauses.items():
        prod = 1.0
        for i in tup:
            prod *= x[i]
        total += (1.0 + w * prod) / 2.0
    return total / I.m


def _require_cube(n, max_n):
    if n > max_n:
        raise ValueError(
            f"oracle infeasible: assignment enumeration over {n} variables "
            f"exceeds cap {max_n}")


def _cube_max(masks, weights, n):
    """Max over x in {-1,+1}^n of sum_i weights[i] * prod_{j in masks[i]} x_j,
    where masks[i] is a monomial's bitmask (0 is the constant term).

    The coefficients are summed into a length-2^n vector by mask, then one
    in-place radix-2 Walsh-Hadamard butterfly turns it into the polynomial's
    value at every point (bit j of the index set means x_j = -1; only the
    maximum is read, so the convention does not matter). Memory: 2^n
    doubles plus one half-size temporary, 192 MB at n = 24. Dyadic
    coefficients of bounded size keep every partial sum exact."""
    vals = np.bincount(masks, weights=weights, minlength=1 << n)
    half = np.empty(vals.size // 2)
    h = 1
    while h < vals.size:
        pairs = vals.reshape(-1, 2, h)
        top, bottom = pairs[:, 0], pairs[:, 1]
        diff = np.subtract(top, bottom, out=half.reshape(-1, h))
        top += bottom
        bottom[...] = diff
        h *= 2
    return vals.max()


def brute_opt(I, max_n=BRUTE_ASSIGN_CAP):
    """Exact maximum of value(I, .) over all sign assignments: the max of
    m/2 + sum_S (w_S/2) x^S over the cube, by one Walsh-Hadamard transform
    (exact for +-1 weights, within rounding for others), divided by m."""
    if I.m == 0:
        raise ValueError("no clauses to evaluate")
    _require_cube(I.n, max_n)
    tups = np.array(list(I.clauses), dtype=np.int64).reshape(-1, I.k)
    masks = np.bitwise_xor.reduce(np.left_shift(1, tups), axis=1)
    halves = np.array(list(I.clauses.values())) / 2.0
    best = _cube_max(np.concatenate([[0], masks]),
                     np.concatenate([[I.m / 2.0], halves]), I.n)
    return float(best / I.m)


def sample_csp(truth_table, n, k, p, seed):
    """Sample a CSP(P) instance: every (scope, negation) pair in
    [n]^k x {-1,+1}^k independently present with probability p, from one
    uniform per pair in scope-major rank order, drawn CSP_DRAW_CHUNK at a
    time."""
    n = int(n)
    k = int(k)
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability p must be in [0,1], got {p}")
    table = np.asarray(truth_table, dtype=float)
    if table.shape != (2 ** k,):
        raise ValueError(
            f"truth table must have length 2^{k}={2 ** k}")
    rng = np.random.default_rng(seed)
    total = (n ** k) * (2 ** k)
    hits = []
    # chunked draws continue one stream, so they equal a single call's
    for start in range(0, total, CSP_DRAW_CHUNK):
        draws = rng.random(min(CSP_DRAW_CHUNK, total - start))
        hits.extend((start + np.flatnonzero(draws < p)).tolist())
    constraints = []
    for rank in hits:
        alpha_rank, c_rank = divmod(int(rank), 2 ** k)
        alpha = []
        rem = alpha_rank
        for _ in range(k):
            rem, digit = divmod(rem, n)
            alpha.append(digit)
        alpha.reverse()
        c = assignment_from_index(c_rank, k)
        constraints.append((tuple(alpha), c))
    return CspInstance(n, k, table, constraints, p=p, seed=seed)


def csp_value(I, x):
    """Fraction of constraints satisfied: (1/m) sum_i P(c_i o x^alpha_i)."""
    if I.m == 0:
        raise ValueError("no constraints to evaluate")
    x = np.asarray(x, dtype=float)
    k = I.k
    total = 0.0
    for alpha, c in I.constraints:
        z = tuple(int(c[j] * x[alpha[j]]) for j in range(k))
        total += I.truth_table[index_from_assignment(z)]
    return total / I.m


def csp_brute_opt(I, max_n=BRUTE_ASSIGN_CAP):
    """Exact maximum of csp_value(I, .) over all sign assignments.

    Constraint (alpha, c) contributes chat_S prod_{j in S} c_j at the mask
    XOR_{j in S} bit(alpha_j) for each Fourier coefficient chat_S of P: XOR,
    not OR, because a scope may repeat an index and x_i^2 = 1. The dyadic
    coefficients keep the Walsh-Hadamard values exact."""
    if I.m == 0:
        raise ValueError("no constraints to evaluate")
    _require_cube(I.n, max_n)
    alphas = np.array([a for a, _ in I.constraints], dtype=np.int64)
    signs = np.array([c for _, c in I.constraints], dtype=float)
    bits = np.left_shift(1, alphas)
    masks, weights = [], []
    for S, chat in fourier_decompose(I.truth_table).coefficients.items():
        S = list(S)
        masks.append(np.bitwise_xor.reduce(bits[:, S], axis=1))
        weights.append(chat * np.prod(signs[:, S], axis=1))
    best = _cube_max(np.concatenate(masks), np.concatenate(weights), I.n)
    return float(best / I.m)


def fourier_decompose(truth_table):
    """Fourier transform of a truth table: chat_S = 2^-k sum_z P(z) prod z_S.

    Coefficients are dyadic rationals, so the reconstruction
    P(z) = sum_S chat_S prod_{i in S} z_i is exact in floating point at
    desk-scale k.
    """
    table = np.asarray(truth_table, dtype=float)
    size = table.shape[0]
    k = size.bit_length() - 1
    if size != 2 ** k or table.ndim != 1:
        raise ValueError(
            f"truth table length must be a power of two, got {table.shape}")
    coeffs = {}
    points = [assignment_from_index(i, k) for i in range(size)]
    for d in range(k + 1):
        for S in itertools.combinations(range(k), d):
            acc = 0.0
            for i, z in enumerate(points):
                term = table[i]
                for j in S:
                    term *= z[j]
                acc += term
            coeffs[S] = acc / size
    return FourierExpansion(k, coeffs)


def predicate_table(name, k=3):
    """Truth tables of the shipped predicate library.

    3sat: OR of k literals (false only when every coordinate is -1).
    parity: (1 + prod z)/2, satisfied when the product of signs is +1.
    """
    k = int(k)
    if name == "3sat":
        if k != 3:
            raise ValueError("predicate 3sat has arity 3")
        table = np.ones(8)
        table[0] = 0.0
        return table
    if name == "parity":
        table = np.zeros(2 ** k)
        for idx in range(2 ** k):
            z = assignment_from_index(idx, k)
            table[idx] = (1 + int(np.prod(z))) // 2
        return table
    raise ValueError(f"unknown predicate {name!r}; use '3sat' or 'parity'")
