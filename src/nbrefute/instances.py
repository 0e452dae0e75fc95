"""Random k-XOR and CSP(P) instances: sampling, evaluation, Fourier
transforms, and exact brute-force optima.

Conventions used throughout:

  * XOR clauses are stored once per support (a strictly increasing k-tuple
    of variable indices) with a weight w, 0 < |w| <= 1. The induced
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
  * XOR clauses (supports, weights) and CSP constraints (scopes, signs)
    are read-only arrays, built, validated and read as arrays; the clauses
    dict and the constraints list are made from them on each access. XOR
    files load as arrays too, so a repeated support is refused.
  * The brute-force optima are exact Walsh-Hadamard evaluations over all
    2^n assignments. Both values are multilinear polynomials in x, so the
    instance's Fourier coefficients, indexed by monomial bitmask, go into a
    length-2^n vector and one in-place fast Walsh-Hadamard transform yields
    the value at every x (O(n 2^n) vectorised work). At the cap n = 24 that
    vector is 2^24 doubles (128 MB), plus one half-size temporary (64 MB).
    Past that cap both oracles raise linalg.Infeasible.
"""

import itertools
import math
import numbers

import numpy as np

from . import linalg

BRUTE_ASSIGN_CAP = 24
# Uniforms per Generator.random call in sample_csp (8 MB of draws).
CSP_DRAW_CHUNK = 1 << 20


class XorInstance:
    """Weighted k-XOR instance.

    clauses maps strictly increasing k-tuples to weights with 0 < |w| <= 1,
    or is that map as (m, k) and (m,) arrays (supports, weights), kept
    read-only in input order; array input may not repeat a support. p and
    seed are provenance metadata.
    """

    def __init__(self, n, k, clauses, p=None, seed=None):
        n = int(n)
        k = int(k)
        if k < 2:
            raise ValueError(f"arity must be at least 2, got {k}")
        if k > n:
            raise ValueError(f"arity k={k} exceeds variable count n={n}")
        if hasattr(clauses, "keys"):
            clauses = list(clauses), list(clauses.values())
        tups = _int_rows(clauses[0], k, lambda t: None if len(t) == k
                         else f"clause {_ints(t)} does not have arity {k}")
        weights = np.array(clauses[1], dtype=float).reshape(len(tups))
        unsorted = (tups[:, 1:] <= tups[:, :-1]).any(axis=1)
        # a sorted tuple is in range when its ends are
        out = (tups[:, 0] < 0) | (tups[:, -1] >= n)
        infinite = ~np.isfinite(weights)
        order = np.lexsort(tups.T[::-1])   # stable: first occurrence first
        repeated = np.zeros(len(tups), dtype=bool)
        repeated[order[1:]] = (np.diff(tups[order], axis=0) == 0).all(axis=1)
        bad = np.flatnonzero(unsorted | out | infinite | (weights == 0.0)
                             | repeated)
        if bad.size:
            i = bad[0]
            tup = _ints(tups[i])
            if unsorted[i]:
                raise ValueError(
                    f"clause {tup} is not a strictly increasing index tuple")
            if out[i]:
                raise ValueError(f"clause {tup} out of range for n={n}")
            if infinite[i]:
                raise ValueError(
                    f"clause {tup} has non-finite weight {weights[i]}")
            if repeated[i]:
                raise ValueError(f"clause {tup} appears more than once")
            raise ValueError(f"clause {tup} has zero weight")
        if (np.abs(weights) > 1.0 + 1e-12).any():
            raise ValueError("clause weights must satisfy 0 < |w| <= 1")
        self.n = n
        self.k = k
        self.supports, self.weights = tups, weights
        tups.flags.writeable = weights.flags.writeable = False
        self.p = p
        self.seed = seed

    @property
    def clauses(self):
        """The {support tuple: weight} dict, a new one per access."""
        return dict(zip(map(tuple, self.supports.tolist()),
                        self.weights.tolist()))

    @property
    def m(self):
        return len(self.weights)

    def to_json_dict(self):
        order = np.lexsort(self.supports.T[::-1])
        return {
            "version": 1,
            "kind": "xor",
            "n": self.n,
            "k": self.k,
            "clauses": [{"vars": t, "weight": w} for t, w in zip(
                self.supports[order].tolist(), self.weights[order].tolist())],
            "meta": _provenance(self),
        }

    @classmethod
    def from_json_dict(cls, d):
        supports = [tuple(_number(i, "vars") for i in c["vars"])
                    for c in d["clauses"]]
        weights = [_number(c["weight"], "weight", False) for c in d["clauses"]]
        meta = d.get("meta", {})
        return cls(_number(d["n"], "n"), _number(d["k"], "k"),
                   (supports, weights), p=meta.get("p"), seed=meta.get("seed"))


class CspInstance:
    """CSP(P) instance: a truth table plus (scope, negation) constraints.

    Scopes are tuples in [n]^k and may repeat indices; constraints may
    repeat. The negation pattern c is a tuple in {-1,+1}^k; constraint
    (alpha, c) evaluates P at (c_1 x_{alpha_1}, ..., c_k x_{alpha_k}).
    constraints is a sequence of such pairs or an (m, 2, k) integer array.
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
        rows = _int_rows(constraints, 2 * k, lambda pair: None if all(
            len(part) == k for part in pair) else f"constraint ("
            f"{_ints(pair[0])}, {_ints(pair[1])}) does not have arity {k}")
        scopes, signs = rows[:, :k], rows[:, k:]
        out = ((scopes < 0) | (scopes >= n)).any(axis=1)
        bad = np.flatnonzero(out | (np.abs(signs) != 1).any(axis=1))
        if bad.size:
            i = bad[0]
            if out[i]:
                raise ValueError(
                    f"scope {_ints(scopes[i])} out of range for n={n}")
            raise ValueError(f"negation pattern {_ints(signs[i])} must be +-1")
        self.n = n
        self.k = k
        self.truth_table = table
        self.scopes = np.ascontiguousarray(scopes)
        self.signs = np.ascontiguousarray(signs)
        self.scopes.flags.writeable = self.signs.flags.writeable = False
        self.p = p
        self.seed = seed

    @property
    def constraints(self):
        """The (scope, negation) pairs as tuples, a new list per access."""
        return list(zip(zip(*self.scopes.T.tolist()),
                        zip(*self.signs.T.tolist())))

    @property
    def m(self):
        return len(self.scopes)

    def to_json_dict(self):
        return {
            "version": 1,
            "kind": "csp",
            "n": self.n,
            "k": self.k,
            "truth_table": [int(v) for v in self.truth_table],
            "constraints": [{"vars": a, "neg": c} for a, c in
                            zip(self.scopes.tolist(), self.signs.tolist())],
            "meta": _provenance(self),
        }

    @classmethod
    def from_json_dict(cls, d):
        constraints = [(tuple(_number(i, "vars") for i in c["vars"]),
                        tuple(_number(i, "neg") for i in c["neg"]))
                       for c in d["constraints"]]
        table = [_number(v, "truth_table") for v in d["truth_table"]]
        meta = d.get("meta", {})
        return cls(_number(d["n"], "n"), _number(d["k"], "k"), table,
                   constraints, p=meta.get("p"), seed=meta.get("seed"))


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


def _provenance(I):
    """The JSON meta of I: its p and seed, where set."""
    return {key: v for key, v in (("p", I.p), ("seed", I.seed))
            if v is not None}


def _number(v, field, integral=True):
    """v from an instance file's field; a boolean, a string or (integral) a
    fraction, which the constructors would convert, is a ValueError."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or integral and v % 1 != 0):
        raise ValueError(f"instance field {field!r} holds {v!r}, not "
                         f"{'an integer' if integral else 'a number'}")
    return v


def _int_rows(items, width, arity_error):
    """items, integer sequences or an array, as a new (len(items), width)
    int64 array. The first item that does not fit, by arity_error's
    message or an integer past int64, is named in the ValueError."""
    try:
        return np.array(items, dtype=np.int64).reshape(len(items), width)
    except ValueError:
        for message in map(arity_error, items):
            if message:
                raise ValueError(message) from None
        raise
    except OverflowError:
        rows = np.array(items, dtype=object).reshape(len(items), -1)
        i = np.flatnonzero(((rows < -2 ** 63) | (rows >= 2 ** 63)).any(1))[0]
        raise ValueError(f"row {i} {items[i]} overflows int64") from None


def _ints(seq):
    """seq as a tuple of Python ints, for messages."""
    return tuple(int(i) for i in seq)


def assignment_from_index(idx, k):
    """The {-1,+1}^k point at row idx of the truth-table order."""
    return tuple(1 if (idx >> (k - 1 - j)) & 1 else -1 for j in range(k))


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
    draws = np.random.default_rng(seed).random(math.comb(n, k))
    hit = draws < p
    combos = itertools.compress(itertools.combinations(range(n), k), hit)
    supports = np.fromiter(itertools.chain.from_iterable(combos), np.int64)
    signs = np.where(draws[hit] < p / 2.0, 1.0, -1.0)
    return XorInstance(n, k, (supports.reshape(-1, k), signs), p=p, seed=seed)


def _require_cube(n):
    if n > BRUTE_ASSIGN_CAP:
        raise linalg.Infeasible(
            f"oracle infeasible: assignment enumeration over {n} variables "
            f"exceeds cap {BRUTE_ASSIGN_CAP}")


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


def brute_opt(I):
    """Exact maximum over sign assignments of the weighted fraction of
    satisfied clauses (1/m) sum_S (1 + w_S x^S)/2: the max of
    m/2 + sum_S (w_S/2) x^S over the cube, by one Walsh-Hadamard transform
    (exact for +-1 weights, within rounding for others), divided by m."""
    if I.m == 0:
        raise ValueError("no clauses to evaluate")
    _require_cube(I.n)
    masks = np.bitwise_xor.reduce(np.left_shift(1, I.supports), axis=1)
    halves = I.weights / 2.0
    best = _cube_max(np.concatenate([[0], masks]),
                     np.concatenate([[I.m / 2.0], halves]), I.n)
    return float(best / I.m)


def sample_csp(truth_table, n, k, p, seed):
    """Sample a CSP(P) instance: every (scope, negation) pair in
    [n]^k x {-1,+1}^k independently present with probability p, from one
    uniform per pair in scope-major rank order, drawn CSP_DRAW_CHUNK at a
    time. A hit's rank is alpha's base-n rank times 2^k plus c's row in
    the truth table, decoded for all hits at once by divmod and digits."""
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
    hits = [np.zeros(0, dtype=np.int64)]
    # chunked draws continue one stream, so they equal a single call's
    for start in range(0, total, CSP_DRAW_CHUNK):
        draws = rng.random(min(CSP_DRAW_CHUNK, total - start))
        hits.append(start + np.flatnonzero(draws < p))
    alpha_rank, c_rank = np.divmod(np.concatenate(hits), 2 ** k)
    place = np.arange(k - 1, -1, -1)
    scopes = alpha_rank[:, None] // n ** place % n
    signs = 2 * (c_rank[:, None] >> place & 1) - 1
    return CspInstance(n, k, table, np.stack((scopes, signs), axis=1),
                       p=p, seed=seed)


def csp_brute_opt(I):
    """Exact maximum over all sign assignments of the fraction of
    constraints satisfied, (1/m) sum_i P(c_i o x^alpha_i).

    Constraint (alpha, c) contributes chat_S prod_{j in S} c_j at the mask
    XOR_{j in S} bit(alpha_j) for each Fourier coefficient chat_S of P: XOR,
    not OR, because a scope may repeat an index and x_i^2 = 1. The dyadic
    coefficients keep the Walsh-Hadamard values exact."""
    if I.m == 0:
        raise ValueError("no constraints to evaluate")
    _require_cube(I.n)
    bits = np.left_shift(1, I.scopes)
    masks, weights = [], []
    for S, chat in fourier_decompose(I.truth_table).coefficients.items():
        S = list(S)
        masks.append(np.bitwise_xor.reduce(bits[:, S], axis=1))
        weights.append(chat * np.prod(I.signs[:, S], axis=1))
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
    points = np.array([assignment_from_index(i, k) for i in range(size)])
    # every term is 0 or +-1, so the sums are exact in any order
    return FourierExpansion(k, {
        S: (table * points[:, list(S)].prod(axis=1)).sum() / size
        for d in range(k + 1) for S in itertools.combinations(range(k), d)})


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
        return np.array([(1 + math.prod(assignment_from_index(i, k))) // 2
                         for i in range(2 ** k)], dtype=float)
    raise ValueError(f"unknown predicate {name!r}; use '3sat' or 'parity'")
