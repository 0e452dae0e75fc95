"""Checks the harness applies to every certificate it gets back.

Brute force audits certificates only up to n = 24, so past that scale the
harness finds its own lower bound on opt: a seeded, vectorised greedy
bit-flip local search over many restarts. Any assignment's value is a lower
bound on opt, so a certificate whose bound U falls below it is unsound.
The search is independent of the package: it reads only the instance's
clause or constraint lists.
"""

import hashlib
import json

import numpy as np

SLACK = 1e-12
RESTARTS = 32
ROUNDS = 20


class CheckFailed(Exception):
    """A certificate or result failed one of the harness's checks."""


def digest(cert_dict):
    """sha256 of a certificate's canonical JSON: sorted keys, compact
    separators, the metadata timestamp removed."""
    d = dict(cert_dict)
    if "meta" in d:
        d["meta"] = {k: v for k, v in d["meta"].items() if k != "timestamp"}
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_certificate(cert, lower_bound=None):
    """Raise CheckFailed unless `cert` validates, is sound, and its bound is
    at least `lower_bound` - SLACK. Returns the bound."""
    try:
        cert.validate()
    except ValueError as exc:
        raise CheckFailed(f"validate() failed: {exc}") from exc
    if not cert.sound:
        raise CheckFailed("certificate is not sound")
    if lower_bound is not None and cert.final_bound < lower_bound - SLACK:
        raise CheckFailed(
            f"bound {cert.final_bound!r} is below the local-search lower "
            f"bound {lower_bound!r}")
    return cert.final_bound


def _greedy(X, gains_of, max_steps):
    """Flip, in every restart, the variable with the largest positive gain
    until no flip improves (or max_steps is reached)."""
    rows = np.arange(X.shape[0])
    for _ in range(max_steps):
        gain = gains_of(X)
        best = gain.argmax(axis=1)
        improving = gain[rows, best] > 1e-9
        if not improving.any():
            break
        X[rows[improving], best[improving]] *= -1
    return X


def xor_lower_bound(I, seed):
    """Value of the best assignment a greedy bit-flip search finds for a
    ±1-weighted k-XOR instance."""
    items = sorted(I.clauses.items())
    supp = np.array([t for t, _ in items], dtype=np.int64)
    w = np.array([v for _, v in items])
    if np.any(np.abs(w) != 1.0):
        raise ValueError("local search needs ±1 clause weights")
    m, n = len(items), I.n
    inc = np.zeros((m, n))
    inc[np.arange(m)[:, None], supp] = 1.0

    def signed(X):
        return w * X[:, supp].prod(axis=2)

    def gains(X):
        # Flipping x_i negates every clause containing i: each satisfied
        # clause there becomes unsatisfied and vice versa.
        return -(signed(X) @ inc)

    rng = np.random.default_rng(seed)
    X = rng.choice([-1.0, 1.0], size=(RESTARTS, n))
    X = _greedy(X, gains, max_steps=m + 1)
    sat = (1.0 + signed(X)) / 2.0
    return float(sat.sum(axis=1).max() / m)


def csp_lower_bound(I, seed):
    """Value of the best assignment a greedy bit-flip search finds for a
    CSP(P) instance."""
    k, n = I.k, I.n
    alpha = np.array([a for a, _ in I.constraints], dtype=np.int64)
    signs = np.array([c for _, c in I.constraints], dtype=float)
    table = np.asarray(I.truth_table, dtype=float)
    m = alpha.shape[0]
    bits = 1 << (k - 1 - np.arange(k))
    # For position t: the mask of every position holding the same variable
    # (a scope may repeat an index), and whether t is that variable's first
    # position, so each (constraint, variable) pair is counted once.
    masks = []
    incs = []
    for t in range(k):
        same = alpha == alpha[:, t:t + 1]
        masks.append((same * bits).sum(axis=1))
        first = ~(same[:, :t].any(axis=1))
        inc = np.zeros((m, n))
        inc[np.flatnonzero(first), alpha[first, t]] = 1.0
        incs.append(inc)

    def index(X):
        lit = (signs[None, :, :] * X[:, alpha]) > 0
        return (lit * bits).sum(axis=2)

    def gains(X):
        idx = index(X)
        cur = table[idx]
        return sum((table[idx ^ masks[t]] - cur) @ incs[t]
                   for t in range(k))

    rng = np.random.default_rng(seed)
    X = rng.choice([-1.0, 1.0], size=(RESTARTS, n))
    X = _greedy(X, gains, max_steps=m + 1)
    return float(table[index(X)].sum(axis=1).max() / m)


def inf_to_one_lower_bound(A, seed):
    """max over found sign vectors x, y of x^T A y, by alternating
    y = sign(A^T x), x = sign(A y) from random starts: a lower bound on
    norm_inf_to_one(A) at any size."""
    A = np.asarray(A, dtype=float)
    rng = np.random.default_rng(seed)
    Y = rng.choice([-1.0, 1.0], size=(RESTARTS, A.shape[1]))
    for _ in range(ROUNDS):
        X = np.where(Y @ A.T >= 0, 1.0, -1.0)
        Y = np.where(X @ A >= 0, 1.0, -1.0)
    return float(np.abs(X @ A).sum(axis=1).max())


def lower_bound(I, seed):
    """Local-search lower bound on opt for an XorInstance or CspInstance."""
    if hasattr(I, "clauses"):
        return xor_lower_bound(I, seed)
    return csp_lower_bound(I, seed)
