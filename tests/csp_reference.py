"""Per-assignment CSP evaluation, the reference the oracle tests check
against: instances.csp_brute_opt evaluates every assignment at once by a
Walsh-Hadamard transform, and the tests compare it with the maximum of
csp_value over an explicit enumeration.
"""

import numpy as np


def index_from_assignment(z):
    """The truth-table row of the {-1,+1}^k point z, the inverse of
    instances.assignment_from_index."""
    k = len(z)
    idx = 0
    for j, s in enumerate(z):
        if s > 0:
            idx |= 1 << (k - 1 - j)
    return idx


def csp_value(I, x):
    """Fraction of constraints satisfied: (1/m) sum_i P(c_i o x^alpha_i)."""
    if I.m == 0:
        raise ValueError("no constraints to evaluate")
    x = np.asarray(x, dtype=float)
    # one truth-table row per constraint; the sum of 0/1 values is exact
    rows = (I.signs * x[I.scopes] > 0) @ (1 << np.arange(I.k - 1, -1, -1))
    return I.truth_table[rows].sum() / I.m
