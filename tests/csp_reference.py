"""Per-assignment XOR and CSP evaluation and the Fourier reconstruction
of a truth table, the references the oracle and transform tests check
against: instances.brute_opt and csp_brute_opt evaluate every assignment
at once by a Walsh-Hadamard transform, and the tests compare them with
the maximum of xor_value and csp_value over an explicit enumeration.
"""

import numpy as np

from nbrefute import instances


def xor_value(I, x):
    """Fraction of (weighted) clauses satisfied by the assignment x."""
    if I.m == 0:
        raise ValueError("no clauses to evaluate")
    prods = np.prod(np.asarray(x, dtype=float)[I.supports], axis=1)
    return float(((1.0 + I.weights * prods) / 2.0).sum() / I.m)


def reconstruct_table(F):
    """The truth table of the expansion F, evaluated row by row."""
    out = np.zeros(2 ** F.k)
    for idx in range(2 ** F.k):
        out[idx] = F.evaluate(instances.assignment_from_index(idx, F.k))
    return out


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
