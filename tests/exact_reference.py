"""An exact test of positive definiteness, the oracle for the one spectral
fact of every certificate: the Cholesky-verified diagonal witness
diag(w) - S >= 0 (certify.diagonal_witness).

Every float is a dyadic rational, so one power of two scales a float
matrix to Python integers without rounding. Fraction-free Bareiss
elimination (Bareiss, Math. Comp. 22, 1968) then runs in exact integer
arithmetic: its k-th pivot is the k-th leading principal minor, so a
symmetric matrix is positive definite exactly when every pivot is
positive (Sylvester's criterion).
"""

import numpy as np


def _scaled_integers(A):
    """The rows of the square float matrix A times the least power of two
    that makes every entry an integer, as lists of Python ints."""
    n = len(A)
    ratios = [float(x).as_integer_ratio() for x in np.ravel(A)]
    scale = max((den for _, den in ratios), default=1)
    ints = [num * (scale // den) for num, den in ratios]
    return [ints[i * n:(i + 1) * n] for i in range(n)]


def is_positive_definite(A):
    """Exactly whether the symmetric float matrix A is positive definite:
    Bareiss elimination without pivoting on the scaled integer matrix, and
    every pivot positive. The empty matrix is positive definite."""
    a = _scaled_integers(A)
    n, prev = len(a), 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        row_k = a[k]
        for i in range(k + 1, n):
            row_i, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                # exact: Bareiss's quotient is a minor of the integer matrix
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
        prev = pivot
    return True
