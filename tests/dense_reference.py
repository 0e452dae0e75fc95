"""The dense flattened matrix A = A' + A'' of the XOR chain, built whole.

The refutation pipelines never hold A: refute._swap_parts builds only what
the chain reads of it. This module builds all of it, from the same blocks
(refute._gram_blocks) and the same overlap mask (refute._overlap_at_least),
so the tests can compare the two entry for entry. Every refute helper is
read through the module attribute at call time, so a test that monkeypatches
one of them changes the pipeline and this reference alike.
"""

import math

import numpy as np

from nbrefute import refute

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
        tup = tuple(alpha) + tuple(beta)
        for i in tup:
            if not (0 <= i < self.n):
                raise ValueError(f"index {i} out of range for n={self.n}")
        return int(np.ravel_multi_index(tup, (self.n,) * len(tup)))

    def pair_of(self, row):
        digits = tuple(int(d) for d in np.unravel_index(
            int(row), (self.n,) * (self.k - 1)))
        return digits[:self.half], digits[self.half:]


def flatten(I):
    """Flatten the instance tensor to the dense matrix
    A[(alpha,beta),(alpha',beta')] = sum_l T(alpha,alpha',l) T(beta,beta',l)
    for k = 3, and the analogous split over middle indices for larger odd k:
    the unfolding product V V^T with its two middle half-indices swapped,
    symmetric with zero diagonal."""
    n, k = I.n, I.k
    refute._require_odd_arity(k)
    dim = n ** (k - 1)
    if dim > FLATTEN_DIM_CAP:
        raise ValueError(
            f"flatten infeasible: dense dimension {dim} exceeds cap "
            f"{FLATTEN_DIM_CAP}")
    q = n ** ((k - 1) // 2)
    base = np.zeros((dim, dim))
    grid = base.reshape(q, q, q, q)
    for a, diagonal, strip in refute._gram_blocks(refute._unfolding(I), q):
        # block beta of the strip is V_beta V_alpha^T, row (beta, alpha)'s
        blocks = strip.reshape(q - a - 1, q, q)
        grid[a, a] = diagonal
        grid[a + 1:, a] = blocks
        grid[a, a + 1:] = blocks.transpose(0, 2, 1)
    return FlattenedMatrix(base, n, k)


def split(F):
    """Split A into (A', A'') by the overlap of the two tensor-factor index
    groups: an entry at row (alpha, beta), column (alpha', beta') stays in
    A' exactly when the multisets {alpha, alpha'} and {beta, beta'} share at
    most (k-3)/2 indices. A' + A'' = A exactly.
    """
    digits = refute._digits(F.n, F.k)
    q = F.n ** F.half
    # the mask's rows are (beta, beta'), its columns (alpha, alpha')
    drop = refute._overlap_at_least(
        digits, 0, F.half, F.n, refute._digits(F.n, F.half + 1)).reshape(
            q, q, q, q).transpose(2, 0, 3, 1).reshape(F.base.shape)
    main = np.where(drop, 0.0, F.base)
    return (FlattenedMatrix(main, F.n, F.k),
            FlattenedMatrix(F.base - main, F.n, F.k))


def residual_bound(F):
    """Entrywise bound sum |A''_ij| (correctly rounded) on ||A''||_inf->1."""
    return math.fsum(np.abs(F.base[F.base != 0]).tolist())
