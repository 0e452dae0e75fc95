"""Dense linear-algebra kernels and exact brute-force oracles.

Everything downstream (edge operators, certificates, refutation pipelines)
reduces to the handful of primitives in this module:

  * SymWeightedMatrix   sparse container for symmetric zero-diagonal weights
  * brute_inf_to_one    exact infinity-to-one norm by sign enumeration
  * spectral_radius_upper   power-norm upper bound ||M^z||^(1/z)
  * min_real_eigenvalue     smallest real eigenvalue of a square matrix
  * det_shift / frobenius / abs_entry_sum / min_eig_symmetric

All functions are pure, operate on float64 numpy arrays, and are safe to call
concurrently; reductions run in a fixed order so results do not depend on
thread count.
"""

import numpy as np

BRUTE_ROWS_CAP = 24
EIG_DIM_CAP = 4000
SYMMETRY_TOL = 1e-10
DEFAULT_IM_TOL = 1e-9

# Chunk of sign vectors evaluated per matrix product in brute_inf_to_one.
_ENUM_CHUNK = 1 << 14
# Rescaling threshold for power iterations (guards against overflow and
# against powers silently underflowing to zero).
_RESCALE_ABOVE = 1e120
_RESCALE_BELOW = 1e-120


class SymWeightedMatrix:
    """Symmetric real matrix with zero diagonal, one stored weight per pair.

    entries maps an index pair (u, v) with u < v to a nonzero weight; pairs
    that are absent are zero. The diagonal is identically zero and weights
    equal to zero are dropped on construction, so the stored map is exactly
    the edge set of the weighted graph.
    """

    def __init__(self, n, entries):
        n = int(n)
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        cleaned = {}
        for (u, v), w in entries.items():
            u = int(u)
            v = int(v)
            if u == v:
                raise ValueError(f"nonzero diagonal entry at index {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"index pair ({u},{v}) out of range for n={n}")
            w = float(w)
            if w == 0.0:
                continue
            key = (u, v) if u < v else (v, u)
            if key in cleaned and cleaned[key] != w:
                raise ValueError(f"conflicting weights for pair {key}")
            cleaned[key] = w
        self.n = n
        self.entries = cleaned

    @classmethod
    def from_dense(cls, arr):
        """Build from a dense symmetric array; rejects asymmetry and nonzero
        diagonal, naming the offending index."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        asym = np.abs(arr - arr.T).max() if n else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e}")
        bad_diag = np.flatnonzero(np.diagonal(arr))
        if bad_diag.size:
            raise ValueError(f"nonzero diagonal entry at index {bad_diag[0]}")
        us, vs = np.nonzero(np.triu(arr, 1))
        entries = {(int(u), int(v)): float(arr[u, v]) for u, v in zip(us, vs)}
        return cls(n, entries)

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        for (u, v), w in self.entries.items():
            out[u, v] = w
            out[v, u] = w
        return out

    def degrees(self):
        """Weighted degree vector: deg_u = sum_v |A_uv|."""
        deg = np.zeros(self.n)
        for (u, v), w in self.entries.items():
            deg[u] += abs(w)
            deg[v] += abs(w)
        return deg

    def edge_count(self):
        return len(self.entries)

    def negated(self):
        return SymWeightedMatrix(
            self.n, {k: -w for k, w in self.entries.items()})


def as_sym_matrix(A):
    """Coerce a dense array or SymWeightedMatrix to SymWeightedMatrix."""
    if isinstance(A, SymWeightedMatrix):
        return A
    return SymWeightedMatrix.from_dense(A)


def as_dense(A):
    """Coerce a SymWeightedMatrix or array-like to a float64 ndarray."""
    if isinstance(A, SymWeightedMatrix):
        return A.to_dense()
    return np.asarray(A, dtype=float)


def brute_inf_to_one(M, max_rows=BRUTE_ROWS_CAP):
    """Exact infinity-to-one norm: max of x^T M y over sign vectors x, y.

    For fixed x the optimal y is sign(M^T x) entrywise (ties broken to +1,
    which cannot change the maximum since tied coordinates contribute zero),
    so only x is enumerated; the symmetry x -> -x halves the search again.

    Args:
      M: 2d array, rows x cols.
      max_rows: enumeration cap; 2^(rows-1) sign vectors are visited.

    Returns:
      The exact maximum, a nonnegative float.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2d array, got ndim={M.ndim}")
    rows = M.shape[0]
    if rows > max_rows:
        raise ValueError(
            f"oracle infeasible: {rows} rows exceeds enumeration cap {max_rows}")
    if rows == 0 or M.shape[1] == 0:
        return 0.0
    # x[rows-1] is pinned to +1; the remaining rows-1 signs come from the
    # bits of a chunked counter.
    free = rows - 1
    total = 1 << free
    shifts = np.arange(free, dtype=np.int64)
    best = 0.0
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        X = np.empty((idx.size, rows))
        X[:, :free] = ((idx[:, None] >> shifts[None, :]) & 1) * 2.0 - 1.0
        X[:, free] = 1.0
        vals = np.abs(X @ M).sum(axis=1)
        chunk_best = vals.max()
        if chunk_best > best:
            best = chunk_best
    return float(best)


def _matrix_norm(P, norm):
    if norm == "frobenius":
        return float(np.sqrt((P * P).sum()))
    if norm == "inf_induced":
        return float(np.abs(P).sum(axis=1).max())
    raise ValueError(f"unknown norm {norm!r}; use 'frobenius' or 'inf_induced'")


def spectral_radius_upper(M, z, norm="frobenius"):
    """Upper bound on the spectral radius: ||M^z||^(1/z).

    Valid for any submultiplicative matrix norm, so the returned value is
    always >= rho(M) in exact arithmetic. The bound need not improve
    monotonically with z; callers may take a minimum over several z.
    M^z is formed by binary powering over the bits of z from the top (a
    squaring per bit, times M for each set bit: 4 products for z = 16, 3
    for z = 6), holding M, one power and one product at a time; M is never
    written. The power is rescaled before every product so the computation
    neither overflows nor silently underflows to zero.

    Args:
      M: square 2d array.
      z: power count, >= 1.
      norm: 'frobenius' or 'inf_induced' (max absolute row sum).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    z = int(z)
    if z < 1:
        raise ValueError(f"power count must be >= 1, got {z}")
    if M.shape[0] == 0:
        return 0.0
    # one squaring per bit of z below the leading one, then a product with
    # M if the bit is set: P * exp(log_scale) = M^e for the bits read so far
    P = M
    log_scale = 0.0
    for op in "".join("S" + "M" * int(bit) for bit in bin(z)[3:]):
        P, log_scale = _rescaled(P, log_scale)
        if op == "S":
            P = P @ P
            log_scale *= 2.0
        else:
            P = P @ M
    P, log_scale = _rescaled(P, log_scale)
    v = _matrix_norm(P, norm)
    if v == 0.0:
        return 0.0
    return float(np.exp((np.log(v) + log_scale) / z))


def _rescaled(P, log_scale):
    """(P / s, log_scale + log s) for s = max |P| when s lies outside
    [_RESCALE_BELOW, _RESCALE_ABOVE] and is nonzero; else unchanged. P is
    never written."""
    s = np.abs(P).max()
    if s > _RESCALE_ABOVE or 0.0 < s < _RESCALE_BELOW:
        return P / s, log_scale + np.log(s)
    return P, log_scale


def min_real_eigenvalue(M, im_tol=DEFAULT_IM_TOL, max_dim=EIG_DIM_CAP):
    """Smallest real eigenvalue of a square matrix, or None.

    An eigenvalue counts as real when |imag| <= im_tol. Returns None when no
    eigenvalue is real within tolerance (e.g. a rotation matrix).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    dim = M.shape[0]
    if dim > max_dim:
        raise ValueError(
            f"eigensolve infeasible: dimension {dim} exceeds cap {max_dim}")
    if dim == 0:
        return None
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed to converge: {exc}") from exc
    real = w.real[np.abs(w.imag) <= im_tol]
    if real.size == 0:
        return None
    return float(real.min())


def det_shift(M):
    """Determinant (LU with partial pivoting); the workhorse for evaluating
    shifted-identity determinants on both sides of the edge/vertex identity."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.linalg.det(M))


def frobenius(M):
    M = np.asarray(M, dtype=float)
    return float(np.sqrt((M * M).sum()))


def abs_entry_sum(M):
    M = np.asarray(M, dtype=float)
    return float(np.abs(M).sum())


def min_eig_symmetric(M, tol=SYMMETRY_TOL):
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric input)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("empty matrix has no eigenvalues")
    asym = np.abs(M - M.T).max()
    if asym > tol:
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds {tol}")
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    return float(w[0])
