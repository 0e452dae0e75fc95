"""Dense linear-algebra kernels and exact brute-force oracles.

Everything downstream (edge operators, certificates, refutation pipelines)
reduces to the handful of primitives in this module:

  * Infeasible          the ValueError of a refusal by size
  * symmetric_degrees   the one matrix validator: returns a weighted graph
                        in the one form the package computes on, a dense
                        symmetric zero-diagonal array, and its degrees
  * SymWeightedMatrix   an accepted input form of the same graph, one
                        weight per pair; symmetric_degrees densifies it
  * brute_inf_to_one    exact infinity-to-one norm by sign enumeration
  * spectral_radius_upper   Frobenius power bound ||M^z||_F^(1/z)
  * real_eigenvalues    real spectrum of a square matrix
  * det_shift           determinant of a square matrix
  * cholesky_in_place   whether LAPACK's Cholesky of a matrix runs to
                        completion, factored in the matrix's own buffer

All functions but cholesky_in_place, which factors its argument in place,
are pure; all operate on float64 numpy arrays and are safe to call
concurrently. Reruns at a fixed BLAS thread count are byte-identical;
another thread count can move the last bits of a BLAS product, and so of
a result (the digest of an n = 60 refutation, walks.rho_B_experiment's
rho).
"""

import ctypes
import math

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


class Infeasible(ValueError):
    """An input refused by size, past a desk-scale cap: not malformed."""


class SymWeightedMatrix:
    """A weighted graph given by one weight per vertex pair: an input form
    that every graph entry point accepts beside a dense array, and that
    symmetric_degrees turns into the dense form the package computes on.

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
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} at index pair "
                                 f"({u},{v})")
            if w == 0.0:
                continue
            key = (u, v) if u < v else (v, u)
            if key in cleaned and cleaned[key] != w:
                raise ValueError(f"conflicting weights for pair {key}")
            cleaned[key] = w
        self.n = n
        self.entries = cleaned

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        for (u, v), w in self.entries.items():
            out[u, v] = w
            out[v, u] = w
        return out


def _square(M):
    """M as a float64 ndarray; raises unless it is a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def symmetric_degrees(M):
    """(M as a float64 ndarray, its weighted degrees sum_v |M_uv|) after
    checking that M is square, finite with finite degrees, symmetric within
    SYMMETRY_TOL and zero on the diagonal; raises ValueError naming the
    first violation. M is an array-like or a SymWeightedMatrix, which is
    densified first. One scratch matrix serves both the degrees and the
    asymmetry check."""
    if isinstance(M, SymWeightedMatrix):
        M = M.to_dense()
    M = _square(M)
    work = np.abs(M)
    degs = work.sum(axis=1)
    # a NaN or infinite entry makes its row's degree non-finite
    bad = np.flatnonzero(~np.isfinite(degs))
    if bad.size:
        u = bad[0]
        v = np.flatnonzero(~np.isfinite(M[u]))
        if v.size:
            raise ValueError(
                f"non-finite entry {M[u, v[0]]} at index ({u}, {v[0]})")
        raise ValueError(f"weighted degree of row {u} overflows")
    asym = (np.abs(np.subtract(M, M.T, out=work), out=work).max()
            if M.size else 0.0)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    bad = np.flatnonzero(np.diagonal(M))
    if bad.size:
        raise ValueError(f"nonzero diagonal entry at index {bad[0]}")
    return M, degs


def brute_inf_to_one(M):
    """Exact infinity-to-one norm: max of x^T M y over sign vectors x, y.

    For fixed x the optimal y is sign(M^T x) entrywise (ties broken to +1,
    which cannot change the maximum since tied coordinates contribute zero),
    so only x is enumerated; the symmetry x -> -x halves the search again.

    Args:
      M: 2d array, rows x cols, at most BRUTE_ROWS_CAP rows; 2^(rows-1)
        sign vectors are visited.

    Returns:
      The exact maximum, a nonnegative float.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2d array, got ndim={M.ndim}")
    rows = M.shape[0]
    if rows > BRUTE_ROWS_CAP:
        raise Infeasible(
            f"oracle infeasible: {rows} rows exceeds enumeration cap "
            f"{BRUTE_ROWS_CAP}")
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


def spectral_radius_upper(M, z):
    """Upper bound on the spectral radius: ||M^z||_F^(1/z).

    The Frobenius norm is submultiplicative, so the returned value is
    always >= rho(M) in exact arithmetic. The bound need not improve
    monotonically with z; callers may take a minimum over several z.
    M^z is formed by binary powering over the bits of z from the top: a
    squaring per bit, times M for each set bit (4 products for z = 16, 3
    for z = 6), holding M, one power and one product at a time; M is
    never written. Before every product and before the norm, a power whose
    largest absolute entry lies outside [_RESCALE_BELOW, _RESCALE_ABOVE]
    and is nonzero is divided by it, with the factor kept as a logarithm,
    so the computation neither overflows nor silently underflows to zero.

    Args:
      M: square 2d array.
      z: power count, >= 1.

    Raises ValueError if the norm is not finite (a product overflowed
    despite the rescaling), so that NaN never passes for a bound.
    """
    M = _square(M)
    z = int(z)
    if z < 1:
        raise ValueError(f"power count must be >= 1, got {z}")
    if M.shape[0] == 0:
        return 0.0
    P = M
    log_scale = 0.0
    # the last op, ".", is the norm
    for op in "".join("S" + "M" * int(bit) for bit in bin(z)[3:]) + ".":
        s = np.abs(P).max()
        if s > _RESCALE_ABOVE or 0.0 < s < _RESCALE_BELOW:
            P, log_scale = P / s, log_scale + np.log(s)
        if op == "S":
            P = P @ P
            log_scale *= 2.0
        elif op == "M":
            P = P @ M
    v = float(np.sqrt((P * P).sum()))
    if not np.isfinite(v):
        raise ValueError(f"power bound overflowed: norm of the rescaled "
                         f"power is {v}")
    if v == 0.0:
        return 0.0
    return float(np.exp((np.log(v) + log_scale) / z))


def real_eigenvalues(M):
    """Real parts of the eigenvalues of a square matrix with |imag| <=
    DEFAULT_IM_TOL, from one dense eigensolve (empty when there are none).
    Raises Infeasible beyond EIG_DIM_CAP, read at call time."""
    M = _square(M)
    dim = M.shape[0]
    if dim > EIG_DIM_CAP:
        raise Infeasible(
            f"eigensolve infeasible: dimension {dim} exceeds cap "
            f"{EIG_DIM_CAP}")
    if dim == 0:
        return np.zeros(0)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed to converge: {exc}") from exc
    return w.real[np.abs(w.imag) <= DEFAULT_IM_TOL]


def det_shift(M):
    """Determinant (LU with partial pivoting); the workhorse for evaluating
    shifted-identity determinants on both sides of the edge/vertex identity."""
    return float(np.linalg.det(_square(M)))


# LAPACK dpotrf under the names numpy's builds export it: scipy-openblas
# (numpy 2 wheels) and plain OpenBLAS, each with 64-bit and 32-bit integers.
_POTRF_SYMBOLS = ("scipy_dpotrf_64_", "dpotrf_64_", "scipy_dpotrf_",
                  "dpotrf_")


def _call_potrf(routine, a):
    """LAPACK info of routine('L') on the Fortran view of a's rows, which
    is a's upper triangle read row by row. The integers are 64-bit and
    zero-initialised, so a routine with 32-bit integers reads the same
    values on a little-endian machine (the check at import sees to that)."""
    dim = ctypes.c_int64(a.shape[0])
    lda = ctypes.c_int64(max(1, a.strides[0] // a.itemsize))
    info = ctypes.c_int64(0)
    routine(b"L", ctypes.byref(dim), a.ctypes.data, ctypes.byref(lda),
            ctypes.byref(info), 1)
    return info.value


def _resolve_potrf():
    """(name, routine) of dpotrf in the LAPACK numpy.linalg links, if one
    resolves and reproduces np.linalg.cholesky on a tiny positive definite
    block (a leading view, so lda > n) and refuses a tiny indefinite one;
    else (None, None)."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None, None
    for name in _POTRF_SYMBOLS:
        routine = getattr(lib, name, None)
        if routine is not None:
            break
    else:
        return None, None
    # the trailing size_t is the length of "L", for LAPACKs built by gfortran
    int64 = ctypes.POINTER(ctypes.c_int64)
    routine.argtypes = [ctypes.c_char_p, int64, ctypes.c_void_p, int64, int64,
                        ctypes.c_size_t]
    routine.restype = None
    pd = np.array([[4.0, 2.0, 0.5], [2.0, 5.0, 1.0], [0.5, 1.0, 3.0]])
    buf, want = np.full((3, 4), 7.0), np.full((3, 4), 7.0)
    buf[:, :3] = pd
    want[:, :3] = np.tril(pd, -1) + np.linalg.cholesky(pd).T
    if (_call_potrf(routine, buf[:, :3]) != 0
            or not np.array_equal(buf, want)
            or _call_potrf(routine, np.array([[1.0, 2.0], [2.0, 1.0]])) <= 0):
        return None, None
    return name, routine


# The resolved symbol (None where np.linalg.cholesky stands in) and routine.
POTRF_SYMBOL, _POTRF = _resolve_potrf()


def cholesky_in_place(a):
    """Whether LAPACK's Cholesky (dpotrf) of the square float64 matrix a
    runs to completion, every pivot finite and positive. It reads a's
    upper triangle with the diagonal, row by row, and may overwrite it:
    with the factor R, R^T R = a, on success, and with partial work on
    failure. The strict lower triangle is never read or written. a's rows
    must be contiguous (a C-ordered array or a leading block of one, so
    lda may exceed the order) and writable; no copy of a is made.

    The routine is the one np.linalg.cholesky calls, found in numpy's own
    LAPACK at import (POTRF_SYMBOL), and on a symmetric a its factor equals
    np.linalg.cholesky(a).T bit for bit. Where none resolves,
    np.linalg.cholesky(a.T) stands in: the same routine on the same
    triangle in the same layout, so the same verdict, from a work copy and
    a returned factor beside a, which it leaves as it is. OpenBLAS stops
    only at a pivot <= 0, which a NaN is not, so a NaN or infinite entry
    runs through to a non-finite pivot: that counts as a failure here."""
    if (not isinstance(a, np.ndarray) or a.dtype != np.float64
            or a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise ValueError("expected a square float64 ndarray")
    if a.shape[0] > 1 and (a.strides[1] != a.itemsize
                           or a.strides[0] < a.shape[0] * a.itemsize):
        raise ValueError("cholesky_in_place needs contiguous rows")
    if not a.flags.writeable:
        raise ValueError("cholesky_in_place needs a writable array")
    if _POTRF is None:
        try:
            pivots = np.linalg.cholesky(a.T).diagonal()
        except np.linalg.LinAlgError:
            return False
    else:
        info = _call_potrf(_POTRF, a)
        if info < 0:
            raise ValueError(f"dpotrf refused argument {-info}")
        if info:
            return False
        pivots = a.diagonal()
    return bool(np.isfinite(pivots).all())
