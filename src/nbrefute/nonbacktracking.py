"""The oriented-edge operator B + L - J of a symmetric weighted graph in
every form the package uses: the matrix bundle, the explicit operator and
its vertex-space companion.

A symmetric zero-diagonal weight matrix A on n vertices with m weighted edges
induces 2m oriented edges. This module builds the bundle of matrices living
on vertex and edge space:

  S, T : n x 2m     signed square-root source / target incidence
  J    : 2m x 2m    orientation swap, J[e, e_inverse] = 1
  L    : 2m x 2m    orientation swap with weights, L[e, e_inverse] = |A_e|
  D    : n x n      diagonal of weighted degrees, D_uu = sum_w |A_uw|
  B    : 2m x 2m    non-backtracking operator (definition below)

B[e, f] is nonzero exactly when f continues e without reversing it
(target(e) = source(f) and f != inverse(e)); the magnitude is
sqrt(|A_e| |A_f|) and the sign depends on how the shared middle vertex v
compares with the outer endpoints u (of e = uv) and w (of f = vw):

  v smaller than both   -> sign(A_e) * sign(A_f)
  w < v < u             -> sign(A_e)
  u < v < w             -> sign(A_f)
  v larger than both    -> +1

These conventions make the incidence identities hold exactly:
SJ = T, TJ = S, A = S T^t, D = S S^t = T T^t, and B + L = T^t S, and they
tie edge space to vertex space through the determinant identity

  det(Id_2m - u(B + L - J))
      = (1 - u^2)^(m-n) * det(Id_n - uA + u^2 D - u^2 Id_n),

which ihara_bass_residual evaluates at a given u. So the spectrum of
B + L - J is the root set of det(x^2 Id - xA + (D - Id)), the spectrum of
companion_matrix, plus copies of +-1.

incidence builds S and T alone, in canonical edge order, from the upper
triangle of a dense matrix the caller has validated, in one vectorized
pass: the small endpoint of each pair carries the weight's sign on both
orientations. build assembles the rest of the bundle around them;
edge_operator never forms J, L or B.
"""

import typing

import numpy as np

from . import linalg


class OrientedEdgeIndex:
    """Canonical ordering of the 2m oriented edges of a weighted graph.

    Edges are sorted by (min endpoint, max endpoint, orientation): for the
    p-th undirected pair {u, v} with u < v, edge id 2p is (u, v) and edge id
    2p+1 is (v, u). inverse_of is an integer array.
    """

    def __init__(self, pairs):
        edges = []
        for (u, v) in pairs:
            edges.append((u, v))
            edges.append((v, u))
        self.edges = edges
        self.inverse_of = np.arange(len(edges)) ^ 1

    def __len__(self):
        return len(self.edges)


class GraphMatrices(typing.NamedTuple):
    """Immutable bundle of the matrices built from one weight matrix."""
    A_dense: np.ndarray
    index: OrientedEdgeIndex
    n: int
    m: int
    S: np.ndarray
    T: np.ndarray
    J: np.ndarray
    L: np.ndarray
    B: np.ndarray
    D: np.ndarray


def incidence(dense):
    """(w, S, T) for the graph whose weights are the strict upper triangle
    of dense, which the caller has validated (square, finite, zero
    diagonal): w holds the m nonzero weights in canonical pair order and
    S, T are the n x 2m source and target incidences in canonical edge
    order. For the p-th pair u < v, with r = sqrt|w_p| and s = sign(w_p),
    edge 2p = (u, v) has S[u] = s r and T[v] = r, and edge 2p + 1 = (v, u)
    has S[v] = r and T[u] = s r: the smaller endpoint carries the sign."""
    us, vs = np.nonzero(np.triu(dense, 1))
    w = dense[us, vs]
    root = np.sqrt(np.abs(w))
    signed = np.where(w > 0, root, -root)
    even = np.arange(0, 2 * w.size, 2)
    S = np.zeros((dense.shape[0], 2 * w.size))
    T = np.zeros_like(S)
    S[us, even] = signed
    T[vs, even] = root
    S[vs, even + 1] = root
    T[us, even + 1] = signed
    return w, S, T


def build(A):
    """Build the full oriented-edge bundle from a symmetric weight matrix.

    Args:
      A: a weighted graph in any form linalg.symmetric_degrees accepts;
        that call validates it and gives the degrees on D's diagonal.

    Returns:
      GraphMatrices. Edge ordering is canonical so output is deterministic.

    Raises:
      ValueError: A is malformed; linalg.Infeasible if 2m exceeds
        linalg.EIG_DIM_CAP (read at call time), before any 2m-sized array.
    """
    dense, degs = linalg.symmetric_degrees(A)
    us, vs = np.nonzero(np.triu(dense, 1))
    tm = 2 * us.size
    if tm > linalg.EIG_DIM_CAP:
        raise linalg.Infeasible(
            f"bundle infeasible: {tm} oriented edges exceeds cap "
            f"{linalg.EIG_DIM_CAP}")
    w, S, T = incidence(dense)
    index = OrientedEdgeIndex(zip(us.tolist(), vs.tolist()))

    J = np.zeros((tm, tm))
    L = np.zeros((tm, tm))
    ids = np.arange(tm)
    J[ids, index.inverse_of] = 1.0
    L[ids, index.inverse_of] = np.repeat(np.abs(w), 2)
    return GraphMatrices(dense, index, dense.shape[0], us.size, S, T, J, L,
                         _edge_product(S, T, 0.0), np.diag(degs))


def _edge_product(S, T, back):
    """T^t S with its backtracking entries (e, inverse(e)) set to back.
    B + L = T^t S holds exactly entry by entry (each entry is a single
    product), so back = 0 gives B and back = fl(|w| - 1) gives B + L - J."""
    M = T.T @ S
    ids = np.arange(M.shape[0])
    M[ids, ids ^ 1] = back
    return M


def edge_operator(dense):
    """B + L - J of the graph with weights dense (2m x 2m), explicitly:
    T^t S with its backtracking entries set to fl(|w| - 1), entry for
    entry the matrix build's B + L - J."""
    w, S, T = incidence(dense)
    return _edge_product(S, T, np.repeat(np.abs(w) - 1.0, 2))


def companion_matrix(dense, degs):
    """The 2n x 2n block companion [[A, -(D-Id)], [Id, 0]] whose spectrum is
    the root set of det(x^2 Id - xA + (D - Id))."""
    n = dense.shape[0]
    E = np.diag(degs - 1.0)
    return np.block([[dense, -E],
                     [np.eye(n), np.zeros((n, n))]])


def ihara_bass_residual(A, u, matrices=None):
    """Relative residual of the edge/vertex determinant identity at u.

    Evaluates |LHS - RHS| / max(1, |RHS|) where
      LHS = det(Id_2m - u(B + L - J))
      RHS = (1 - u^2)^(m-n) * det(Id_n - uA + u^2 D - u^2 Id_n).

    Args:
      A: a weighted graph in any form linalg.symmetric_degrees accepts.
      u: real scalar with |u| != 1.
      matrices: optional prebuilt GraphMatrices for A (avoids rebuilding when
        sweeping many u values).
    """
    u = float(u)
    if abs(u) == 1.0:
        raise ValueError("identity factor singular at u = +-1")
    G = matrices if matrices is not None else build(A)
    n, m = G.n, G.m
    tm = 2 * m
    lhs = linalg.det_shift(np.eye(tm) - u * (G.B + G.L - G.J))
    vertex = (np.eye(n) - u * G.A_dense
              + (u * u) * G.D - (u * u) * np.eye(n))
    rhs = (1.0 - u * u) ** (m - n) * linalg.det_shift(vertex)
    return abs(lhs - rhs) / max(1.0, abs(rhs))

