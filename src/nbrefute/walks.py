"""Walk combinatorics backing the spectral bounds: walk-sum identities
for powers and traces of the oriented-edge operator, canonical-walk
censuses with tangle filters and their closed-form ceiling, and the
spectral-radius experiment on signed sparse graphs.

All enumeration here is exhaustive and desk-scale by design; feasibility
caps on the graph and walk sizes reject inputs whose walk counts would
explode before any search, and one hard cap on explored states,
ENUM_CAP, backstops them. One depth-first walker (_nb_walks) serves
every walk sum; the census keeps its own.
"""

import functools
import math
from collections import Counter

import numpy as np

from . import linalg
from . import nonbacktracking

ENUM_CAP = 10 ** 7
CENSUS_MAX_V = 6
CENSUS_MAX_EDGES = 8
TRACE_MAX_N = 5
TRACE_MAX_Z = 3
TRACE_MAX_Q = 2
# a power entry walks one block, a trace 2q of them
ENTRY_MAX_Z = 4


def _neighbors(dense):
    return [np.flatnonzero(dense[u]).tolist() for u in range(dense.shape[0])]


def _check_edge(dense, e, name):
    u, v = int(e[0]), int(e[1])
    n = dense.shape[0]
    if not (0 <= u < n and 0 <= v < n) or dense[u, v] == 0.0:
        raise ValueError(f"{name}={(u, v)} is not an oriented edge")
    return u, v


def _nb_walks(neigh, path, z, explored):
    """Yield path extended to every non-backtracking walk of z edges, depth
    first in neighbour order. path, a vertex list starting with an oriented
    edge, is extended in place, so read it before resuming. explored, a
    one-item list shared by every search of one call, counts the partial
    walks tried; past ENUM_CAP (read at call time) it raises Infeasible."""
    if len(path) > z:
        yield path
        return
    for w in neigh[path[-1]]:
        if w != path[-2]:
            explored[0] += 1
            if explored[0] > ENUM_CAP:
                raise linalg.Infeasible(
                    f"enumeration cap exceeded: more than {ENUM_CAP} "
                    f"partial walks explored")
            path.append(w)
            yield from _nb_walks(neigh, path, z, explored)
            path.pop()


def _walks_between(dense, e, f, z):
    """The vertex lists of the non-backtracking walks of z edges from
    oriented edge e to oriented edge f of the graph dense, lazily."""
    e = _check_edge(dense, e, "e")
    f = _check_edge(dense, f, "f")
    found = _nb_walks(_neighbors(dense), list(e), z, [0])
    return (vs for vs in found if vs[-1] == f[1] and vs[-2] == f[0])


def _block_weight(dense, vs):
    """sqrt(|w(first edge)| |w(last edge)|) times the interior edge
    weights of the walk through the vertices vs, in walk order."""
    w = math.sqrt(abs(dense[vs[0], vs[1]]) * abs(dense[vs[-2], vs[-1]]))
    for i in range(1, len(vs) - 2):
        w *= dense[vs[i], vs[i + 1]]
    return w


def nbw_power_entry(A, e, f, z):
    """Walk-sum expansion of entry (e, f) of the (z-1)-th power of the
    oriented-edge operator: over non-backtracking walks of z edges from e
    to f, sum

        sgn(first edge reversed) * sgn(last edge)
          * sqrt(|w(first)| |w(last)|) * prod of interior edge weights,

    where sgn(u, v) is the weight's sign when u < v and +1 otherwise.
    Graphs past TRACE_MAX_N vertices and walks past ENTRY_MAX_Z edges are
    refused before any search.
    """
    z = int(z)
    if z < 2:
        raise ValueError(f"walk length must be at least two edges, got {z}")
    dense, _ = linalg.symmetric_degrees(A)
    n = dense.shape[0]
    if n > TRACE_MAX_N or z > ENTRY_MAX_Z:
        raise linalg.Infeasible(
            f"enumeration infeasible: (n={n}, z={z}) exceeds caps "
            f"(n<={TRACE_MAX_N}, z<={ENTRY_MAX_Z})")
    total = 0.0
    for vs in _walks_between(dense, e, f, z):
        sign = 1.0
        for u, v in ((vs[1], vs[0]), (vs[-2], vs[-1])):
            if u < v and dense[u, v] < 0:
                sign = -sign
        total += sign * _block_weight(dense, vs)
    return total


def trace_walk_sum(A, q, z):
    """Walk-sum expansion of Tr[(M M^T)^q] for M the (z-1)-th power of the
    oriented-edge operator: over block walks of 2q non-backtracking blocks
    of z edges, wrap-linked cyclically, sum the product over blocks of
    sqrt(|w(first)| |w(last)|) times the interior edge weights. The sign
    factors cancel in pairs at the junctions, so none appear."""
    q = int(q)
    z = int(z)
    if q < 1:
        raise ValueError(f"need at least one block pair, got q={q}")
    if z < 2:
        raise ValueError(f"blocks need at least two edges, got z={z}")
    dense, _ = linalg.symmetric_degrees(A)
    n = dense.shape[0]
    if n > TRACE_MAX_N or z > TRACE_MAX_Z or q > TRACE_MAX_Q:
        raise linalg.Infeasible(
            f"enumeration infeasible: (n={n}, z={z}, q={q}) exceeds caps "
            f"(n<={TRACE_MAX_N}, z<={TRACE_MAX_Z}, q<={TRACE_MAX_Q})")
    neigh = _neighbors(dense)
    explored = [0]
    total = 0.0

    def blocks(bi, start, weight, closing):
        nonlocal total
        for vs in _nb_walks(neigh, list(start), z, explored):
            w = weight * _block_weight(dense, vs)
            if bi + 1 < 2 * q:
                blocks(bi + 1, (vs[-1], vs[-2]), w, closing)
            elif (vs[-2], vs[-1]) == closing:
                total += w

    for u in range(n):
        for v in neigh[u]:
            blocks(0, (u, v), 1.0, (v, u))
    return total


@functools.lru_cache(maxsize=None)
def _canonical_census(q, z, v_cap):
    """Census of canonical interesting block walks with 2q blocks of z
    edges on at most v_cap vertices: a dict mapping (vertex count, distinct
    undirected edge count, max per-block cycle excess) to the number of
    walks."""
    total_edges = 2 * q * z
    max_distinct = q * z
    results = {}
    edge_count = Counter()
    taus = []
    state = {"used": 2, "lone": 0, "taken": 0, "explored": 0}

    def push_edge(a, b):
        key = (a, b) if a < b else (b, a)
        c = edge_count[key]
        edge_count[key] = c + 1
        state["taken"] += 1
        if c == 0:
            state["lone"] += 1
        elif c == 1:
            state["lone"] -= 1

    def pop_edge(a, b):
        key = (a, b) if a < b else (b, a)
        c = edge_count[key]
        if c == 1:
            del edge_count[key]
            state["lone"] -= 1
        else:
            edge_count[key] = c - 1
            if c == 2:
                state["lone"] += 1
        state["taken"] -= 1

    def block_tau(vs):
        verts = set(vs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(vs, vs[1:])}
        return len(edges) - len(verts) + 1

    def fill(bi, cur):
        if len(edge_count) > max_distinct:
            return
        if state["lone"] > total_edges - state["taken"]:
            return
        if len(cur) == z + 1:
            taus.append(block_tau(cur))
            if bi + 1 == 2 * q:
                if (cur[-2], cur[-1]) == (1, 0) and state["lone"] == 0:
                    key = (state["used"], len(edge_count), max(taus))
                    results[key] = results.get(key, 0) + 1
            else:
                push_edge(cur[-1], cur[-2])
                fill(bi + 1, [cur[-1], cur[-2]])
                pop_edge(cur[-1], cur[-2])
            taus.pop()
            return
        candidates = list(range(state["used"]))
        if state["used"] < v_cap:
            candidates.append(state["used"])
        for nxt in candidates:
            if nxt == cur[-1] or (len(cur) >= 2 and nxt == cur[-2]):
                continue
            state["explored"] += 1
            if state["explored"] > ENUM_CAP:
                raise linalg.Infeasible(
                    f"census infeasible: enumeration cap {ENUM_CAP} exceeded")
            fresh = nxt == state["used"]
            if fresh:
                state["used"] += 1
            push_edge(cur[-1], nxt)
            cur.append(nxt)
            fill(bi, cur)
            cur.pop()
            pop_edge(cur[-1], nxt)
            if fresh:
                state["used"] -= 1

    if v_cap >= 2:
        push_edge(0, 1)
        fill(0, [0, 1])
        pop_edge(0, 1)
    return results


def count_canonical(q, z, v, e, t):
    """Number of canonical interesting block walks (2q blocks of z edges,
    wrap-linked, every undirected edge traversed at least twice) with
    exactly v vertices, exactly e distinct undirected edges, and per-block
    cycle excess at most t."""
    q = int(q)
    z = int(z)
    v = int(v)
    e = int(e)
    t = int(t)
    if q < 1 or z < 1:
        raise ValueError(f"need q >= 1 and z >= 1, got q={q}, z={z}")
    if v > CENSUS_MAX_V or q * z > CENSUS_MAX_EDGES:
        raise linalg.Infeasible(
            f"census infeasible: (v={v}, q*z={q * z}) exceeds caps "
            f"(v<={CENSUS_MAX_V}, q*z<={CENSUS_MAX_EDGES})")
    if v < 2 or e < v - 1:
        return 0
    census = _canonical_census(q, z, v)
    return sum(count for (vv, ee, tau), count in census.items()
               if vv == v and ee == e and tau <= t)


def canonical_count_bound(q, z, v, e, t):
    """Closed-form ceiling z^(4tq) (2zq)^(6tq(e-v+1)) on the canonical
    interesting tangle-free walk count with the given parameters. Values
    beyond float range saturate to inf (a ceiling is still a ceiling)."""
    try:
        return (float(z) ** (4 * t * q)
                * float(2 * z * q) ** (6 * t * q * (e - v + 1)))
    except OverflowError:
        return float("inf")


def sample_gamma_graph(n, d, seed):
    """Erdos-Renyi signed graph as a dense symmetric n x n array: each pair
    an edge with probability d/n, weight +-1 equiprobable, from one uniform
    per pair (the weight is +1 when the draw lies below d/2n). d = n gives
    the complete graph."""
    n = int(n)
    d = float(d)
    if not (0.0 < d <= n):
        raise ValueError(f"average degree d must be in (0, n], got {d}")
    rng = np.random.default_rng(seed)
    p = d / n
    iu, iv = np.triu_indices(n, 1)
    draws = rng.random(iu.shape[0])
    hits = draws < p
    dense = np.zeros((n, n))
    dense[iu[hits], iv[hits]] = np.where(draws[hits] < p / 2.0, 1.0, -1.0)
    return dense + dense.T


def rho_B_experiment(n, d, seeds, z=16):
    """Spectral radius of the oriented-edge operator on signed sparse
    graphs, against sqrt(d) and against the z-th-root power bound of
    the companion matrix (linalg.spectral_radius_upper).

    For +-1 weights the operator's spectrum is the quadratic-pencil root
    set padded with +-1 when edges outnumber vertices, so the radius comes
    from a 2n x 2n eigensolve; tiny graphs with fewer edges than vertices
    fall back to the explicit operator, B + L - J = B on +-1 weights.
    Returns a report with one record per seed and the median of
    rho / sqrt(d)."""
    records = []
    for seed in seeds:
        dense, degs = linalg.symmetric_degrees(sample_gamma_graph(n, d, seed))
        m = np.count_nonzero(np.triu(dense, 1))
        C = nonbacktracking.companion_matrix(dense, degs)
        if m >= n:
            roots = np.linalg.eigvals(C)
            rho = float(np.max(np.abs(roots)))
            if m > n:
                rho = max(rho, 1.0)
        elif m > 0:
            M = nonbacktracking.edge_operator(dense)
            rho = float(np.max(np.abs(np.linalg.eigvals(M))))
        else:
            rho = 0.0
        gel = linalg.spectral_radius_upper(C, z) if m > 0 else 0.0
        records.append({
            "n": n,
            "d": d,
            "seed": seed,
            "rho_B": rho,
            "gelfand_z": gel,
            "ratio": rho / math.sqrt(d),
        })
    ratios = [r["ratio"] for r in records]
    return {
        "n": n,
        "d": d,
        "z": z,
        "records": records,
        "median_ratio": float(np.median(ratios)) if ratios else None,
    }

