"""Walks as objects, the reference the walk tests check against.

The walk sums in nbrefute.walks never build a walk object: they read the
vertex lists of one depth-first generator (walks._nb_walks). This module
wraps those lists in Walk and BlockWalk, which validate their own shape,
so the tests can enumerate walks (enumerate_nbw) and build the census's
block walks independently of the census search.
"""

from collections import Counter

from nbrefute import linalg, walks


class Walk:
    """A walk given by its vertex sequence; steps must move."""

    def __init__(self, vertices):
        vertices = tuple(int(v) for v in vertices)
        if len(vertices) < 2:
            raise ValueError("a walk needs at least one edge")
        for i in range(len(vertices) - 1):
            if vertices[i] == vertices[i + 1]:
                raise ValueError(
                    f"step {i} does not move (vertex {vertices[i]} repeats)")
        self.vertices = vertices

    @property
    def z(self):
        """Number of edges."""
        return len(self.vertices) - 1

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def is_nonbacktracking(self):
        vs = self.vertices
        return all(vs[i] != vs[i + 2] for i in range(len(vs) - 2))

    def __eq__(self, other):
        return isinstance(other, Walk) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Walk{self.vertices}"


class BlockWalk:
    """2q non-backtracking blocks of equal length, consecutive blocks
    joined by reversing the previous block's last edge, cyclically."""

    def __init__(self, blocks):
        blocks = [b if isinstance(b, Walk) else Walk(b) for b in blocks]
        if len(blocks) < 2 or len(blocks) % 2 != 0:
            raise ValueError(
                f"need an even number of blocks, at least two, "
                f"got {len(blocks)}")
        z = blocks[0].z
        for i, blk in enumerate(blocks):
            if blk.z != z:
                raise ValueError(
                    f"block {i} has {blk.z} edges, expected {z}")
            if not blk.is_nonbacktracking():
                raise ValueError(f"block {i} backtracks")
        for i in range(len(blocks)):
            last = blocks[i].edges()[-1]
            first = blocks[(i + 1) % len(blocks)].edges()[0]
            if first != (last[1], last[0]):
                raise ValueError(
                    f"block {(i + 1) % len(blocks)} must start with the "
                    f"reverse of block {i}'s last edge")
        self.blocks = blocks
        self.z = z

    @property
    def q(self):
        return len(self.blocks) // 2

    def vertex_sequence(self):
        return [v for blk in self.blocks for v in blk.vertices]

    def edge_multiplicities(self):
        counts = Counter()
        for blk in self.blocks:
            for (u, v) in blk.edges():
                counts[(min(u, v), max(u, v))] += 1
        return counts


def is_canonical(W):
    """Whether vertices are labelled 0, 1, 2, ... in order of first visit."""
    seq = W.vertex_sequence() if isinstance(W, BlockWalk) else W.vertices
    order = []
    seen = set()
    for v in seq:
        if v not in seen:
            seen.add(v)
            order.append(v)
    return order == list(range(len(order)))


def enumerate_nbw(A, e, f, z):
    """All non-backtracking walks with z edges from oriented edge e to
    oriented edge f. Raises Infeasible when more than walks.ENUM_CAP states
    are explored."""
    z = int(z)
    if z < 1:
        raise ValueError(f"walk length must be at least one edge, got {z}")
    dense, _ = linalg.symmetric_degrees(A)
    return [Walk(vs) for vs in walks._walks_between(dense, e, f, z)]
