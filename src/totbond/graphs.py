"""Immutable bitset-backed graphs and the structural queries the solvers lean on.

Vertices are 0..n-1.  Adjacency lives in a tuple of integer bitmasks, one per
vertex, so membership tests and neighborhood intersections are single
machine-word operations at desk scale.  Graphs are value objects: anything
mutation-shaped returns a new Graph.

Sentinel conventions: ``distance`` returns ``math.inf`` for unreachable pairs
and ``girth`` returns ``math.inf`` for acyclic graphs.  Neither is an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import inf

Edge = tuple[int, int]


class IsolatedVertexError(ValueError):
    """Raised when an operation is only defined on isolate-free graphs."""


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def asymmetric_edge(masks, back: list[int]) -> Edge | None:
    """The first (v, u), by v and then u, with u in masks[v] but v not in
    masks[u]; None when the masks are symmetric.

    back is the transpose of masks (back[u] holds v exactly when masks[v]
    holds u), which callers collect in the pass that checks each entry.
    The masks are symmetric exactly when they equal it.
    """
    if list(masks) == back:
        return None
    for v, a in enumerate(masks):
        missing = a & ~back[v]
        if missing:
            return (v, (missing & -missing).bit_length() - 1)
    return None


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        """Check that adj holds n symmetric masks, without self-loops or
        bits at or above n."""
        n, adj = self.n, self.adj
        if len(adj) != n:
            raise ValueError(f"{len(adj)} adjacency masks for n={n}")
        back = [0] * n
        for v, a in enumerate(adj):
            if a >> n:
                raise ValueError(f"vertex {v} has a neighbour out of range for n={n}")
            if a >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            bit = 1 << v
            while a:
                low = a & -a
                back[low.bit_length() - 1] |= bit
                a ^= low
        edge = asymmetric_edge(adj, back)
        if edge is not None:
            raise ValueError(f"adjacency not symmetric on edge {edge}")

    @staticmethod
    def _trusted(n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from masks that are valid by construction.  It skips the
        checks of a raw `Graph(n, adj)`, one step per mask bit, which the
        decoders, generators and edits would pay on every graph."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph on n vertices from an iterable of vertex pairs."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for pair in edges:
            u, v = edge_key(*pair)
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph._trusted(n, tuple(masks))

    # -- basic structure ----------------------------------------------------

    @cached_property
    def m(self) -> int:
        """Edge count, summed once per graph: campaigns ask it several times."""
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in _bits(higher):
                out.append((u, u + 1 + off))
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = edge_key(u, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        """Vertex degrees, counted once per graph: detectors and bounds read them often."""
        return tuple(map(int.bit_count, self.adj))

    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    def max_degree(self) -> int:
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        """Maximum degree, found once per graph: witness claims and bounds ask it often."""
        return max(map(int.bit_count, self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def has_isolated_vertex(self) -> bool:
        return 0 in self.adj

    def delete_edges(self, edges) -> "Graph":
        """Return the graph with the given edges removed.  All must exist."""
        masks = list(self.adj)
        for pair in edges:
            u, v = edge_key(*pair)
            if not (0 <= u and v < self.n) or not masks[u] >> v & 1:
                raise ValueError(f"edge ({u}, {v}) not present")
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(masks))

    def relabel(self, perm) -> "Graph":
        """Apply a permutation (perm[old] = new) to the vertex labels."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        masks = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                masks[perm[u]] |= 1 << perm[v]
        return Graph._trusted(self.n, tuple(masks))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._trusted(
            self.n,
            tuple((full & ~a & ~(1 << v)) for v, a in enumerate(self.adj)),
        )

    # -- connectivity and metrics -------------------------------------------

    def _layers(self, v: int):
        """Yield the breadth-first layers around v as disjoint masks, {v} first."""
        adj = self.adj
        seen = layer = 1 << v
        while layer:
            yield layer
            nxt = 0
            for w in _bits(layer):
                nxt |= adj[w]
            layer = nxt & ~seen
            seen |= layer

    def is_connected(self) -> bool:
        return self.n <= 1 or sum(self._layers(0)) == (1 << self.n) - 1

    def distance(self, u: int, v: int):
        """Shortest-path distance, or math.inf when v is unreachable from u."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        bit = 1 << v
        for d, layer in enumerate(self._layers(u)):
            if layer & bit:
                return d
        return inf

    def ball(self, v: int, r: int) -> int:
        """Mask of the vertices within distance r >= 0 of v."""
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")
        if r < 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        return sum(islice(self._layers(v), r + 1))

    def girth(self):
        """Length of a shortest cycle, or math.inf for acyclic graphs.

        A breadth-first search from each root, one layer of bitmasks at a
        time.  An edge inside layer d closes a walk of length 2d + 1
        through the root, and a vertex of layer d + 1 with two neighbours
        in layer d one of length 2d + 2; each walk holds a cycle no
        longer than itself, and a root on a shortest cycle finds that
        cycle's length exactly.
        """
        best = inf
        adj = self.adj
        for root in range(self.n):
            seen = layer_mask = 1 << root
            layer = [root]
            d = 0
            while True:
                nxt = 0
                for x in layer:
                    a = adj[x]
                    if a & layer_mask:
                        best = 2 * d + 1
                        break
                    new = a & ~seen
                    if new & nxt:
                        best = min(best, 2 * d + 2)
                    nxt |= new
                d += 1
                # a later layer closes no walk shorter than 2d + 1
                if not nxt or 2 * d + 1 >= best:
                    break
                seen |= nxt
                layer_mask = nxt
                layer = list(_bits(nxt))
            if best == 3:
                break
        return best

    def has_triangle(self) -> bool:
        """Whether some edge uv has a common neighbour, that is, whether the
        girth is 3; one mask intersection per edge."""
        adj = self.adj
        for u, a in enumerate(adj):
            higher = a >> (u + 1) << (u + 1)
            while higher:
                bit = higher & -higher
                if a & adj[bit.bit_length() - 1]:
                    return True
                higher ^= bit
        return False

    # -- degree-structure queries --------------------------------------------

    def support_vertices(self) -> tuple[int, ...]:
        """Vertices adjacent to at least one degree-1 vertex, ascending."""
        leaf_mask = 0
        for v in range(self.n):
            if self.adj[v].bit_count() == 1:
                leaf_mask |= 1 << v
        return tuple(v for v in range(self.n) if self.adj[v] & leaf_mask)

    # -- induced cycle search -------------------------------------------------

    def induced_cycles(self, k: int):
        """Yield every induced k-cycle once, as a k-tuple in cyclic order.

        Canonical form: the smallest cycle vertex comes first and its smaller
        cycle neighbor second, which also prunes the search to one start and
        one direction per cycle.
        """
        if k < 3:
            raise ValueError("cycles need at least 3 vertices")
        adj = self.adj
        for v0 in range(self.n):
            allowed = ~((1 << (v0 + 1)) - 1)  # only vertices above the anchor
            path = [v0]

            # forbid holds the adjacency union of path[1:-1]: landing there
            # would chord the cycle.  The anchor's adjacency is handled
            # separately because the closing vertex must touch it.
            def extend(forbid: int, used: int):
                last = path[-1]
                if len(path) == k - 1:
                    cands = adj[last] & adj[v0] & allowed & ~used & ~forbid
                    for w in _bits(cands):
                        if path[1] < w:
                            yield (*path, w)
                    return
                cands = adj[last] & allowed & ~used & ~forbid
                if len(path) >= 2:
                    cands &= ~adj[v0]
                child_forbid = forbid | (adj[last] if len(path) >= 2 else 0)
                for w in _bits(cands):
                    path.append(w)
                    yield from extend(child_forbid, used | 1 << w)
                    path.pop()

            yield from extend(0, 1 << v0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"

