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
from math import inf

Edge = tuple[int, int]


class IsolatedVertexError(ValueError):
    """Raised when an operation is only defined on isolate-free graphs."""


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def normalize_edges(pairs) -> frozenset[Edge]:
    """Normalize an iterable of vertex pairs to a frozenset of (min, max) edges."""
    return frozenset(edge_key(u, v) for u, v in pairs)


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def empty(n: int) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        return Graph(n, (0,) * n)

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
        return Graph(n, tuple(masks))

    # -- basic structure ----------------------------------------------------

    @property
    def m(self) -> int:
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
        return tuple(a.bit_count() for a in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adj[v])

    def has_isolated_vertex(self) -> bool:
        return any(not a for a in self.adj) if self.n else False

    def delete_edges(self, edges) -> "Graph":
        """Return the graph with the given edges removed.  All must exist."""
        masks = list(self.adj)
        for pair in edges:
            u, v = edge_key(*pair)
            if not (0 <= u and v < self.n) or not masks[u] >> v & 1:
                raise ValueError(f"edge ({u}, {v}) not present")
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
        return Graph(self.n, tuple(masks))

    def relabel(self, perm) -> "Graph":
        """Apply a permutation (perm[old] = new) to the vertex labels."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        masks = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                masks[perm[u]] |= 1 << perm[v]
        return Graph(self.n, tuple(masks))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(
            self.n,
            tuple((full & ~a & ~(1 << v)) for v, a in enumerate(self.adj)),
        )

    # -- connectivity and metrics -------------------------------------------

    def _reach_mask(self, start: int) -> int:
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self._reach_mask(0) == (1 << self.n) - 1

    def distance(self, u: int, v: int):
        """Shortest-path distance, or math.inf when v is unreachable from u."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        if u == v:
            return 0
        seen = 1 << u
        frontier = seen
        d = 0
        while frontier:
            nxt = 0
            for w in _bits(frontier):
                nxt |= self.adj[w]
            nxt &= ~seen
            d += 1
            if nxt >> v & 1:
                return d
            seen |= nxt
            frontier = nxt
        return inf

    def girth(self):
        """Length of a shortest cycle, or math.inf for acyclic graphs."""
        best = inf
        for root in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[root] = 0
            queue = [root]
            head = 0
            while head < len(queue):
                x = queue[head]
                head += 1
                # cycles through the BFS tree cannot get shorter past this depth
                if best is not inf and 2 * dist[x] >= best:
                    break
                for y in _bits(self.adj[x]):
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        queue.append(y)
                    elif y != parent[x]:
                        cand = dist[x] + dist[y] + 1
                        if cand < best:
                            best = cand
        return best

    # -- degree-structure queries --------------------------------------------

    def s_k(self, k: int) -> tuple[int, ...]:
        """Vertices of degree exactly k, ascending."""
        return tuple(v for v in range(self.n) if self.adj[v].bit_count() == k)

    def support_vertices(self) -> tuple[int, ...]:
        """Vertices adjacent to at least one degree-1 vertex, ascending."""
        leaf_mask = 0
        for v in range(self.n):
            if self.adj[v].bit_count() == 1:
                leaf_mask |= 1 << v
        return tuple(v for v in range(self.n) if self.adj[v] & leaf_mask)

    def classify_edge(self, u: int, v: int) -> tuple[int, int]:
        """Degree pair of an existing edge, sorted ascending."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        du, dv = self.degree(u), self.degree(v)
        return (du, dv) if du <= dv else (dv, du)

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

    def find_induced_cycle(self, k: int):
        """First induced k-cycle in canonical order, or None."""
        return next(self.induced_cycles(k), None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeProfile:
    """Degree data read off a graph once and passed around cheaply."""

    degrees: tuple[int, ...]
    sequence: tuple[int, ...]
    min_degree: int
    max_degree: int
    supports: tuple[int, ...]

    @staticmethod
    def from_graph(g: Graph) -> "DegreeProfile":
        degs = g.degrees()
        return DegreeProfile(
            degrees=degs,
            sequence=tuple(sorted(degs, reverse=True)),
            min_degree=min(degs, default=0),
            max_degree=max(degs, default=0),
            supports=g.support_vertices(),
        )

    def s(self, k: int) -> tuple[int, ...]:
        return tuple(v for v, d in enumerate(self.degrees) if d == k)
