"""Exhaustive enumeration of small graphs up to isomorphism.

One enumerator, `enumerate_graph_classes`, grows graphs a vertex at a
time, choosing the new vertex's back-neighborhood as a bitmask; the
triangle, edge-count and planarity filters prune partial graphs because
all of them are inherited by induced subgraphs.  Each level is
deduplicated against invariant buckets with an explicit backtracking
isomorphism test, which `is_isomorphic` and `count_automorphisms`
expose.  Meant for desk scale (n <= 9) only.
"""

from __future__ import annotations

from .graphs import Graph, _bits

MAX_CLASS_ORDER = 9


def _planar_edge_cap(k: int, triangle_free: bool) -> int:
    # Euler bounds: 3k-6 in general, 2k-4 once triangles are excluded.
    if k < 3:
        return k * (k - 1) // 2
    return 2 * k - 4 if triangle_free else 3 * k - 6


def _refine_invariant(g: Graph) -> tuple:
    degs = g.degrees()
    nbhd = tuple(sorted(tuple(sorted(degs[u] for u in g.neighbors(v))) for v in range(g.n)))
    return (g.n, g.m, tuple(sorted(degs)), nbhd)


def _search_order(g: Graph) -> list[int]:
    # expand from the highest-degree vertex, always picking the vertex
    # with the most already-ordered neighbors; keeps the mapped region
    # connected where possible so adjacency checks prune early; n >= 1
    degs = g.degrees()
    start = max(range(g.n), key=lambda v: (degs[v], -v))
    order = [start]
    placed = 1 << start
    while len(order) < g.n:
        best = max(
            (v for v in range(g.n) if not placed >> v & 1),
            key=lambda v: ((g.adj[v] & placed).bit_count(), degs[v], -v),
        )
        order.append(best)
        placed |= 1 << best
    return order


def _count_embeddings(g: Graph, h: Graph, *, count_all: bool) -> int:
    """Count isomorphisms g -> h (all of them, or stop at the first)."""
    if g.n != h.n or g.m != h.m:
        return 0
    if _refine_invariant(g) != _refine_invariant(h):
        return 0
    n = g.n
    if n == 0:
        return 1
    gdeg = g.degrees()
    hdeg = h.degrees()
    order = _search_order(g)
    phi = [-1] * n
    used = 0
    total = 0

    def assign(pos: int) -> bool:
        nonlocal used, total
        if pos == n:
            total += 1
            return not count_all
        v = order[pos]
        want = g.adj[v]
        for w in range(n):
            if (used >> w) & 1 or hdeg[w] != gdeg[v]:
                continue
            fine = True
            for i in range(pos):
                u = order[i]
                if ((want >> u) & 1) != ((h.adj[w] >> phi[u]) & 1):
                    fine = False
                    break
            if not fine:
                continue
            phi[v] = w
            used |= 1 << w
            if assign(pos + 1):
                return True
            used &= ~(1 << w)
            phi[v] = -1
        return False

    assign(0)
    return total


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return _count_embeddings(g, h, count_all=False) > 0


def count_automorphisms(g: Graph) -> int:
    return _count_embeddings(g, g, count_all=True)


def enumerate_graph_classes(
    n: int,
    *,
    triangle_free: bool = False,
    require_planar: bool = False,
    max_edges: int | None = None,
) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Grown by vertex augmentation: every n-vertex graph arises from an
    (n-1)-vertex graph by adding a vertex, and the constraints here are
    hereditary, so pruned parents cannot hide admissible children.
    Deterministic output order.
    """
    if n < 1 or n > MAX_CLASS_ORDER:
        raise ValueError(f"class enumeration capped at n = {MAX_CLASS_ORDER}")
    if max_edges is not None and max_edges < 0:
        raise ValueError(f"max_edges must be nonnegative, got {max_edges}")
    if require_planar:
        from .planar import is_planar
    reps = [Graph(1, (0,))]
    for k in range(1, n):
        buckets: dict[tuple, list[Graph]] = {}
        out: list[Graph] = []
        for parent in reps:
            for mask in range(1 << k):
                # a triangle through the new vertex is an edge inside its mask
                if triangle_free and any(parent.adj[u] & mask for u in _bits(mask)):
                    continue
                m_new = parent.m + mask.bit_count()
                if max_edges is not None and m_new > max_edges:
                    continue
                if require_planar and m_new > _planar_edge_cap(k + 1, triangle_free):
                    continue
                rows = [parent.adj[u] | ((mask >> u & 1) << k) for u in range(k)]
                rows.append(mask)
                child = Graph._trusted(k + 1, tuple(rows))
                if require_planar and not is_planar(child):
                    continue
                key = _refine_invariant(child)
                bucket = buckets.setdefault(key, [])
                if any(is_isomorphic(child, other) for other in bucket):
                    continue
                bucket.append(child)
                out.append(child)
        reps = out
    return reps
