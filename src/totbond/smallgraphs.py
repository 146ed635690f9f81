"""Exhaustive enumeration of small graphs, labeled and up to isomorphism.

Labeled enumeration extends one vertex at a time, choosing the new
vertex's back-neighborhood as a bitmask; degree, girth and planar
edge-count constraints prune partial graphs because all of them are
inherited by prefixes.  Isomorphism-class enumeration uses the same
augmentation but deduplicates each level against invariant buckets with
an explicit backtracking isomorphism test.  Both are meant for desk
scale (n <= 9) only.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph, _bits

MAX_LABELED_ORDER = 9
MAX_CLASS_ORDER = 9


def _planar_edge_cap(k: int, min_girth: int) -> int:
    # Euler bounds: 3k-6 in general, 2k-4 once triangles are excluded.
    if k < 3:
        return k * (k - 1) // 2
    if min_girth >= 5:
        # girth-g planar bound: (k-2) * g / (g-2)
        return ((k - 2) * min_girth) // (min_girth - 2)
    if min_girth >= 4:
        return 2 * k - 4
    return 3 * k - 6


def enumerate_small_graphs(
    n: int,
    *,
    min_degree: int = 0,
    min_girth: int = 3,
    require_planar: bool = False,
    require_connected: bool = False,
) -> Iterator[Graph]:
    """Yield every labeled graph on vertices 0..n-1 meeting the filters.

    min_girth = 3 imposes nothing; min_girth = 4 forbids triangles, and
    so on.  Planarity is certified on complete graphs only; partial
    graphs are pruned by edge-count bounds alone.
    """
    if n < 0 or n > MAX_LABELED_ORDER:
        raise ValueError(f"labeled enumeration capped at n = {MAX_LABELED_ORDER}")
    if n == 0:
        return
    from .planar import is_planar  # deferred: planar imports graphs too

    adj = [0] * n
    deg = [0] * n

    def short_cycle_through(i: int, mask: int) -> bool:
        # any new cycle through i consists of two back-edges plus a path
        # in the prefix, so pairwise prefix distances decide the girth
        pairs = list(_bits(mask))
        for a_idx in range(len(pairs)):
            a = pairs[a_idx]
            # BFS from a within the prefix 0..i-1
            dist = {a: 0}
            frontier = [a]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in _bits(adj[x]):
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            for b in pairs[a_idx + 1 :]:
                if b in dist and dist[b] + 2 < min_girth:
                    return True
        return False

    def extend(i: int) -> Iterator[Graph]:
        if i == n:
            g = Graph(n, tuple(adj))
            if require_connected and not g.is_connected():
                return
            if require_planar and not is_planar(g):
                return
            yield g
            return
        remaining_after = n - 1 - i
        for mask in range(1 << i):
            bits = mask.bit_count()
            # degree feasibility: earlier vertices can only gain from
            # vertices i..n-1, the new vertex from i+1..n-1
            if bits + remaining_after < min_degree:
                continue
            ok = True
            if min_degree > 0:
                for u in range(i):
                    gain = 1 if (mask >> u) & 1 else 0
                    if deg[u] + gain + remaining_after < min_degree:
                        ok = False
                        break
            if not ok:
                continue
            if min_girth > 3 and bits >= 2 and short_cycle_through(i, mask):
                continue
            m_new = sum(deg[: i]) // 2 + bits
            if require_planar and m_new > _planar_edge_cap(i + 1, min_girth):
                continue
            for u in _bits(mask):
                adj[u] |= 1 << i
                deg[u] += 1
            adj[i] = mask
            deg[i] = bits
            yield from extend(i + 1)
            adj[i] = 0
            deg[i] = 0
            for u in _bits(mask):
                adj[u] &= ~(1 << i)
                deg[u] -= 1

    yield from extend(0)


def _refine_invariant(g: Graph) -> tuple:
    degs = g.degrees()
    nbhd = tuple(sorted(tuple(sorted(degs[u] for u in g.neighbors(v))) for v in range(g.n)))
    return (g.n, g.m, tuple(sorted(degs)), nbhd)


def _search_order(g: Graph) -> list[int]:
    # expand from the highest-degree vertex, always picking the vertex
    # with the most already-ordered neighbors; keeps the mapped region
    # connected where possible so adjacency checks prune early
    if g.n == 0:
        return []
    degs = g.degrees()
    start = max(range(g.n), key=lambda v: (degs[v], -v))
    order = [start]
    placed = 1 << start
    while len(order) < g.n:
        best = -1
        best_key = None
        for v in range(g.n):
            if (placed >> v) & 1:
                continue
            anchored = (g.adj[v] & placed).bit_count()
            key = (anchored, degs[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
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
    if require_planar:
        from .planar import is_planar
    reps = [Graph(1, (0,))]
    for k in range(1, n):
        buckets: dict[tuple, list[Graph]] = {}
        out: list[Graph] = []
        for parent in reps:
            for mask in range(1 << k):
                if triangle_free:
                    tri = False
                    for u in _bits(mask):
                        if parent.adj[u] & mask:
                            tri = True
                            break
                    if tri:
                        continue
                m_new = parent.m + mask.bit_count()
                if max_edges is not None and m_new > max_edges:
                    continue
                if require_planar and m_new > _planar_edge_cap(k + 1, 4 if triangle_free else 3):
                    continue
                rows = [parent.adj[u] | ((mask >> u & 1) << k) for u in range(k)]
                rows.append(mask)
                child = Graph(k + 1, tuple(rows))
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
