"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: subset sweeps, permutation
scans, recursion on edges.  The point is to be obviously correct at
small sizes, so the production algorithms can be judged against these
rather than against themselves.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from totbond.embedding import Embedding
from totbond.formats import GRAPH6_HEADER, PLANAR_CODE_HEADER, FormatError, _g6_size_bytes, graph6_bytes
from totbond.graphs import Graph, _bits
from totbond.smallgraphs import count_automorphisms, enumerate_graph_classes


def brute_gamma_t(g: Graph) -> int | None:
    """Minimum total dominating set size by subset sweep, None if undefined."""
    if any(g.degree(v) == 0 for v in range(g.n)):
        return None
    for k in range(1, g.n + 1):
        for cand in itertools.combinations(range(g.n), k):
            dmask = 0
            for v in cand:
                dmask |= 1 << v
            if all(g.adj[v] & dmask for v in range(g.n)):
                return k
    return None


def brute_max_matching(g: Graph) -> int:
    """Maximum matching by recursion over the edge list."""
    edges = g.edges()

    def best(i: int, used: int) -> int:
        while i < len(edges):
            u, v = edges[i]
            if used >> u & 1 or used >> v & 1:
                i += 1
                continue
            take = 1 + best(i + 1, used | 1 << u | 1 << v)
            skip = best(i + 1, used)
            return max(take, skip)
        return 0

    return best(0, 0)


def brute_bondage(g: Graph, max_size: int | None = None) -> tuple[float, frozenset | None]:
    """(b_t, witness) by exhaustive sweep; (inf, None) when no set works."""
    base = brute_gamma_t(g)
    if base is None:
        raise ValueError("graph has an isolated vertex")
    edges = g.edges()
    limit = len(edges) if max_size is None else min(max_size, len(edges))
    for k in range(1, limit + 1):
        for combo in itertools.combinations(range(len(edges)), k):
            b = [edges[i] for i in combo]
            h = g.delete_edges(b)
            if h.has_isolated_vertex():
                continue
            if brute_gamma_t(h) > base:
                return k, frozenset(b)
    if limit == len(edges):
        return math.inf, None
    return math.nan, None  # undecided within max_size


def brute_has_bondage_set(g: Graph) -> bool:
    """Exhaustive finiteness: does any isolate-free deletion raise gamma_t?

    Uses the certified solver only for the domination subproblem, which
    is validated separately against brute_gamma_t.
    """
    from totbond.domination import exists_total_dominating_set, gamma_t

    base = gamma_t(g).value
    edges = g.edges()
    degs = list(g.degrees())
    for k in range(1, len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), k):
            loss: dict[int, int] = {}
            for i in combo:
                u, v = edges[i]
                loss[u] = loss.get(u, 0) + 1
                loss[v] = loss.get(v, 0) + 1
            if any(degs[x] == c for x, c in loss.items()):
                continue
            h = g.delete_edges([edges[i] for i in combo])
            if not exists_total_dominating_set(h, base):
                return True
    return False


def colex_subsets(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(m), ascending inside, colex across."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, m):
        for rest in colex_subsets(top, k - 1):
            yield (*rest, top)


def colex_bondage(g: Graph, cap: int | None = None, work_budget: int | None = None):
    """Total bondage by the plain per-subset colex sweep.

    Every subset is visited and counted against work_budget one by one,
    and every isolate-free one is put to the exact cover solver.  The
    subtree-skipping `totbond.bondage.bondage` must return an equal
    certificate for every (graph, cap, work_budget).
    """
    from totbond.bondage import (
        DEFAULT_CAP_SLACK,
        INFINITE_CRITERION,
        BondageCertificate,
        max_matching_size,
    )
    from totbond.domination import _exists_cover, gamma_t

    before = gamma_t(g)  # raises on isolated vertices
    gv = before.value
    if 2 * max_matching_size(g) <= gv:
        return BondageCertificate(
            "infinite", None, None, gv, None, criterion=INFINITE_CRITERION
        )
    edges = g.edges()
    m = len(edges)
    if cap is None:
        cap_eff = min(m, g.max_degree() + DEFAULT_CAP_SLACK)
    else:
        cap_eff = max(0, min(cap, m))
    adj0 = list(g.adj)
    degs = list(g.degrees())
    full = (1 << g.n) - 1
    examined = 0
    for k in range(1, cap_eff + 1):
        for combo in colex_subsets(m, k):
            examined += 1
            if work_budget is not None and examined > work_budget:
                return BondageCertificate(
                    "unknown-above-cap", None, None, gv, None, cap=k - 1
                )
            removed: dict[int, int] = {}
            for idx in combo:
                u, v = edges[idx]
                removed[u] = removed.get(u, 0) + 1
                removed[v] = removed.get(v, 0) + 1
            if any(degs[x] == c for x, c in removed.items()):
                continue  # deletion would isolate x
            adj = adj0[:]
            for idx in combo:
                u, v = edges[idx]
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            if _exists_cover(adj, full, gv) is None:
                witness = frozenset(edges[idx] for idx in combo)
                after = gamma_t(g.delete_edges(witness))
                return BondageCertificate("finite", k, witness, gv, after.value)
    return BondageCertificate("unknown-above-cap", None, None, gv, None, cap=cap_eff)


def walk_bondage(g: Graph, cap: int | None = None, work_budget: int | None = None):
    """Total bondage by the depth-first walk that `totbond.bondage` replaced.

    Every child of a node is visited, each last-edge step computes its
    kill masks afresh, and finiteness always runs the blossom matching.
    `totbond.bondage.bondage` must return an equal certificate with equal
    `BondageStats` for every (graph, cap, work_budget).
    """
    from totbond.bondage import (
        DEFAULT_CAP_SLACK,
        INFINITE_CRITERION,
        BondageCertificate,
        BondageStats,
        _OutOfBudget,
        _Sweep,
        max_matching_size,
    )
    from totbond.domination import gamma_t

    class Walk(_Sweep):
        def _inner(self, j, hi, alive):
            if not all(self._killable(d, j, hi) for d in alive):
                return self._skip(math.comb(hi, j))
            adj, deg, edges = self.adj, self.deg, self.edges
            for top in range(j - 1, hi):
                u, v = edges[top]
                if deg[u] == 1 or deg[v] == 1:
                    self._skip(math.comb(top, j - 1))
                    continue
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] -= 1
                deg[v] -= 1
                au, av = adj[u], adj[v]
                self.chosen.append(top)
                found = self._visit(j - 1, top, [d for d in alive if au & d and av & d])
                self.chosen.pop()
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] += 1
                deg[v] += 1
                if found is not None:
                    return found
            return None

        def _last_edge(self, hi, alive):
            rest = (1 << hi) - 1
            for d in alive:
                rest &= self._kills(d)
                if not rest:
                    return self._skip(hi)
            adj, deg, edges = self.adj, self.deg, self.edges
            base = self.examined
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                self._advance(base + x + 1)
                u, v = edges[x]
                if deg[u] == 1 or deg[v] == 1:
                    continue
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                cover = self._solve()
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                if cover is None:
                    return frozenset(edges[i] for i in (*self.chosen, x))
                rest &= self._kills(self._add(cover))
            self._advance(base + hi)
            return None

    before = gamma_t(g)  # raises on isolated vertices
    gv = before.value
    if 2 * max_matching_size(g) <= gv:
        return BondageCertificate(
            "infinite", None, None, gv, None, criterion=INFINITE_CRITERION,
            stats=BondageStats(0, 0, 0),
        )
    edges = g.edges()
    m = len(edges)
    cap_eff = min(m, g.max_degree() + DEFAULT_CAP_SLACK) if cap is None else max(0, min(cap, m))
    walk = Walk(g, edges, gv, before.witness, work_budget)
    for k in range(1, cap_eff + 1):
        try:
            witness = walk.level(k)
        except _OutOfBudget:
            return BondageCertificate(
                "unknown-above-cap", None, None, gv, None, cap=k - 1, stats=walk.stats()
            )
        if witness is not None:
            after = gamma_t(g.delete_edges(witness))
            return BondageCertificate("finite", k, witness, gv, after.value, stats=walk.stats())
    return BondageCertificate("unknown-above-cap", None, None, gv, None, cap=cap_eff, stats=walk.stats())


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by scanning all vertex permutations."""
    if g.n != h.n or g.m != h.m:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_girth(g: Graph) -> float:
    """Shortest cycle length by checking all vertex subsets as cycles."""
    best = math.inf
    for k in range(3, g.n + 1):
        if k >= best:
            break
        for cand in itertools.combinations(range(g.n), k):
            rest = cand[1:]
            for perm in itertools.permutations(rest):
                cyc = (cand[0],) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    best = min(best, k)
                    break
            if best == k:
                break
    return best


def prufer_tree(seq: tuple[int, ...]) -> Graph:
    """Decode a Prufer sequence over n-2 entries into a labeled tree."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return Graph.from_edges(n, edges)


def otter_counts(limit: int) -> tuple[list[int], list[int]]:
    """(rooted, free) tree counts for n = 1..limit via the classic recurrences."""
    rooted = [0] * (limit + 1)
    rooted[1] = 1
    for n in range(2, limit + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * rooted[d] for d in range(1, k + 1) if k % d == 0)
            total += s * rooted[n - k]
        rooted[n] = total // (n - 1)
    free = [0] * (limit + 1)
    for n in range(1, limit + 1):
        pairs = sum(rooted[i] * rooted[n - i] for i in range(1, n))
        if n % 2 == 0:
            pairs -= rooted[n // 2]
        free[n] = rooted[n] - pairs // 2
    return rooted[1:], free[1:]


def tree_centers(adj: list[list[int]]) -> list[int]:
    """Return the 1 or 2 central vertices of a tree given adjacency lists."""
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


def ahu_code(adj: list[list[int]], root: int) -> str:
    """Canonical parenthesis string of the tree rooted at root (Aho,
    Hopcroft & Ullman), by plain recursion over adjacency lists."""

    def code(v: int, parent: int) -> str:
        subs = sorted(code(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return code(root, -1)


def free_canonical_form(g: Graph) -> str:
    """Canonical string identifying g up to isomorphism (trees only)."""
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    return min(ahu_code(adj, c) for c in tree_centers(adj))


def canonized_trees(n: int) -> Iterator[Graph]:
    """Free trees by canonizing every rooted tree at its centre(s).

    Every rooted level sequence is built and keyed; a tree is yielded at
    its first key.  `totbond.trees.enumerate_trees` keys only leaf-rooted
    sequences as tall as their diameter, and must yield the same graphs
    in the same order.
    """
    from totbond.trees import MAX_TREE_ORDER, rooted_level_sequences, tree_from_level_sequence

    if n < 1:
        raise ValueError("tree order must be at least 1")
    if n > MAX_TREE_ORDER:
        raise ValueError(f"tree enumeration capped at n = {MAX_TREE_ORDER}")
    seen: set[str] = set()
    for seq in rooted_level_sequences(n):
        t = tree_from_level_sequence(seq)
        key = free_canonical_form(t)
        if key not in seen:
            seen.add(key)
            yield t


def deepening_gamma_t(g: Graph):
    """Certified minimum TDS by one deepening loop over the whole universe.

    The solver `totbond.domination.gamma_t` replaced.  That one solves
    each coverer class on its own and takes the witness from the classes'
    first covers; it must return the same value and the same witness.
    """
    from totbond.domination import (
        DominationCertificate,
        _cover_search,
        _greedy_cover,
        _packing,
        _packing_order,
    )
    from totbond.graphs import IsolatedVertexError

    if g.n == 0:
        return DominationCertificate(0, frozenset())
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    adj = list(g.adj)
    full = (1 << g.n) - 1
    order = _packing_order(adj)
    best = _greedy_cover(adj, full, g.n)
    lb = max(2, -(-g.n // g.max_degree()), _packing(order, full, g.n))
    for k in range(lb, len(best)):
        got = _cover_search(adj, order, full, k, [])
        if got is not None:
            best = got
            break
    return DominationCertificate(len(best), frozenset(best))


# The graph6 codec that `totbond.formats` replaced: one Python step per bit
# of the upper triangle.  The production codec must give the same bytes,
# graphs and FormatError offsets.
def bitwise_graph6_bytes(g: Graph) -> bytes:
    """Encode a graph as one graph6 record (no header, no newline)."""
    n = g.n
    out = bytearray(_g6_size_bytes(n))
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            bits.append(col >> u & 1)
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)


def bitwise_parse_graph6(record: bytes) -> Graph:
    """Decode one graph6 record (optionally prefixed by the format header)."""
    data = record.strip()
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    if not data:
        raise FormatError("empty graph6 record", base)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise FormatError(f"byte {b} outside graph6 range", base + i)
    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
        body_off = base + 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 size field", base + len(data))
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
        body_off = base + 4
    else:
        if len(data) < 8:
            raise FormatError("truncated graph6 size field", base + len(data))
        n = 0
        for b in data[2:8]:
            n = n << 6 | (b - 63)
        body = data[8:]
        body_off = base + 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise FormatError(
            f"graph6 record too short: need {nbytes} data bytes, got {len(body)}",
            body_off + len(body),
        )
    if len(body) > nbytes:
        raise FormatError("trailing bytes after graph6 record", body_off + nbytes)
    masks = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            b = body[idx // 6]
            if (b - 63) >> (5 - idx % 6) & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(masks))


def tree_bfs_girth(g: Graph):
    """Length of a shortest cycle, or math.inf for acyclic graphs.

    The `Graph.girth` that the layer-mask search replaced: a breadth-first
    search from each root that tracks BFS parents, one edge at a time.
    """
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            # cycles through the BFS tree cannot get shorter past this depth
            if best is not math.inf and 2 * dist[x] >= best:
                break
            for y in _bits(g.adj[x]):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
    return best


# Writers and builders that only the tests use.


def write_graph6(graphs, stream) -> int:
    """Write graphs as graph6 lines.  Returns the number written."""
    count = 0
    for g in graphs:
        stream.write(graph6_bytes(g) + b"\n")
        count += 1
    return count


def face_lengths(emb: Embedding) -> tuple[int, ...]:
    return tuple(len(f) for f in emb.faces)


def is_spherical(emb: Embedding) -> bool:
    """True when emb is a genus-0 embedding of a connected graph."""
    return emb.graph.is_connected() and emb.euler_characteristic() == 2


def dart_trace_faces(rotation) -> tuple[tuple[int, ...], ...]:
    """The face tracer `totbond.embedding._trace_faces` replaced: a dict
    keyed by dart tuples, walked from the sorted darts.  The production
    tracer must give the same faces in the same order."""
    succ = {}
    for v, order in enumerate(rotation):
        d = len(order)
        for i, u in enumerate(order):
            # after (u, v) comes (v, w): w follows u clockwise at v
            succ[(u, v)] = (v, order[(i + 1) % d])
    faces = []
    for start in sorted(succ):
        if start not in succ:
            continue
        walk = []
        cur = start
        while cur in succ:
            walk.append(cur[0])
            cur = succ.pop(cur)
        faces.append(tuple(walk))
    return tuple(faces)


def edge_list_text(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def planar_code_bytes(embeddings) -> bytes:
    """Encode embeddings as a planar_code stream (header included)."""
    out = bytearray(PLANAR_CODE_HEADER)
    for emb in embeddings:
        n = emb.graph.n
        if not 1 <= n <= 255:
            raise ValueError("planar_code byte variant needs 1 <= n <= 255")
        out.append(n)
        for order in emb.rotation:
            out.extend(u + 1 for u in order)
            out.append(0)
    return bytes(out)


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hubs joined by three internally disjoint paths with a, b, c inner vertices."""
    if min(a, b, c) < 1:
        raise ValueError("each path needs at least one inner vertex")
    edges = []
    nxt = 2
    for inner in (a, b, c):
        prev = 0
        for _ in range(inner):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def labelings(g: Graph) -> set[Graph]:
    """Every labeled graph isomorphic to g: its orbit under vertex permutations."""
    return {g.relabel(p) for p in itertools.permutations(range(g.n))}


def labeled_count_identity(n: int) -> tuple[int, int]:
    """(sum over classes of n!/|Aut|, 2^C(n,2)); equal iff enumeration is complete."""
    fact = math.factorial(n)
    total = sum(fact // count_automorphisms(g) for g in enumerate_graph_classes(n))
    return total, 1 << (n * (n - 1) // 2)


def networkx_rotation(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """networkx's clockwise rotation of g, or None when g is not planar.

    The planarity path totbond used before it had its own left-right
    test: nodes 0..n-1 and then g.edges() in order go into an nx.Graph,
    and check_planarity's embedding lists each vertex's neighbours with
    neighbors_cw_order.
    """
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(h, counterexample=False)
    if not ok:
        return None
    return tuple(tuple(emb.neighbors_cw_order(v)) for v in range(g.n))
