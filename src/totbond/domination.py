"""Exact total domination via branch-and-bound set cover.

A set D totally dominates G exactly when the open neighborhoods of D's
members cover V(G).  The solver therefore runs a covering search over
the universe V with candidate sets {N(v)}: iterative deepening on the
target size, branching on an uncovered vertex with the fewest remaining
coverers.  Certificates carry the witness so callers can replay them.

One search core, `_cover_search`, serves `gamma_t`, `_exists_cover` (the
bondage solver's question) and `exists_total_dominating_set`.  It prunes
a node by a packing lower bound (Henning & Yeo, Total Domination in
Graphs, 2013): walking the uncovered vertices in ascending degree order,
keep each one whose neighborhood is disjoint from those kept so far.
Every kept vertex needs a dominator of its own, so more of them than the
remaining budget means no cover below the node.  A max-gain bound
(budget times the largest coverage must reach the uncovered count)
catches the dense cases.  `gamma_t` also starts its deepening at the
root's packing bound.  Both bounds only cut subtrees that hold no cover;
the branching vertex and the candidate order are those of the plain
search, so every depth finds the same first cover and the witnesses do
not depend on the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, IsolatedVertexError, _bits


@dataclass(frozen=True)
class DominationCertificate:
    """Minimum total domination value together with an optimal set."""

    value: int
    witness: frozenset[int]


def is_total_dominating(g: Graph, d) -> bool:
    """Check that every vertex of g has a neighbor in d."""
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    dmask = 0
    for v in d:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        dmask |= 1 << v
    return all(g.adj[v] & dmask for v in range(g.n))


def _greedy_cover(adj: list[int], uncovered: int, limit: int) -> list[int] | None:
    """Max-gain greedy cover of `uncovered`, ties to the lowest vertex.

    Returns None when it needs more than `limit` picks or gets stuck on
    vertices that nothing covers.
    """
    chosen: list[int] = []
    while uncovered:
        if len(chosen) == limit:
            return None
        best_v = -1
        best_gain = 0
        for v, a in enumerate(adj):
            gain = (a & uncovered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            return None
        chosen.append(best_v)
        uncovered &= ~adj[best_v]
    return chosen


def _packing_order(adj: list[int]) -> list[tuple[int, int]]:
    # (vertex bit, neighborhood) pairs by ascending degree: low-degree
    # vertices first leave the most room for further disjoint picks
    order = sorted(range(len(adj)), key=lambda v: adj[v].bit_count())
    return [(1 << v, adj[v]) for v in order]


def _packing(order: list[tuple[int, int]], uncovered: int, stop: int) -> int:
    """Count uncovered vertices with pairwise disjoint neighborhoods, up
    to the first count past `stop`.  Each needs a dominator of its own."""
    taken = 0
    count = 0
    for bit, nb in order:
        if uncovered & bit and not nb & taken:
            count += 1
            if count > stop:
                break
            taken |= nb
    return count


def _cover_search(
    adj: list[int], order: list[tuple[int, int]], uncovered: int, budget: int, chosen: list[int]
) -> list[int] | None:
    """Find <= budget vertices whose neighborhoods cover `uncovered`, else None."""
    if not uncovered:
        return list(chosen)
    if budget == 0:
        return None
    if _packing(order, uncovered, budget) > budget:
        return None
    max_gain = 0
    for a in adj:
        t = (a & uncovered).bit_count()
        if t > max_gain:
            max_gain = t
    if max_gain * budget < uncovered.bit_count():
        return None
    # branch on the uncovered vertex with the fewest coverers: every
    # cover must pick one of its neighbors
    best_v = -1
    best_c = -1
    mm = uncovered
    while mm:
        low = mm & -mm
        v = low.bit_length() - 1
        mm ^= low
        c = adj[v].bit_count()
        if best_c < 0 or c < best_c:
            best_v, best_c = v, c
            if c <= 1:
                break
    cands = sorted(_bits(adj[best_v]), key=lambda u: -(adj[u] & uncovered).bit_count())
    for u in cands:
        chosen.append(u)
        got = _cover_search(adj, order, uncovered & ~adj[u], budget - 1, chosen)
        chosen.pop()
        if got is not None:
            return got
    return None


def gamma_t(g: Graph) -> DominationCertificate:
    """Certified minimum total dominating set of g.

    Raises IsolatedVertexError when no total dominating set exists.
    """
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


def _exists_cover(adj: list[int], full: int, size: int) -> bool:
    # greedy shortcut first: covers the common case where deletion did
    # not raise the domination number
    if _greedy_cover(adj, full, size) is not None:
        return True
    return _cover_search(adj, _packing_order(adj), full, size, []) is not None


def exists_total_dominating_set(g: Graph, size: int) -> bool:
    """Decide whether g has a total dominating set of at most `size` vertices."""
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    if size < 0:
        return False
    return _exists_cover(list(g.adj), (1 << g.n) - 1, size)
