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
catches the dense cases.  Both bounds only cut subtrees that hold no
cover; the branching vertex and the candidate order are those of the
plain search, so every depth finds the same first cover and the
witnesses do not depend on the bounds.

`gamma_t` first tries the greedy cover over V and stops there when it
meets the root's lower bound.  Otherwise it splits V into coverer
classes (`_coverer_classes`): two vertices share a class when they share
a neighbour, closed under chains.  The classes are the connected
components, with a bipartite component split into its two sides, each
covered only from the other.  No vertex covers two classes, so gamma_t
is the sum of the per-class minima, and each class deepens
`_cover_search` from its own bound with `uncovered` set to that class
(van Rooij & Bodlaender, Discrete Appl. Math. 159, 2011).  Deepening
stops as soon as the classes solved so far plus the bounds of the rest
reach the greedy size, since the join can then not beat the greedy
cover.  The witness is the greedy cover when that is minimum, else the
join of each class's first cover at that class's minimum.
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


def _coverer_classes(adj: list[int], universe: int) -> list[int]:
    """Split `universe` into classes whose coverer sets are pairwise disjoint.

    Two vertices fall in one class when they share a coverer, that is a
    common neighbour, closed under chains.  On the whole vertex set the
    classes are the connected components, with a bipartite component
    split into its two sides.  Classes come in order of lowest vertex.
    """
    classes: list[int] = []
    rest = universe
    while rest:
        cls = frontier = rest & -rest
        coverers = 0
        while frontier:
            # alternate steps: the new coverers of the frontier, then the
            # universe vertices those coverers reach
            fresh = 0
            for v in _bits(frontier):
                fresh |= adj[v]
            fresh &= ~coverers
            coverers |= fresh
            frontier = 0
            for u in _bits(fresh):
                frontier |= adj[u]
            frontier &= rest & ~cls
            cls |= frontier
        classes.append(cls)
        rest &= ~cls
    return classes


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
    delta = g.max_degree()
    lb = max(2, -(-g.n // delta), _packing(order, full, g.n))
    if lb < len(best):
        # no vertex covers two classes, so a minimum cover is a minimum
        # cover of each class side by side; each class deepens from its
        # own bound until a cover turns up, which it must, unless the
        # classes solved plus the bounds still to come reach the greedy
        # size: then the join cannot beat the greedy cover
        classes = _coverer_classes(adj, full)
        bounds = [max(-(-c.bit_count() // delta), _packing(order, c, g.n)) for c in classes]
        joined: list[int] = []
        rest = sum(bounds)
        for cls, k in zip(classes, bounds):
            rest -= k
            while len(joined) + k + rest < len(best):
                if (got := _cover_search(adj, order, cls, k, [])) is not None:
                    break
                k += 1
            else:
                break  # keep the greedy cover
            joined += got
        else:  # every class solved, and the join is smaller
            best = joined
    return DominationCertificate(len(best), frozenset(best))


def _exists_cover(adj: list[int], full: int, size: int) -> list[int] | None:
    """A cover of `full` by at most `size` neighborhoods, else None."""
    # greedy shortcut first: covers the common case where deletion did
    # not raise the domination number
    got = _greedy_cover(adj, full, size)
    if got is not None:
        return got
    return _cover_search(adj, _packing_order(adj), full, size, [])


def exists_total_dominating_set(g: Graph, size: int) -> bool:
    """Decide whether g has a total dominating set of at most `size` vertices."""
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    if size < 0:
        return False
    return _exists_cover(list(g.adj), (1 << g.n) - 1, size) is not None
