"""Exact total domination via branch-and-bound set cover.

A set D totally dominates G exactly when the open neighborhoods of D's
members cover V(G).  Every question here goes to one function,
`_exists_cover(adj, size, least)`: a cover of the vertex set by at most
`size` neighborhoods, else None, and a minimum one whenever the minimum
is at least `least`.  `gamma_t` asks with size n and least 0.  The
bondage sweep asks with size n and least gamma_t(G): deleting edges
never lowers the minimum, so it gets a minimum cover of G - U, and from
its size both the verdict and gamma_t(G - B).  `exists_total_dominating_set`
only asks whether a cover fits in `size`, so `least` defaults to `size`.

`_exists_cover` takes the max-gain greedy cover first, ties to the lowest
vertex.  Once the best gain is 1 it finishes in one ascending pass that
picks each vertex still covering something: gains never rise, so a
rescan per pick would pick the same vertices.  Call the cover's size
`top`, or size + 1 when it does not fit.  The greedy answer stands once
the root bound max(2, least, ceil(n / max degree), packing) reaches
`top`.  Otherwise V splits into coverer classes (`_coverer_classes`): two
vertices share a class when they share a neighbour, closed under chains.
The classes are the connected components, with a bipartite component
split into its two sides.  No vertex covers two classes, so the minimum
is the sum of the per-class minima, and each class deepens
`_cover_search` from its own bound, which is 1 for a one-vertex class
and otherwise max(ceil(|class| / max degree), packing) (van Rooij &
Bodlaender, Discrete Appl. Math. 159, 2011).  Deepening stops once the
classes solved plus the bounds of the rest reach `top`: the join cannot
beat the greedy answer.  The last class starts at least minus the size
of the join so far, since below `least` any cover that fits is an answer.

A `_cover_search` node makes one walk over the uncovered entries of its
degree order, ascending with ties by vertex, and hands the children
those live entries as their order: a child's uncovered set is part of
its parent's.  The walk gives a packing bound (Henning & Yeo, Total
Domination in Graphs, 2013): keep each uncovered vertex whose
neighborhood is disjoint from those kept so far; each kept vertex needs
a dominator of its own.  It also collects the coverers of the uncovered
vertices, and a max-gain bound (budget times some coverer's coverage
must reach the uncovered count) tests only those, since no other vertex
covers anything uncovered.  It catches the dense cases.  The node
branches on the first live entry, the lowest uncovered vertex of least
degree, so of fewest coverers, as no uncovered vertex has degree 0.
Both bounds cut only subtrees that hold no cover, so every depth finds
the same first cover.  The witness of `gamma_t` is the greedy cover
when that is minimum, else the join of each class's first cover at that
class's minimum.
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
        if best_gain < 2:
            break
        chosen.append(best_v)
        uncovered &= ~adj[best_v]
    # the gain-1 tail: gains never rise, so from here each pick covers one
    # vertex and is the lowest vertex that still covers anything.  One
    # ascending pass makes the same picks; a vertex that nothing covers
    # stays uncovered
    if uncovered.bit_count() > limit - len(chosen):
        return None
    for v, a in enumerate(adj):
        if a & uncovered:
            chosen.append(v)
            uncovered &= ~a
    return None if uncovered else chosen


def _packing_order(adj: list[int]) -> list[tuple[int, int]]:
    # (vertex bit, neighborhood) pairs by ascending degree, ties by vertex:
    # low-degree vertices first leave the most room for further disjoint picks
    degree = list(map(int.bit_count, adj))
    return [(1 << v, adj[v]) for v in sorted(range(len(adj)), key=degree.__getitem__)]


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
    """Find <= budget vertices whose neighborhoods cover `uncovered`, else None.

    `order` holds every uncovered vertex, in `_packing_order`'s order, and
    none of them has degree 0: `gamma_t` and `exists_total_dominating_set`
    reject isolated vertices, and the bondage sweep never solves a G - U
    that has one.
    """
    if not uncovered:
        return list(chosen)
    # one walk over the uncovered entries of `order` gives the packing
    # bound, the live entries that the children walk instead, and the
    # coverers, that is every vertex that covers something uncovered
    live = []
    taken = coverers = count = 0
    for entry in order:
        bit, nb = entry
        if uncovered & bit:
            live.append(entry)
            coverers |= nb
            if not nb & taken:
                count += 1
                if count > budget:
                    return None
                taken |= nb
    # max-gain bound: some coverer must cover a budget-th of `uncovered`.
    # budget >= 1 here: a budget-1 node passes only when one vertex covers
    # `uncovered`, and it sorts first, so its child is a cover
    while coverers:
        low = coverers & -coverers
        if (adj[low.bit_length() - 1] & uncovered).bit_count() * budget >= len(live):
            break
        coverers ^= low
    else:
        return None
    # branch on the first live entry, the lowest uncovered vertex of least
    # degree, so of fewest coverers: every cover must pick one of them
    v = live[0][0].bit_length() - 1
    cands = sorted(_bits(adj[v]), key=lambda u: -(adj[u] & uncovered).bit_count())
    for u in cands:
        chosen.append(u)
        got = _cover_search(adj, live, uncovered & ~adj[u], budget - 1, chosen)
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
            while frontier:
                low = frontier & -frontier
                fresh |= adj[low.bit_length() - 1]
                frontier ^= low
            fresh &= ~coverers
            coverers |= fresh
            while fresh:
                low = fresh & -fresh
                frontier |= adj[low.bit_length() - 1]
                fresh ^= low
            frontier &= rest & ~cls
            cls |= frontier
        classes.append(cls)
        rest &= ~cls
    return classes


def _exists_cover(adj: list[int], size: int, least: int | None = None) -> list[int] | None:
    """A cover of every vertex by at most `size` neighborhoods, else None.

    The cover is a minimum one whenever the minimum is at least `least`,
    which defaults to `size`.
    """
    full = (1 << len(adj)) - 1
    best = _greedy_cover(adj, full, size)
    top = size + 1 if best is None else len(best)
    least = size if least is None else least
    if max(2, least) >= top:
        return best
    order = _packing_order(adj)
    delta = order[-1][1].bit_count()
    # implied by the class bounds below, but it spares most small solves the split
    if max(-(-full.bit_count() // delta), _packing(order, full, size)) >= top:
        return best
    # no vertex covers two classes, so a minimum cover is a minimum cover
    # of each class side by side; each class deepens from its own bound
    # until a cover turns up, which it must, unless the classes solved
    # plus the bounds still to come reach `top`: then the join cannot
    # beat the greedy cover
    classes = _coverer_classes(adj, full)
    # a one-vertex class has bound 1 without a packing walk
    bounds = [
        max(-(-c.bit_count() // delta), _packing(order, c, size)) if c & (c - 1) else 1 for c in classes
    ]
    joined: list[int] = []
    rest = sum(bounds)
    for cls, k in zip(classes, bounds):
        rest -= k
        if cls == classes[-1]:  # below `least`, any cover that fits will do
            k = max(k, least - len(joined))
        while len(joined) + k + rest < top:
            if (got := _cover_search(adj, order, cls, k, [])) is not None:
                break
            k += 1
        else:
            return best
        joined += got
    return joined


def gamma_t(g: Graph) -> DominationCertificate:
    """Certified minimum total dominating set of g.

    Raises IsolatedVertexError when no total dominating set exists.
    """
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    best = _exists_cover(list(g.adj), g.n, 0)
    return DominationCertificate(len(best), frozenset(best))


def exists_total_dominating_set(g: Graph, size: int) -> bool:
    """Decide whether g has a total dominating set of at most `size` vertices."""
    if g.has_isolated_vertex():
        raise IsolatedVertexError("total domination is undefined with isolated vertices")
    if size < 0:
        return False
    return _exists_cover(list(g.adj), size) is not None
