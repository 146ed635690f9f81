"""Constructive bondage edge-set builders with replayable verdicts.

Each rule assembles a concrete edge set B from local structure (an
induced triangle, a short induced cycle, a pair of low-degree vertices,
a multipartite labeling), then replays it against the exact solver:
delete B, check for isolates, recompute the total domination number.
The verdict records what actually happened; no bound is ever assumed.

The rules anchored at graph vertices live in one table, `_ANCHORED`:
per rule, how many anchor vertices it takes, the minimum degree it
needs, the finder that lists its anchor tuples in a graph, and the
builder that turns one tuple into an edge set and its claimed size, or
into the reason the rule does not apply.  `apply_rule` runs one rule at
given anchors, and `scan_witnesses` runs every rule at every tuple its
finder lists; both check the anchors, connectivity and the degree floor
in one place before a builder sees the graph.  The multipartite rule
takes part sizes instead of a graph: `witness_multipartite`.  Every
choice inside a builder breaks ties by smallest vertex id, so a report
is reproducible from the graph and the anchors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

from .domination import gamma_t
from .families import complete_multipartite
from .formats import graph6_bytes
from .graphs import Edge, Graph, edge_key

VALID = "valid-bondage-set"
ISOLATES = "violates-isolate-condition"
NO_RISE = "gamma-did-not-increase"
UNMET = "precondition-unmet"


@dataclass(frozen=True)
class WitnessReport:
    """One builder run: the edge set, the claim, and the replay outcome."""

    rule: str
    graph6: str
    anchors: tuple[int, ...]
    edges: frozenset[Edge]
    claimed_bound: int | None
    observed_size: int | None
    isolate_free: bool | None
    gamma_before: int | None
    gamma_after: int | None
    verdict: str
    reason: str | None = None


class _Shared:
    """A graph with its graph6 string, total domination number,
    connectivity and minimum degree, each computed at most once however
    many reports on the graph use them."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def connected(self) -> bool:
        return self.g.is_connected()

    @cached_property
    def min_degree(self) -> int:
        return self.g.min_degree()

    @cached_property
    def graph6(self) -> str:
        return graph6_bytes(self.g).decode("ascii")

    @cached_property
    def gamma(self) -> int:
        return gamma_t(self.g).value


def _unmet(rule: str, s: _Shared, anchors: tuple[int, ...], reason: str) -> WitnessReport:
    return WitnessReport(
        rule=rule,
        graph6=s.graph6,
        anchors=anchors,
        edges=frozenset(),
        claimed_bound=None,
        observed_size=None,
        isolate_free=None,
        gamma_before=None,
        gamma_after=None,
        verdict=UNMET,
        reason=reason,
    )


def _incident(g: Graph, vs) -> set[Edge]:
    out: set[Edge] = set()
    for v in set(vs):
        a = g.adj[v]
        while a:
            low = a & -a
            u = low.bit_length() - 1
            out.add((u, v) if u < v else (v, u))
            a ^= low
    return out


def _replay(rule: str, s: _Shared, anchors: tuple[int, ...], b: set[Edge], claimed: int) -> WitnessReport:
    edges = frozenset(b)  # every builder keys its edges with edge_key
    before = s.gamma
    h = s.g.delete_edges(edges)
    isolate_free = not h.has_isolated_vertex()
    after = gamma_t(h).value if isolate_free else None
    if not isolate_free:
        verdict, reason = ISOLATES, "deletion isolates a vertex"
    elif after > before:
        verdict, reason = VALID, None
    else:
        verdict, reason = NO_RISE, "total domination number did not increase"
    return WitnessReport(
        rule=rule,
        graph6=s.graph6,
        anchors=anchors,
        edges=edges,
        claimed_bound=claimed,
        observed_size=len(edges),
        isolate_free=isolate_free,
        gamma_before=before,
        gamma_after=after,
        verdict=verdict,
        reason=reason,
    )


# What a builder returns: the edge set and its claimed size, or the
# reason the rule does not apply at the anchors.
_Built = tuple[set[Edge], int] | str


def _triangle(g: Graph, anchors: tuple[int, ...]) -> _Built:
    """Edge set from an induced triangle none of whose vertices supports a leaf.

    Keeps one outside edge at the highest-priority degree->=3 corner and
    the triangle edge opposite it; deletes every other edge touching the
    triangle.  Size: d(x1)+d(x2)+d(x3) - 5.
    """
    x1, x2, x3 = anchors
    if not (g.has_edge(x1, x2) and g.has_edge(x1, x3) and g.has_edge(x2, x3)):
        return "anchors do not form a triangle"
    if g.n == 3:
        return "graph is the 3-cycle itself"
    supports = g.support_vertices()
    if any(v in supports for v in anchors):
        return "a triangle vertex is a support vertex"
    # the graph is connected and larger than the triangle, so some corner
    # has an outside neighbour
    a1 = min(v for v in anchors if g.degree(v) >= 3)
    rest = sorted(v for v in anchors if v != a1)
    w = min(u for u in g.neighbors(a1) if u not in anchors)
    b = _incident(g, anchors)
    b.discard(edge_key(a1, w))
    b.discard(edge_key(rest[0], rest[1]))
    return b, sum(g.degree(v) for v in anchors) - 5


def _cycle_flaw(g: Graph, cyc: tuple[int, ...]) -> str | None:
    k = len(cyc)
    for i in range(k):
        if not g.has_edge(cyc[i], cyc[(i + 1) % k]):
            return "anchors are not a cycle in order"
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cyc[i], cyc[j]):
                return "cycle has a chord"
    return None


def _cycle4(g: Graph, anchors: tuple[int, ...]) -> _Built:
    """Edge set from an induced 4-cycle in a graph with minimum degree >= 2.

    Deletes all edges at the cycle except two opposite cycle edges.
    Size: sum of the four degrees - 6.
    """
    flaw = _cycle_flaw(g, anchors)
    if flaw:
        return flaw
    x1, x2, x3, x4 = anchors
    b = _incident(g, anchors)
    b.discard(edge_key(x1, x2))
    b.discard(edge_key(x3, x4))
    return b, sum(g.degree(v) for v in anchors) - 6


def _cycle5(g: Graph, anchors: tuple[int, ...]) -> _Built:
    """Edge set from an induced 5-cycle in a graph with minimum degree >= 2.

    Deletes the edges at the first four cycle vertices except x1x2 and
    x3x4; when the fifth vertex has degree 2 the edge x4x5 is kept too.
    Claimed size: d(x1)+d(x2)+d(x3)+d(x4) - 5.
    """
    flaw = _cycle_flaw(g, anchors)
    if flaw:
        return flaw
    x1, x2, x3, x4, x5 = anchors
    b = _incident(g, (x1, x2, x3, x4))
    b.discard(edge_key(x1, x2))
    b.discard(edge_key(x3, x4))
    if g.degree(x5) == 2:
        b.discard(edge_key(x4, x5))
    return b, g.degree(x1) + g.degree(x2) + g.degree(x3) + g.degree(x4) - 5


def _deg3_dist2(g: Graph, anchors: tuple[int, ...]) -> _Built:
    """Edge set from two degree-3 vertices at distance 2, minimum degree >= 3.

    Via a smallest common neighbor v: keep u1v and one other edge u2u2'
    at u2, delete the rest touching u1, u2 and u2'.  Claimed size:
    max degree + 3.
    """
    u1, u2 = anchors
    if g.degree(u1) != 3 or g.degree(u2) != 3:
        return "anchors are not both degree 3"
    common = g.adj[u1] & g.adj[u2]
    if g.has_edge(u1, u2) or not common:
        return "anchors are not at distance 2"
    v = (common & -common).bit_length() - 1
    u2p = min(x for x in g.neighbors(u2) if x != v)
    b = _incident(g, (u1, u2, u2p))
    b.discard(edge_key(u1, v))
    b.discard(edge_key(u2, u2p))
    return b, g.max_degree() + 3


def _deg2_dist3(g: Graph, anchors: tuple[int, ...]) -> _Built:
    """Edge set from two degree-2 vertices within distance 3, minimum degree >= 2.

    The deleted set keeps one edge at u1's end and one at u2's end of a
    shortest connection, cases split on the distance.  Claimed size:
    max degree + 1.
    """
    u1, u2 = anchors
    if g.degree(u1) != 2 or g.degree(u2) != 2:
        return "anchors are not both degree 2"
    dist = g.distance(u1, u2)
    if not 1 <= dist <= 3:
        return "anchors are not within distance 3"
    if dist == 3:
        v, w = next((v, w) for v in g.neighbors(u1) for w in g.neighbors(v) if g.has_edge(w, u2))
        hub, kept = (u1, v, u2), ((u1, v), (w, u2))
    elif dist == 2:
        common = g.adj[u1] & g.adj[u2]
        w = (common & -common).bit_length() - 1
        v = next(x for x in g.neighbors(u1) if x != w)
        hub, kept = (v, u1, u2), ((v, u1), (w, u2))
    else:  # adjacent: walk one step away from u1 on its other side
        v = next(x for x in g.neighbors(u1) if x != u2)
        vp = min(x for x in g.neighbors(v) if x != u1)
        hub, kept = (vp, u1, u2), ((u1, u2), (v, vp))
    b = _incident(g, hub)
    for u, x in kept:
        b.discard(edge_key(u, x))
    return b, g.max_degree() + 1


def _degree_pairs(g: Graph, degree: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Pairs of vertices of the given degree at distance lo >= 1 to hi, in
    canonical order.  Each anchor's ring at distance lo..hi is computed
    only when the walk reaches that anchor."""
    vs = [v for v in range(g.n) if g.degree(v) == degree]
    for i, a in enumerate(vs):
        ring = g.ball(a, hi) & ~g.ball(a, lo - 1)
        for b in vs[i + 1 :]:
            if ring >> b & 1:
                yield a, b


class _Rule(NamedTuple):
    arity: int  # anchor vertices
    floor: int  # minimum degree of the whole graph
    find: Callable[[Graph], Iterator[tuple[int, ...]]]  # anchor tuples, in canonical order
    build: Callable[[Graph, tuple[int, ...]], _Built]


# anchored rule -> its table entry, in RULES order
_ANCHORED: dict[str, _Rule] = {
    "triangle": _Rule(3, 1, lambda g: g.induced_cycles(3), _triangle),
    "cycle4": _Rule(4, 2, lambda g: g.induced_cycles(4), _cycle4),
    "cycle5": _Rule(5, 2, lambda g: g.induced_cycles(5), _cycle5),
    "deg3-dist2": _Rule(2, 3, lambda g: _degree_pairs(g, 3, 2, 2), _deg3_dist2),
    "deg2-dist3": _Rule(2, 2, lambda g: _degree_pairs(g, 2, 1, 3), _deg2_dist3),
}
RULES = (*_ANCHORED, "multipartite")


def witness_multipartite(sizes) -> tuple[Graph, WitnessReport]:
    """Edge set for a complete multipartite graph built from part sizes.

    Parts are sorted descending; the two anchor vertices come from the
    largest part, their kept partners from the smallest.  Claimed size:
    4n - 2*n1 - 2 as stated at the source; the construction itself has
    2n - 2*n1 - 2 edges, and the replay records both.
    """
    parts = tuple(sorted(sizes, reverse=True))
    check_parts(parts)
    g = complete_multipartite(parts)
    s = _Shared(g)
    n = g.n
    n1 = parts[0]
    if n1 < 2:
        return g, _unmet("multipartite", s, (), "largest part has fewer than two vertices")
    if parts[-1] < 2:
        return g, _unmet("multipartite", s, (), "smallest part has fewer than two vertices")
    u11, u12 = 0, 1
    uk1, uk2 = n - parts[-1], n - parts[-1] + 1
    b = _incident(g, (u11, u12))
    b.discard(edge_key(u11, uk1))
    b.discard(edge_key(u12, uk2))
    claimed = 4 * n - 2 * n1 - 2
    return g, _replay("multipartite", s, (u11, u12, uk1, uk2), b, claimed)


def iter_anchors(g: Graph, rule: str) -> Iterator[tuple[int, ...]]:
    """The anchor tuples of `find_anchors`, one at a time, so a caller can stop early."""
    if rule in _ANCHORED:
        return _ANCHORED[rule].find(g)
    if rule == "multipartite":
        return iter(())  # built from part sizes, not from anchors
    raise ValueError(f"unknown rule {rule!r}")


def find_anchors(g: Graph, rule: str) -> list[tuple[int, ...]]:
    """All anchor tuples a rule could be applied to, in canonical order."""
    return list(iter_anchors(g, rule))


def check_anchor_count(rule: str, anchors: tuple[int, ...]) -> None:
    """Raise ValueError unless `rule` is anchored and takes this many distinct anchors."""
    entry = _ANCHORED.get(rule)
    if entry is None:
        raise ValueError(f"rule {rule!r} does not take graph anchors")
    if len(anchors) != entry.arity:
        raise ValueError(f"rule {rule!r} takes {entry.arity} anchors, got {len(anchors)}")
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchor vertices must be distinct")


def check_parts(sizes) -> None:
    """Raise ValueError unless the multipartite rule can take these part sizes."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least two parts of positive size")


def _apply(s: _Shared, rule: str, anchors: tuple[int, ...]) -> WitnessReport:
    check_anchor_count(rule, anchors)
    g = s.g
    for v in anchors:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    _, floor, _, build = _ANCHORED[rule]
    if not s.connected:
        built = "graph is not connected"
    elif s.min_degree < floor:
        built = f"minimum degree below {floor}"
    else:
        built = build(g, anchors)
    if isinstance(built, str):
        return _unmet(rule, s, anchors, built)
    return _replay(rule, s, anchors, *built)


def apply_rule(g: Graph, rule: str, anchors: tuple[int, ...]) -> WitnessReport:
    """Run one anchored rule at the given anchors and replay its edge set.

    Raises ValueError for a rule that takes no anchors, a wrong anchor
    count, a repeated anchor or an anchor out of range; a graph the rule
    does not apply to gives a `precondition-unmet` report instead.
    """
    return _apply(_Shared(g), rule, anchors)


def scan_witnesses(g: Graph, rules=None) -> list[WitnessReport]:
    """Run every anchored rule on every anchor set it matches in g.

    The reports share one graph6 encoding and one gamma_t(g) solve.
    """
    s = _Shared(g)
    return [
        _apply(s, rule, anchors) for rule in rules or RULES for anchors in iter_anchors(g, rule)
    ]
