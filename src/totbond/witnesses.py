"""Constructive bondage edge-set builders with replayable verdicts.

Each builder assembles a concrete edge set B from local structure (an
induced triangle, a short induced cycle, a pair of low-degree vertices,
a multipartite labeling), then replays it against the exact solver:
delete B, check for isolates, recompute the total domination number.
The verdict records what actually happened; no bound is ever assumed.
Every choice inside a builder breaks ties by smallest vertex id, so a
report is reproducible from the graph and the anchors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .domination import gamma_t
from .families import complete_multipartite
from .formats import graph6_bytes
from .graphs import Edge, Graph, edge_key

RULES = (
    "triangle",
    "cycle4",
    "cycle5",
    "deg3-dist2",
    "deg2-dist3",
    "multipartite",
)

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
    """A graph with its graph6 string and total domination number, each
    computed at most once however many reports on the graph use them."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def graph6(self) -> str:
        return graph6_bytes(self.g).decode("ascii")

    @cached_property
    def gamma(self) -> int:
        return gamma_t(self.g).value


def _check_anchors(g: Graph, anchors: tuple[int, ...]) -> None:
    for v in anchors:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchor vertices must be distinct")


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
        for u in g.neighbors(v):
            out.add(edge_key(u, v))
    return out


def _replay(rule: str, s: _Shared, anchors: tuple[int, ...], b: set[Edge], claimed: int) -> WitnessReport:
    edges = frozenset(edge_key(u, v) for u, v in b)
    before = s.gamma
    h = s.g.delete_edges(edges)
    if h.has_isolated_vertex():
        return WitnessReport(
            rule=rule,
            graph6=s.graph6,
            anchors=anchors,
            edges=edges,
            claimed_bound=claimed,
            observed_size=len(edges),
            isolate_free=False,
            gamma_before=before,
            gamma_after=None,
            verdict=ISOLATES,
            reason="deletion isolates a vertex",
        )
    after = gamma_t(h).value
    if after > before:
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
        isolate_free=True,
        gamma_before=before,
        gamma_after=after,
        verdict=verdict,
        reason=reason,
    )


def witness_triangle(g: Graph, x1: int, x2: int, x3: int) -> WitnessReport:
    """Edge set from an induced triangle none of whose vertices supports a leaf.

    Keeps one outside edge at the highest-priority degree->=3 corner and
    the triangle edge opposite it; deletes every other edge touching the
    triangle.  Size: d(x1)+d(x2)+d(x3) - 5.
    """
    return _triangle(_Shared(g), (x1, x2, x3))


def _triangle(s: _Shared, anchors: tuple[int, ...]) -> WitnessReport:
    g = s.g
    x1, x2, x3 = anchors
    _check_anchors(g, anchors)
    if not g.is_connected():
        return _unmet("triangle", s, anchors, "graph is not connected")
    if not (g.has_edge(x1, x2) and g.has_edge(x1, x3) and g.has_edge(x2, x3)):
        return _unmet("triangle", s, anchors, "anchors do not form a triangle")
    if g.n == 3:
        return _unmet("triangle", s, anchors, "graph is the 3-cycle itself")
    supports = g.support_vertices()
    if any(v in supports for v in anchors):
        return _unmet("triangle", s, anchors, "a triangle vertex is a support vertex")
    heavy = sorted(v for v in anchors if g.degree(v) >= 3)
    if not heavy:
        return _unmet("triangle", s, anchors, "no triangle vertex has degree >= 3")
    a1 = heavy[0]
    rest = sorted(v for v in anchors if v != a1)
    w = min(u for u in g.neighbors(a1) if u not in anchors)
    b = _incident(g, anchors)
    b.discard(edge_key(a1, w))
    b.discard(edge_key(rest[0], rest[1]))
    claimed = sum(g.degree(v) for v in anchors) - 5
    return _replay("triangle", s, anchors, b, claimed)


def _check_induced_cycle(g: Graph, cyc: tuple[int, ...]) -> str | None:
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


def witness_cycle4(g: Graph, x1: int, x2: int, x3: int, x4: int) -> WitnessReport:
    """Edge set from an induced 4-cycle in a graph with minimum degree >= 2.

    Deletes all edges at the cycle except two opposite cycle edges.
    Size: sum of the four degrees - 6.
    """
    return _cycle4(_Shared(g), (x1, x2, x3, x4))


def _cycle4(s: _Shared, anchors: tuple[int, ...]) -> WitnessReport:
    g = s.g
    x1, x2, x3, x4 = anchors
    _check_anchors(g, anchors)
    if not g.is_connected():
        return _unmet("cycle4", s, anchors, "graph is not connected")
    if g.min_degree() < 2:
        return _unmet("cycle4", s, anchors, "minimum degree below 2")
    flaw = _check_induced_cycle(g, anchors)
    if flaw:
        return _unmet("cycle4", s, anchors, flaw)
    b = _incident(g, anchors)
    b.discard(edge_key(x1, x2))
    b.discard(edge_key(x3, x4))
    claimed = sum(g.degree(v) for v in anchors) - 6
    return _replay("cycle4", s, anchors, b, claimed)


def witness_cycle5(g: Graph, x1: int, x2: int, x3: int, x4: int, x5: int) -> WitnessReport:
    """Edge set from an induced 5-cycle in a graph with minimum degree >= 2.

    Deletes the edges at the first four cycle vertices except x1x2 and
    x3x4; when the fifth vertex has degree 2 the edge x4x5 is kept too.
    Claimed size: d(x1)+d(x2)+d(x3)+d(x4) - 5.
    """
    return _cycle5(_Shared(g), (x1, x2, x3, x4, x5))


def _cycle5(s: _Shared, anchors: tuple[int, ...]) -> WitnessReport:
    g = s.g
    x1, x2, x3, x4, x5 = anchors
    _check_anchors(g, anchors)
    if not g.is_connected():
        return _unmet("cycle5", s, anchors, "graph is not connected")
    if g.min_degree() < 2:
        return _unmet("cycle5", s, anchors, "minimum degree below 2")
    flaw = _check_induced_cycle(g, anchors)
    if flaw:
        return _unmet("cycle5", s, anchors, flaw)
    b = _incident(g, (x1, x2, x3, x4))
    b.discard(edge_key(x1, x2))
    b.discard(edge_key(x3, x4))
    if g.degree(x5) == 2:
        b.discard(edge_key(x4, x5))
    claimed = g.degree(x1) + g.degree(x2) + g.degree(x3) + g.degree(x4) - 5
    return _replay("cycle5", s, anchors, b, claimed)


def witness_deg3_dist2(g: Graph, u1: int, u2: int) -> WitnessReport:
    """Edge set from two degree-3 vertices at distance 2, minimum degree >= 3.

    Via a smallest common neighbor v: keep u1v and one other edge u2u2'
    at u2, delete the rest touching u1, u2 and u2'.  Claimed size:
    max degree + 3.
    """
    return _deg3_dist2(_Shared(g), (u1, u2))


def _deg3_dist2(s: _Shared, anchors: tuple[int, ...]) -> WitnessReport:
    g = s.g
    u1, u2 = anchors
    _check_anchors(g, anchors)
    if not g.is_connected():
        return _unmet("deg3-dist2", s, anchors, "graph is not connected")
    if g.min_degree() < 3:
        return _unmet("deg3-dist2", s, anchors, "minimum degree below 3")
    if g.degree(u1) != 3 or g.degree(u2) != 3:
        return _unmet("deg3-dist2", s, anchors, "anchors are not both degree 3")
    if g.distance(u1, u2) != 2:
        return _unmet("deg3-dist2", s, anchors, "anchors are not at distance 2")
    common = g.adj[u1] & g.adj[u2]
    v = (common & -common).bit_length() - 1
    u2p = min(x for x in g.neighbors(u2) if x != v)
    b = _incident(g, (u1, u2, u2p))
    b.discard(edge_key(u1, v))
    b.discard(edge_key(u2, u2p))
    claimed = g.max_degree() + 3
    return _replay("deg3-dist2", s, anchors, b, claimed)


def witness_deg2_dist3(g: Graph, u1: int, u2: int) -> WitnessReport:
    """Edge set from two degree-2 vertices within distance 3, minimum degree >= 2.

    The deleted set keeps one edge at u1's end and one at u2's end of a
    shortest connection, cases split on the distance.  Claimed size:
    max degree + 1.
    """
    return _deg2_dist3(_Shared(g), (u1, u2))


def _deg2_dist3(s: _Shared, anchors: tuple[int, ...]) -> WitnessReport:
    g = s.g
    u1, u2 = anchors
    _check_anchors(g, anchors)
    if not g.is_connected():
        return _unmet("deg2-dist3", s, anchors, "graph is not connected")
    if g.min_degree() < 2:
        return _unmet("deg2-dist3", s, anchors, "minimum degree below 2")
    if g.degree(u1) != 2 or g.degree(u2) != 2:
        return _unmet("deg2-dist3", s, anchors, "anchors are not both degree 2")
    dist = g.distance(u1, u2)
    if not 1 <= dist <= 3:
        return _unmet("deg2-dist3", s, anchors, "anchors are not within distance 3")
    claimed = g.max_degree() + 1
    if dist == 3:
        pair = None
        for v in g.neighbors(u1):
            for w in g.neighbors(v):
                if g.has_edge(w, u2):
                    pair = (v, w)
                    break
            if pair:
                break
        v, w = pair
        b = _incident(g, (u1, v, u2))
        b.discard(edge_key(u1, v))
        b.discard(edge_key(w, u2))
        return _replay("deg2-dist3", s, anchors, b, claimed)
    if dist == 2:
        common = g.adj[u1] & g.adj[u2]
        w = (common & -common).bit_length() - 1
        v = next(x for x in g.neighbors(u1) if x != w)
        b = _incident(g, (v, u1, u2))
        b.discard(edge_key(v, u1))
        b.discard(edge_key(w, u2))
        return _replay("deg2-dist3", s, anchors, b, claimed)
    # dist == 1: walk one step away from u1 on its other side
    v = next(x for x in g.neighbors(u1) if x != u2)
    vp = min(x for x in g.neighbors(v) if x != u1)
    b = _incident(g, (vp, u1, u2))
    b.discard(edge_key(u1, u2))
    b.discard(edge_key(v, vp))
    return _replay("deg2-dist3", s, anchors, b, claimed)


def witness_multipartite(sizes) -> tuple[Graph, WitnessReport]:
    """Edge set for a complete multipartite graph built from part sizes.

    Parts are sorted descending; the two anchor vertices come from the
    largest part, their kept partners from the smallest.  Claimed size:
    4n - 2*n1 - 2 as stated at the source; the construction itself has
    2n - 2*n1 - 2 edges, and the replay records both.
    """
    parts = tuple(sorted(sizes, reverse=True))
    if len(parts) < 2 or any(s < 1 for s in parts):
        raise ValueError("need at least two parts of positive size")
    g = complete_multipartite(parts)
    s = _Shared(g)
    n = g.n
    n1 = parts[0]
    first = tuple(range(n1))
    last = tuple(range(n - parts[-1], n))
    anchors = (first[0], first[1], last[0], last[1]) if n1 >= 2 and parts[-1] >= 2 else ()
    if n1 < 2:
        return g, _unmet("multipartite", s, (), "largest part has fewer than two vertices")
    if parts[-1] < 2:
        return g, _unmet("multipartite", s, (), "smallest part has fewer than two vertices")
    u11, u12 = first[0], first[1]
    uk1, uk2 = last[0], last[1]
    b = _incident(g, (u11, u12))
    b.discard(edge_key(u11, uk1))
    b.discard(edge_key(u12, uk2))
    claimed = 4 * n - 2 * n1 - 2
    return g, _replay("multipartite", s, anchors, b, claimed)


def find_anchors(g: Graph, rule: str) -> list[tuple[int, ...]]:
    """All anchor tuples a rule could be applied to, in canonical order."""
    if rule == "triangle":
        return [tuple(c) for c in g.induced_cycles(3)]
    if rule == "cycle4":
        return [tuple(c) for c in g.induced_cycles(4)]
    if rule == "cycle5":
        return [tuple(c) for c in g.induced_cycles(5)]
    if rule == "deg3-dist2":
        vs = [v for v in range(g.n) if g.degree(v) == 3]
        return [
            (a, b)
            for i, a in enumerate(vs)
            for b in vs[i + 1 :]
            if g.distance(a, b) == 2
        ]
    if rule == "deg2-dist3":
        vs = [v for v in range(g.n) if g.degree(v) == 2]
        return [
            (a, b)
            for i, a in enumerate(vs)
            for b in vs[i + 1 :]
            if 1 <= g.distance(a, b) <= 3
        ]
    if rule == "multipartite":
        return []  # built from part sizes, not from anchors
    raise ValueError(f"unknown rule {rule!r}")


# anchored rule -> (anchor count, builder)
_ANCHORED = {
    "triangle": (3, _triangle),
    "cycle4": (4, _cycle4),
    "cycle5": (5, _cycle5),
    "deg3-dist2": (2, _deg3_dist2),
    "deg2-dist3": (2, _deg2_dist3),
}


def _apply(s: _Shared, rule: str, anchors: tuple[int, ...]) -> WitnessReport:
    entry = _ANCHORED.get(rule)
    if entry is None:
        raise ValueError(f"rule {rule!r} does not take graph anchors")
    want, build = entry
    if len(anchors) != want:
        raise ValueError(f"rule {rule!r} takes {want} anchors, got {len(anchors)}")
    return build(s, anchors)


def apply_rule(g: Graph, rule: str, anchors: tuple[int, ...]) -> WitnessReport:
    return _apply(_Shared(g), rule, anchors)


def scan_witnesses(g: Graph, rules=None) -> list[WitnessReport]:
    """Run every anchored rule on every anchor set it matches in g.

    The reports share one graph6 encoding and one gamma_t(g) solve.
    """
    s = _Shared(g)
    out: list[WitnessReport] = []
    for rule in rules or RULES:
        if rule == "multipartite":
            continue
        for anchors in find_anchors(g, rule):
            out.append(_apply(s, rule, anchors))
    return out
