"""Planarity, unavoidable-configuration detectors, and discharging audits.

Planarity testing and the rotation system come from networkx's
left-right criterion implementation; the rotation is re-validated and
its faces re-traced by this package's own embedding code, and the test
suite cross-checks both against a brute-force rotation-system search at
small orders.  Detectors and the discharging ledger are hand-rolled:
they are the substance under audit, not infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .embedding import Embedding
from .graphs import Graph, edge_key

AT_MOST = "at-most"
EXACT = "exact"

BORODIN_TAGS = ("borodin-a", "borodin-b", "borodin-c")
GIRTH4_TAGS = ("g4-a", "g4-b")


def _to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def is_planar(g: Graph) -> bool:
    return nx.check_planarity(_to_networkx(g), counterexample=False)[0]


def planar_embedding(g: Graph) -> Embedding | None:
    """A combinatorial embedding of g, or None when g is not planar.

    Deterministic for a given graph: node insertion order is 0..n-1.
    """
    ok, emb = nx.check_planarity(_to_networkx(g), counterexample=False)
    if not ok:
        return None
    rotation = tuple(tuple(emb.neighbors_cw_order(v)) for v in range(g.n))
    out = Embedding.from_rotation(rotation)
    if out.graph != g:
        raise RuntimeError("planarity backend returned an inconsistent rotation")
    return out


@dataclass(frozen=True)
class ConfigurationReport:
    """Detector outcome: which local configurations were found where.

    hits maps a tag to the tuple of witnesses for it; a witness is
    (face, edge) for face rules and an edge or vertex for edge rules.
    skipped_faces lists boundary walks with repeated vertices, which no
    rule is allowed to read degrees from.
    """

    tags: tuple[str, ...]
    hits: dict
    at_least_one: bool
    reading: str | None = None
    skipped_faces: tuple[tuple[int, ...], ...] = ()


def _match_triangle_edge(p: int, q: int, reading: str) -> bool:
    if reading == AT_MOST:
        return (p <= 3 and q <= 10) or (p <= 4 and q <= 7) or (p <= 5 and q <= 6)
    return (p, q) in ((3, 10), (4, 7), (5, 6))


def detect_borodin(g: Graph, emb: Embedding, reading: str = AT_MOST) -> ConfigurationReport:
    """Find the unavoidable 3-/4-/5-face configurations of planar min-degree-3 graphs.

    reading selects how the (3,10)/(4,7)/(5,6) triangle-edge list is
    interpreted: "at-most" treats each pair as a ceiling on both ends,
    "exact" requires the degree pair verbatim.
    """
    if reading not in (AT_MOST, EXACT):
        raise ValueError(f"unknown reading {reading!r}")
    if g.min_degree() < 3:
        raise ValueError("detector requires minimum degree 3")
    if emb.graph != g:
        raise ValueError("embedding does not belong to this graph")
    hits: dict = {tag: [] for tag in BORODIN_TAGS}
    skipped = []
    deg = g.degrees()
    for verts in emb.faces:
        k = len(verts)
        if len(set(verts)) != k:
            skipped.append(verts)  # degenerate walk, no degree reading allowed
            continue
        if k not in (3, 4, 5):
            continue
        degs = sorted(deg[v] for v in verts)
        if k == 3:
            for i in range(3):
                u, v = verts[i], verts[(i + 1) % 3]
                p, q = sorted((deg[u], deg[v]))
                if _match_triangle_edge(p, q, reading):
                    hits["borodin-a"].append((verts, edge_key(u, v)))
        elif k == 4:
            if degs[0] == 3 and degs[1] == 3 and degs[2] <= 5:
                hits["borodin-b"].append((verts, "two-3-vertices"))
            else:
                counts = {d: degs.count(d) for d in set(degs)}
                if counts.get(3, 0) >= 1 and counts.get(4, 0) >= 2:
                    rest = list(degs)
                    rest.remove(3)
                    rest.remove(4)
                    rest.remove(4)
                    if rest[0] <= 5:
                        hits["borodin-b"].append((verts, "one-3-two-4"))
        else:
            if degs[0] == 3 and degs[1] == 3 and degs[2] == 3 and degs[3] == 3 and degs[4] <= 5:
                hits["borodin-c"].append((verts, "four-3-vertices"))
    found = tuple(tag for tag in BORODIN_TAGS if hits[tag])
    return ConfigurationReport(
        tags=found,
        hits={tag: tuple(hits[tag]) for tag in BORODIN_TAGS},
        at_least_one=bool(found),
        reading=reading,
        skipped_faces=tuple(skipped),
    )


def detect_girth4_config(g: Graph) -> ConfigurationReport:
    """Find a (3,4-)-edge or a 5-vertex with four degree-3 neighbors.

    These are the two unavoidable configurations of connected planar
    graphs with minimum degree 3 and girth at least 4; the detector
    itself only needs degrees, so preconditions are the caller's duty
    apart from the degree floor.
    """
    if g.min_degree() < 3:
        raise ValueError("detector requires minimum degree 3")
    deg = g.degrees()
    a_hits = []
    for u, v in g.edges():  # u < v already
        p, q = sorted((deg[u], deg[v]))
        if p == 3 and q <= 4:
            a_hits.append((u, v))
    b_hits = [
        v for v in range(g.n)
        if deg[v] == 5 and sum(1 for u in g.neighbors(v) if deg[u] == 3) >= 4
    ]
    found = tuple(
        tag for tag, hit in zip(GIRTH4_TAGS, (a_hits, b_hits)) if hit
    )
    return ConfigurationReport(
        tags=found,
        hits={"g4-a": tuple(a_hits), "g4-b": tuple(b_hits)},
        at_least_one=bool(found),
    )


@dataclass(frozen=True)
class ChargeLedger:
    """Exact balanced-charging bookkeeping for one embedding.

    Vertices start at d(v)-4, faces at l(f)-4; on a sphere the grand
    total is -8.  transfers lists (donor vertex, recipient vertex,
    amount) rows; totals are Fractions so conservation is exact.
    """

    vertex_initial: tuple[Fraction, ...]
    face_initial: tuple[Fraction, ...]
    transfers: tuple[tuple[int, int, Fraction], ...]
    vertex_final: tuple[Fraction, ...]
    face_final: tuple[Fraction, ...]
    total_initial: Fraction
    total_final: Fraction
    has_negative_final: bool


def _ledger(g: Graph, emb: Embedding, moves: list[tuple[int, int]]) -> ChargeLedger:
    """The ledger after each (donor, recipient) move passes 1/3 of a unit.

    Charges are summed in integer thirds; each distinct value becomes one
    Fraction at the end.
    """
    v_init = [3 * (g.degree(v) - 4) for v in range(g.n)]
    f_init = [3 * (len(face) - 4) for face in emb.faces]
    v_final = list(v_init)
    for donor, recipient in moves:
        v_final[donor] -= 1
        v_final[recipient] += 1
    total_i = sum(v_init) + sum(f_init)
    total_f = sum(v_final) + sum(f_init)
    frac = {k: Fraction(k, 3) for k in {1, total_i, total_f, *v_init, *v_final, *f_init}}
    faces = tuple(frac[c] for c in f_init)
    return ChargeLedger(
        vertex_initial=tuple(frac[c] for c in v_init),
        face_initial=faces,
        transfers=tuple((donor, recipient, frac[1]) for donor, recipient in moves),
        vertex_final=tuple(frac[c] for c in v_final),
        face_final=faces,
        total_initial=frac[total_i],
        total_final=frac[total_f],
        has_negative_final=any(c < 0 for c in v_final) or any(c < 0 for c in f_init),
    )


def charge_ledger(g: Graph, emb: Embedding) -> ChargeLedger:
    """Initial balanced charges only, no rule applied; any embedding."""
    if emb.graph != g:
        raise ValueError("embedding does not belong to this graph")
    return _ledger(g, emb, [])


def discharge_audit(g: Graph, emb: Embedding) -> ChargeLedger:
    """Apply the rule 'every 3-vertex takes 1/3 from each neighbor' and audit.

    Requires minimum degree 3 and girth at least 4.  Conservation of
    the -8 total is an identity; a ledger whose final charges are all
    nonnegative would contradict it, so has_negative_final must say
    True on every graph the rule's hypotheses cover.
    """
    if emb.graph != g:
        raise ValueError("embedding does not belong to this graph")
    if g.min_degree() < 3:
        raise ValueError("discharging rule requires minimum degree 3")
    if g.girth() < 4:
        raise ValueError("discharging rule requires girth at least 4")
    moves = [(u, v) for v in range(g.n) if g.degree(v) == 3 for u in g.neighbors(v)]
    return _ledger(g, emb, moves)
