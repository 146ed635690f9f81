"""Planarity, unavoidable-configuration detectors, and discharging audits.

Planarity testing and the rotation system come from this package's own
port of Brandes' left-right planarity test (2009), ported from
networkx 3.x's non-recursive ``LRPlanarity``: the testing step for step,
and the embedding written out directly in the order networkx's
insertions leave it, so the rotation equals the one networkx's
``check_planarity`` gives (the test suite checks that against networkx).  The rotation is re-validated and
its faces re-traced by this package's embedding code, and the suite
also cross-checks both against a brute-force rotation-system search at
small orders.  Detectors and the discharging ledger are hand-rolled:
they are the substance under audit, not infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .embedding import Embedding
from .graphs import Graph, edge_key

AT_MOST = "at-most"
EXACT = "exact"

BORODIN_TAGS = ("borodin-a", "borodin-b", "borodin-c")
GIRTH4_TAGS = ("g4-a", "g4-b")


def _lr_planarity(g: Graph, embed: bool):
    """Brandes' left-right test as networkx 3.x runs it, over flat lists.

    None when g is not planar.  Otherwise True, or with embed the
    clockwise rotation of every vertex, the one networkx's embedding
    builds by cw/ccw insertions, here written out directly: a vertex's
    rotation starts at its DFS parent, a DFS root's at the first
    neighbour networkx places around its only child.

    Edges get ids in the order the DFS orients them; per-edge state
    lives in lists indexed by id, and the id ``none = m`` stands for
    networkx's None.  ``ref`` and ``side`` (defaultdicts there) have a
    slot for it; the plain-dict state has none, so reading it raises, as
    it does there.  A conflict pair is the list [left.low, left.high,
    right.low, right.high]; an interval is empty when both ends are
    none, and pairs are compared by identity.
    """
    n = g.n
    adj = g.adj
    m = sum(a.bit_count() for a in adj) // 2
    if n > 2 and m > 3 * n - 6:
        return None
    none = m
    src = [0] * m
    dst = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # DG[v], in orientation order
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    height = [-1] * n
    parent_edge = [none] * n
    roots = []

    # orientation: a DFS over ascending adjacency, as networkx adds
    # g.edges(); rest[v] holds the neighbours whose edge has no id yet
    rest = list(adj)
    resume = [none] * n  # the tree edge v resumes at when revisited
    k = 0
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            while rest[v]:
                vw = resume[v]
                if vw != none:
                    resume[v] = none
                else:
                    todo = rest[v]
                    w = (todo & -todo).bit_length() - 1
                    vw = k
                    k += 1
                    src[vw] = v
                    dst[vw] = w
                    out[v].append(vw)
                    rest[w] &= ~(1 << v)
                    lowpt[vw] = lowpt2[vw] = hv
                    if height[w] < 0:  # tree edge: finish w first
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        resume[v] = vw
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = height[w]  # back edge
                low = lowpt[vw]
                nesting[vw] = 2 * low + (lowpt2[vw] < hv)  # +1 when chordal
                if e != none:
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                todo = rest[v]
                rest[v] = todo & (todo - 1)

    # testing: stable sorts over orientation order, as networkx's sorted()
    ordered = [sorted(row, key=nesting.__getitem__) for row in out]
    pairs: list[list[int]] = []  # the stack S of conflict pairs
    stack_bottom: list = [None] * m
    lowpt_edge = [0] * m
    ref = [none] * (m + 1)
    side = [1] * (m + 1)

    def add_constraints(ei: int, e: int) -> bool:
        pl_lo = pl_hi = pr_lo = pr_hi = none
        bottom = stack_bottom[ei]
        # merge return edges of ei into P.right
        while True:
            ql_lo, ql_hi, qr_lo, qr_hi = pairs.pop()
            if ql_lo != none or ql_hi != none:
                ql_lo, ql_hi, qr_lo, qr_hi = qr_lo, qr_hi, ql_lo, ql_hi
                if ql_lo != none or ql_hi != none:
                    return False
            if lowpt[qr_lo] > lowpt[e]:
                if pr_lo == none and pr_hi == none:
                    pr_hi = qr_hi
                else:
                    ref[pr_lo] = qr_hi
                pr_lo = qr_lo
            else:  # align
                ref[qr_lo] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        low = lowpt[ei]
        while True:
            ql_lo, ql_hi, qr_lo, qr_hi = pairs[-1]
            left_hit = (ql_lo != none or ql_hi != none) and lowpt[ql_hi] > low
            right_hit = (qr_lo != none or qr_hi != none) and lowpt[qr_hi] > low
            if not (left_hit or right_hit):
                break
            pairs.pop()
            if right_hit:
                ql_lo, ql_hi, qr_lo, qr_hi = qr_lo, qr_hi, ql_lo, ql_hi
                if left_hit:
                    return False
            ref[pr_lo] = qr_hi
            if qr_lo != none:
                pr_lo = qr_lo
            if pl_lo == none and pl_hi == none:
                pl_hi = ql_hi
            else:
                ref[pl_lo] = ql_hi
            pl_lo = ql_lo
        if pl_lo != none or pl_hi != none or pr_lo != none or pr_hi != none:
            pairs.append([pl_lo, pl_hi, pr_lo, pr_hi])
        return True

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # drop whole conflict pairs whose lowest return point is u
        while pairs:
            l_lo, l_hi, r_lo, r_hi = pairs[-1]
            if l_lo == none and l_hi == none:
                lowest = lowpt[r_lo]
            elif r_lo == none and r_hi == none:
                lowest = lowpt[l_lo]
            else:
                lowest = min(lowpt[l_lo], lowpt[r_lo])
            if lowest != hu:
                break
            pairs.pop()
            if l_lo != none:
                side[l_lo] = -1
        if pairs:  # trim the top pair in place; it keeps its identity
            p = pairs[-1]
            hi = p[1]
            while hi != none and dst[hi] == u:
                hi = ref[hi]
            p[1] = hi
            if hi == none and p[0] != none:  # just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = none
            hi = p[3]
            while hi != none and dst[hi] == u:
                hi = ref[hi]
            p[3] = hi
            if hi == none and p[2] != none:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = none
        if lowpt[e] < hu:  # side of e is side of a highest return edge
            hl, hr = pairs[-1][1], pairs[-1][3]
            ref[e] = hl if hl != none and (hr == none or lowpt[hl] > lowpt[hr]) else hr

    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            row = ordered[v]
            d = len(row)
            i = ind[v]
            while i < d:
                ei = resume[v]
                if ei != none:
                    resume[v] = none
                else:
                    ei = row[i]
                    stack_bottom[ei] = pairs[-1] if pairs else None
                    w = dst[ei]
                    if parent_edge[w] == ei:
                        resume[v] = ei
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei
                    pairs.append([none, none, ei, ei])
                if lowpt[ei] < hv:  # integrate new return edges
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            else:
                if e != none:
                    remove_back_edges(e)
    if not embed:
        return True

    # sign: resolve relative sides along ref chains (networkx's sign())
    for e0 in range(m):
        chain = []
        e = e0
        while ref[e] != none:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for e in reversed(chain):
            s = side[e] = side[e] * s
            ref[e] = none
        nesting[e0] *= side[e0]

    # embedding: the walk networkx's dfs_embedding takes, over out-edges
    # sorted by signed nesting depth.  A back edge v -> w lands next to the
    # child c of w whose subtree the walk is in: on the left side each one
    # counterclockwise of the one before, on the right side each one
    # clockwise of c, so both lists are read back reversed
    for v, row in enumerate(out):
        ordered[v] = sorted(row, key=nesting.__getitem__)
    child = [0] * n  # child[u]: the child of u whose subtree the walk is in
    left: list[list[int]] = [[] for _ in range(n)]
    right: list[list[int]] = [[] for _ in range(n)]
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            row = ordered[v]
            d = len(row)
            i = ind[v]
            while i < d:
                ei = row[i]
                i += 1
                w = dst[ei]
                if parent_edge[w] == ei:  # tree edge
                    child[v] = w
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                (right if side[ei] == 1 else left)[child[w]].append(v)

    # each rotation starts at the parent, which networkx inserts as the
    # first neighbour; a root starts at its only child's left back edges,
    # if it has any
    rotation = []
    for w, row in enumerate(ordered):
        e = parent_edge[w]
        order = [] if e == none else [src[e]]
        for ei in row:
            c = dst[ei]
            if parent_edge[c] == ei:
                order += left[c][::-1]
                order.append(c)
                order += right[c][::-1]
            else:
                order.append(c)
        rotation.append(tuple(order))
    return tuple(rotation)


def is_planar(g: Graph) -> bool:
    return _lr_planarity(g, embed=False) is not None


def planar_embedding(g: Graph) -> Embedding | None:
    """A combinatorial embedding of g, or None when g is not planar.

    Deterministic for a given graph, and the rotation networkx's
    check_planarity gives for g with nodes and edges added in order.
    """
    rotation = _lr_planarity(g, embed=True)
    if rotation is None:
        return None
    out = Embedding.from_rotation(rotation)
    if out.graph != g:
        raise RuntimeError("planarity test returned an inconsistent rotation")
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


def detect_borodin(emb: Embedding, reading: str = AT_MOST) -> ConfigurationReport:
    """Find the unavoidable 3-/4-/5-face configurations of planar min-degree-3 graphs.

    reading selects how the (3,10)/(4,7)/(5,6) triangle-edge list is
    interpreted: "at-most" treats each pair as a ceiling on both ends,
    "exact" requires the degree pair verbatim.
    """
    if reading not in (AT_MOST, EXACT):
        raise ValueError(f"unknown reading {reading!r}")
    g = emb.graph
    if g.min_degree() < 3:
        raise ValueError("detector requires minimum degree 3")
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
            elif degs[0] == 3 and degs[1] == degs[2] == 4 and degs[3] <= 5:
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


def _ledger(emb: Embedding, moves: list[tuple[int, int]]) -> ChargeLedger:
    """The ledger after each (donor, recipient) move passes 1/3 of a unit.

    Charges are summed in integer thirds; each distinct value becomes one
    Fraction at the end.
    """
    v_init = [3 * (d - 4) for d in emb.graph.degrees()]
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


def charge_ledger(emb: Embedding) -> ChargeLedger:
    """Initial balanced charges only, no rule applied; any embedding."""
    return _ledger(emb, [])


def discharge_audit(emb: Embedding) -> ChargeLedger:
    """Apply the rule 'every 3-vertex takes 1/3 from each neighbor' and audit.

    Requires minimum degree 3 and girth at least 4.  Conservation of
    the -8 total is an identity; a ledger whose final charges are all
    nonnegative would contradict it, so has_negative_final must say
    True on every graph the rule's hypotheses cover.
    """
    g = emb.graph
    if g.min_degree() < 3:
        raise ValueError("discharging rule requires minimum degree 3")
    if g.has_triangle():
        raise ValueError("discharging rule requires girth at least 4")
    moves = [(u, v) for v in range(g.n) if g.degree(v) == 3 for u in g.neighbors(v)]
    return _ledger(emb, moves)
