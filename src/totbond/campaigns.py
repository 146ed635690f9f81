"""Theorem-verification campaigns over graph corpora.

A campaign pairs hypotheses with a judge and sweeps a corpus: graphs
outside the hypotheses are recorded as skipped, graphs inside are judged
by the exact solver.  THEOREMS defines every tag, one entry each; every
upper bound on b_t is one `Bound` row, and `bounds` reads six of them
from PRIOR_BOUNDS.  Output is one RECORD line per graph, keyed by the
full graph6 string so any line can be replayed, plus one SUMMARY line.
Nothing is sampled; a campaign with a work budget marks budget-cut
graphs as skipped rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from . import planar
from .bondage import BondageCertificate, bondage
from .formats import edges_text, graph6_bytes, record_line
from .graphs import Graph, _bits
from .smallgraphs import is_isomorphic
from .families import subdivided_star
from .witnesses import iter_anchors

HOLDS = "holds"
VIOLATED = "violated"
SKIPPED = "skipped"


@dataclass(frozen=True)
class GraphOutcome:
    theorem: str
    graph6: str
    n: int
    m: int
    status: str
    detail: tuple[tuple[str, object], ...] = ()

    def record(self) -> str:
        head = [("theorem", self.theorem), ("graph", self.graph6), ("n", self.n), ("m", self.m)]
        return record_line("RECORD", [*head, ("status", self.status), *self.detail])


@dataclass(frozen=True)
class CampaignResult:
    theorem: str
    outcomes: tuple[GraphOutcome, ...]

    @property
    def checked(self) -> int:
        return len(self.outcomes)

    @property
    def holds(self) -> int:
        return sum(1 for o in self.outcomes if o.status == HOLDS)

    @property
    def violations(self) -> int:
        return sum(1 for o in self.outcomes if o.status == VIOLATED)

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SKIPPED)

    def summary(self) -> str:
        return record_line("SUMMARY", [
            ("theorem", self.theorem), ("checked", self.checked), ("holds", self.holds),
            ("violations", self.violations), ("skipped", self.skipped)])

    def records(self) -> list[str]:
        return [o.record() for o in self.outcomes] + [self.summary()]


def _g6(g: Graph) -> str:
    return graph6_bytes(g).decode("ascii")


def _outcome(tag: str, g: Graph, status: str, detail) -> GraphOutcome:
    return GraphOutcome(tag, _g6(g), g.n, g.m, status, tuple(detail))


def _skip(tag: str, g: Graph, reason: str) -> GraphOutcome:
    return _outcome(tag, g, SKIPPED, (("reason", reason),))


def _is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected()


def _is_star(g: Graph) -> bool:
    # a vertex adjacent to all others connects the graph, and n - 1
    # edges leave no other edge, so no connectivity search is needed
    return g.n >= 2 and g.m == g.n - 1 and g.max_degree() == g.n - 1


def _is_path_graph(g: Graph) -> bool:
    return g.n >= 2 and g.max_degree() <= 2 and _is_tree(g)


def _is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and g.is_connected() and all(d == 2 for d in g.degrees())


def _multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """Part sizes if g is complete multipartite, else None.

    The complement of a complete multipartite graph is a disjoint union
    of cliques, one per part.
    """
    comp = g.complement()
    seen = 0
    parts = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        cluster = comp.adj[v] | (1 << v)
        if any(comp.adj[u] | (1 << u) != cluster for u in _bits(cluster)):
            return None
        seen |= cluster
        parts.append(cluster.bit_count())
    return tuple(sorted(parts, reverse=True))


def _within(cert: BondageCertificate, bound: float) -> bool | None:
    """Whether the certificate shows b_t <= bound.

    None when the search stopped, at its cap or its work budget, before
    it had tried every edge set of size up to bound.
    """
    if cert.status == "finite":
        return cert.b_t <= bound
    if cert.status == "unknown-above-cap" and (cert.cap is None or cert.cap < bound):
        return None
    # infinite, or every edge set up to the bound was searched and none worked
    return False


def _b_t_text(cert: BondageCertificate) -> object:
    if cert.status == "finite":
        return cert.b_t
    return "inf" if cert.status == "infinite" else f">{cert.cap}"


def _exact_value(tag: str, g: Graph, work_budget: int | None, *, expected) -> GraphOutcome:
    want = expected(g)
    if want == math.inf:
        infinite = bondage(g, cap=0).status == "infinite"
        detail = [("expected", "inf"), ("got", "inf" if infinite else "finite-or-unknown")]
        return _outcome(tag, g, HOLDS if infinite else VIOLATED, detail)
    cert = bondage(g, cap=want, work_budget=work_budget)
    within = _within(cert, min(want, g.m))
    if within is None:
        return _skip(tag, g, "work-budget")
    detail = [("expected", want), ("got", _b_t_text(cert))]
    if cert.status == "finite":
        detail.append(("witness", edges_text(cert.witness)))
    return _outcome(tag, g, HOLDS if within and cert.b_t == want else VIOLATED, detail)


def _config_g4(tag: str, g: Graph, work_budget: int | None) -> GraphOutcome:
    report = planar.detect_girth4_config(g)
    detail = [("found", ",".join(report.tags) or "-")]
    return _outcome(tag, g, HOLDS if report.at_least_one else VIOLATED, detail)


def _config_borodin(tag: str, g: Graph, work_budget: int | None) -> GraphOutcome:
    # the detector needs the embedding, and computing it doubles as the
    # planarity guard, so the left-right test runs once per graph
    emb = planar.planar_embedding(g)
    if emb is None:
        return _skip(tag, g, _PLANAR.reason)
    loose = planar.detect_borodin(emb, planar.AT_MOST)
    strict = planar.detect_borodin(emb, planar.EXACT)
    detail = [
        ("found", ",".join(loose.tags) or "-"),
        ("exact_reading", ",".join(strict.tags) or "-"),
        ("skipped_faces", len(loose.skipped_faces)),
    ]
    return _outcome(tag, g, HOLDS if loose.at_least_one else VIOLATED, detail)


class Hypothesis(NamedTuple):
    reason: str  # the skip reason of a graph that fails it
    holds: Callable[[Graph], bool]


def _unmet(hypotheses: tuple[Hypothesis, ...], g: Graph) -> str | None:
    """The reason of the first hypothesis g misses, or None if all hold."""
    for reason, holds in hypotheses:
        if not holds(g):
            return reason
    return None


class Theorem(NamedTuple):
    hypotheses: tuple[Hypothesis, ...]  # checked in order; the first failure is reported
    judge: Callable[[str, Graph, int | None], GraphOutcome]


class Bound(NamedTuple):
    """An upper bound on b_t under hypotheses: a campaign tag, a `bounds` row, or both."""

    hypotheses: tuple[Hypothesis, ...]
    bound: Callable[[Graph], int]
    extra: Callable[[Graph], tuple] = lambda g: ()  # detail printed before b_t

    def judge(self, tag: str, g: Graph, work_budget: int | None) -> GraphOutcome:
        b = self.bound(g)
        # searching past the bound is wasted work: any completed level
        # above it already decides the verdict
        top = min(b, g.m)
        cert = bondage(g, cap=top, work_budget=work_budget)
        within = _within(cert, top)
        if within is None:
            return _skip(tag, g, "work-budget")
        detail = [("bound", b), *self.extra(g), ("b_t", _b_t_text(cert))]
        if cert.status == "finite":
            detail.append(("witness", edges_text(cert.witness)))
        elif cert.status == "infinite":
            detail.append(("criterion", cert.criterion))
        elif cert.cap >= g.m:  # no edge set of any size works
            detail.append(("note", "exhausted-all-edge-subsets"))
        return _outcome(tag, g, HOLDS if within else VIOLATED, detail)


# Guards look Graph methods and planar functions up at call time, so
# wrappers installed on them (bench/tracing.py) see every call.
_CONNECTED = Hypothesis("not-connected", lambda g: g.is_connected())
_MIN_DEGREE_3 = Hypothesis("min-degree-below-3", lambda g: g.min_degree() >= 3)
_GIRTH_4 = Hypothesis("girth-below-4", lambda g: not g.has_triangle())
_PLANAR = Hypothesis("not-planar", lambda g: planar.is_planar(g))
_TREE = Hypothesis("not-a-tree", _is_tree)
_NO_ISOLATED = Hypothesis("has-isolated-vertex", lambda g: not g.has_isolated_vertex())
_MAX_DEGREE_3 = Hypothesis("max-degree-below-3", lambda g: g.max_degree() >= 3)
_NOT_STAR = Hypothesis("star-excluded", lambda g: not _is_star(g))


def _parts_of_2_or_more(g: Graph) -> bool:
    return _multipartite_parts(g)[-1] >= 2


def _no_light_edge(g: Graph) -> bool:
    deg = g.degrees()
    return all(deg[u] + deg[v] >= 8 for u, v in g.edges())


# A row is a Bound, or a Theorem whose judge checks an exact value of
# b_t or runs a configuration detector.
THEOREMS: dict[str, Theorem | Bound] = {
    "thm-paths": Theorem(
        (Hypothesis("not-a-path", _is_path_graph),),
        partial(_exact_value, expected=lambda g: (
            math.inf if g.n <= 3 else 2 if g.n % 4 == 2 else 1)),
    ),
    "thm-cycles": Theorem(
        (Hypothesis("not-a-cycle", _is_cycle_graph),),
        partial(_exact_value, expected=lambda g: (
            math.inf if g.n == 3 else 3 if g.n % 4 == 2 else 2)),
    ),
    "thm-bipartite": Theorem(
        (
            Hypothesis("not-complete-bipartite", lambda g: (
                len(_multipartite_parts(g) or ()) == 2 and g.is_connected())),
            Hypothesis("smaller-side-below-2", _parts_of_2_or_more),
        ),
        partial(_exact_value, expected=lambda g: _multipartite_parts(g)[-1]),
    ),
    "thm-multipartite": Bound(
        (
            Hypothesis("not-complete-multipartite", lambda g: (
                len(_multipartite_parts(g) or ()) >= 2 and g.is_connected())),
            Hypothesis("a-part-below-2", _parts_of_2_or_more),
        ),
        lambda g: 4 * g.n - 2 * _multipartite_parts(g)[0] - 2,
        lambda g: (("construction_size", 2 * g.n - 2 * _multipartite_parts(g)[0] - 2),),
    ),
    "thm-tree-rad": Bound((_TREE, _MAX_DEGREE_3, _NOT_STAR), lambda g: g.max_degree() - 1),
    # K1 is the one tree whose b_t is undefined
    "thm-tree-sridharan": Bound(
        (_TREE, _NO_ISOLATED, _NOT_STAR), lambda g: min(g.max_degree(), (g.n - 1) // 3)
    ),
    "thm-tree-n23": Bound(
        (
            _TREE,
            _MAX_DEGREE_3,
            # after the two above, the only 4-vertex tree left is K1,3
            Hypothesis("excluded-k13", lambda g: g.n != 4),
            Hypothesis("excluded-t1", lambda g: not (
                g.n == 7 and is_isomorphic(g, subdivided_star((3, 0, 0))))),
            _NOT_STAR,
        ),
        lambda g: (g.n - 2) // 3,
    ),
    "thm-dist2-d1": Bound(
        (
            _CONNECTED,
            Hypothesis("min-degree-below-2", lambda g: g.min_degree() >= 2),
            # the anchor finder of the deg2-dist3 witness rule, stopped at its first pair
            Hypothesis("no-2-vertices-within-distance-3", lambda g: any(
                iter_anchors(g, "deg2-dist3"))),
        ),
        lambda g: g.max_degree() + 1,
    ),
    "thm-planar-d8": Bound(
        (_CONNECTED, _MIN_DEGREE_3, _PLANAR),
        lambda g: min(g.max_degree() + 8, 10),
        lambda g: (("branch_delta_plus_8", g.max_degree() + 8), ("branch_flat", 10)),
    ),
    "thm-girth4-d3": Bound(
        (
            _CONNECTED,
            _MIN_DEGREE_3,
            _GIRTH_4,
            _PLANAR,
            Hypothesis("has-low-degree-sum-edge", _no_light_edge),
        ),
        lambda g: g.max_degree() + 3,
    ),
    "config-g4": Theorem((_CONNECTED, _MIN_DEGREE_3, _GIRTH_4, _PLANAR), _config_g4),
    # not-planar is checked by the judge, on the embedding it needs
    "config-borodin": Theorem((_CONNECTED, _MIN_DEGREE_3), _config_borodin),
}
THEOREM_TAGS = tuple(THEOREMS)


def evaluate_theorem(tag: str, g: Graph, work_budget: int | None = None) -> GraphOutcome:
    """Judge one graph against one tagged claim."""
    if tag not in THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    row = THEOREMS[tag]
    reason = _unmet(row.hypotheses, g)
    if reason is not None:
        return _skip(tag, g, reason)
    return row.judge(tag, g, work_budget)


def _map(fn, graphs: list[Graph], jobs: int) -> list:
    """fn over graphs in corpus order; jobs > 1 spreads whole graphs over processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(graphs) > 1:
        # imported here, so that a run on one process never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, graphs))
    return [fn(g) for g in graphs]


def run_campaign(
    tag: str,
    corpus,
    work_budget: int | None = None,
    jobs: int = 1,
) -> CampaignResult:
    """Judge every graph in the corpus against the tagged claim.

    jobs > 1 distributes whole graphs over processes; record order is
    corpus order either way.
    """
    if tag not in THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    evaluate = partial(evaluate_theorem, tag, work_budget=work_budget)
    return CampaignResult(tag, tuple(_map(evaluate, list(corpus), jobs)))


def search_by_bondage(
    corpus, k: int, work_budget: int | None = None, jobs: int = 1
) -> list[GraphOutcome]:
    """Graphs in the corpus whose total bondage number is exactly k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    rows = _map(partial(_search_one, k=k, work_budget=work_budget), list(corpus), jobs)
    return [r for r in rows if r is not None]


def _search_one(g: Graph, k: int, work_budget: int | None) -> GraphOutcome | None:
    if g.has_isolated_vertex():  # b_t is undefined, so it is no match
        return None
    cert = bondage(g, cap=k, work_budget=work_budget)
    if cert.status != "finite" or cert.b_t != k:
        return None
    detail = (
        ("b_t", cert.b_t),
        ("witness", edges_text(cert.witness)),
        ("gamma_before", cert.gamma_before),
        ("gamma_after", cert.gamma_after),
    )
    return _outcome("search-bt", g, "match", detail)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    status: str  # holds | violated | not-applicable | unresolved
    bound: int | None
    b_t: float | None


def _triangle_at(g: Graph, vertices) -> bool:
    """Whether one of `vertices` lies on a triangle."""
    return any(g.adj[v] & g.adj[u] for v in vertices for u in _bits(g.adj[v]))


# The rows of `bounds`, in its column order: four order bounds on
# connected graphs, then two tree bounds that are also campaign tags.
_ORDER_4 = (_CONNECTED, Hypothesis("order-below-4", lambda g: g.n >= 4))
PRIOR_BOUNDS: dict[str, Bound] = {
    "order-girth5": Bound((*_ORDER_4, Hypothesis(
        "acyclic-or-girth-below-5", lambda g: 5 <= g.girth() < math.inf)), lambda g: g.n - 1),
    "order-girth4": Bound((*_ORDER_4, Hypothesis(
        "girth-not-4", lambda g: g.girth() == 4)), lambda g: g.n - 2),
    "order-triangle-support": Bound((*_ORDER_4, Hypothesis(
        "no-triangle-at-a-support-vertex", lambda g: _triangle_at(g, g.support_vertices()))),
        lambda g: g.n - 2),
    "order-triangle-deg2": Bound((*_ORDER_4, Hypothesis(
        "no-triangle-at-a-degree-2-vertex", lambda g: _triangle_at(
            g, (v for v in range(g.n) if g.degree(v) == 2)))), lambda g: g.n - 1),
    "tree-sridharan": THEOREMS["thm-tree-sridharan"],
    "tree-rad": THEOREMS["thm-tree-rad"],
}


def verify_prior_bounds(g: Graph, work_budget: int | None = None) -> tuple[BoundCheck, ...]:
    """Judge the six Bound rows of PRIOR_BOUNDS from one uncapped certificate,
    each through `_within`; a row whose hypotheses g misses is not-applicable."""
    cert = bondage(g, work_budget=work_budget)
    # None: only decided up to cert.cap
    value = None if cert.status == "unknown-above-cap" else cert.value()
    checks = []
    for name, row in PRIOR_BOUNDS.items():
        if _unmet(row.hypotheses, g) is None:
            bound = row.bound(g)
            within = _within(cert, bound)
            status = "unresolved" if within is None else HOLDS if within else VIOLATED
        else:
            bound, status = None, "not-applicable"
        checks.append(BoundCheck(name, status, bound, value))
    return tuple(checks)
