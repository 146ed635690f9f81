"""Theorem-verification campaigns over graph corpora.

A campaign pairs a hypothesis filter with a bound (or a detector) and
sweeps a corpus: graphs outside the hypothesis are recorded as skipped,
graphs inside are judged by the exact solver.  Output is one RECORD
line per graph, keyed by the full graph6 string so any line can be
replayed, plus one SUMMARY line.  Nothing is sampled; a campaign with a
work budget marks budget-cut graphs as skipped rather than guessing.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .bondage import BondageCertificate, bondage
from .formats import graph6_bytes
from .graphs import Graph
from .smallgraphs import is_isomorphic
from .families import star, subdivided_star

THEOREM_TAGS = (
    "thm-paths",
    "thm-cycles",
    "thm-bipartite",
    "thm-multipartite",
    "thm-tree-rad",
    "thm-tree-sridharan",
    "thm-tree-n23",
    "thm-dist2-d1",
    "thm-planar-d8",
    "thm-girth4-d3",
    "config-g4",
    "config-borodin",
)

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
        parts = [
            f"RECORD theorem={self.theorem}",
            f"graph={self.graph6}",
            f"n={self.n}",
            f"m={self.m}",
            f"status={self.status}",
        ]
        parts.extend(f"{k}={v}" for k, v in self.detail)
        return " ".join(parts)


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
        return (
            f"SUMMARY theorem={self.theorem} checked={self.checked} "
            f"holds={self.holds} violations={self.violations} skipped={self.skipped}"
        )

    def records(self) -> list[str]:
        return [o.record() for o in self.outcomes] + [self.summary()]


def _g6(g: Graph) -> str:
    return graph6_bytes(g).decode("ascii")


def _skip(tag: str, g: Graph, reason: str) -> GraphOutcome:
    return GraphOutcome(tag, _g6(g), g.n, g.m, SKIPPED, (("reason", reason),))


def _is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected()


def _is_star(g: Graph) -> bool:
    return _is_tree(g) and g.n >= 2 and g.max_degree() == g.n - 1


def _is_path_graph(g: Graph) -> bool:
    if not _is_tree(g) or g.n < 2:
        return False
    degs = sorted(g.degrees())
    return degs[-1] <= 2 and degs.count(1) == 2


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
        ok = True
        mm = cluster
        while mm:
            low = mm & -mm
            u = low.bit_length() - 1
            mm ^= low
            if comp.adj[u] | (1 << u) != cluster:
                ok = False
                break
        if not ok:
            return None
        seen |= cluster
        parts.append(cluster.bit_count())
    return tuple(sorted(parts, reverse=True))


def _bound_certificate(g: Graph, bound: int, work_budget: int | None) -> BondageCertificate:
    # searching past the bound is wasted work: any completed level
    # above it already decides the verdict
    return bondage(g, cap=min(bound, g.m), work_budget=work_budget)


def _judge_upper_bound(
    tag: str, g: Graph, bound: int, work_budget: int | None, extra: tuple = ()
) -> GraphOutcome:
    cert = _bound_certificate(g, bound, work_budget)
    detail: list[tuple[str, object]] = [("bound", bound)]
    detail.extend(extra)
    if cert.status == "finite":
        detail.append(("b_t", cert.b_t))
        detail.append(("witness", _render_edges(cert.witness)))
        status = HOLDS if cert.b_t <= bound else VIOLATED
    elif cert.status == "infinite":
        detail.append(("b_t", "inf"))
        detail.append(("criterion", cert.criterion.replace(" ", "-")))
        status = VIOLATED
    else:
        if cert.cap is None or cert.cap < min(bound, g.m):
            return _skip(tag, g, "work-budget")
        # every subset up to min(bound, m) was searched and none worked,
        # so b_t exceeds the bound; cap == m means none exists at all
        detail.append(("b_t", f">{cert.cap}"))
        if cert.cap >= g.m:
            detail.append(("note", "exhausted-all-edge-subsets"))
        status = VIOLATED
    return GraphOutcome(tag, _g6(g), g.n, g.m, status, tuple(detail))


def _judge_exact_value(
    tag: str, g: Graph, expected: float, work_budget: int | None
) -> GraphOutcome:
    detail: list[tuple[str, object]] = [("expected", "inf" if expected == math.inf else int(expected))]
    if expected == math.inf:
        cert = bondage(g, cap=0)
        got = "inf" if cert.status == "infinite" else "finite-or-unknown"
        status = HOLDS if cert.status == "infinite" else VIOLATED
        detail.append(("got", got))
        return GraphOutcome(tag, _g6(g), g.n, g.m, status, tuple(detail))
    cert = bondage(g, cap=int(expected), work_budget=work_budget)
    if cert.status == "finite":
        detail.append(("got", cert.b_t))
        detail.append(("witness", _render_edges(cert.witness)))
        status = HOLDS if cert.b_t == expected else VIOLATED
    elif cert.status == "infinite":
        detail.append(("got", "inf"))
        status = VIOLATED
    else:
        if cert.cap is not None and cert.cap >= min(int(expected), g.m):
            detail.append(("got", f">{cert.cap}"))
            status = VIOLATED
        else:
            return _skip(tag, g, "work-budget")
    return GraphOutcome(tag, _g6(g), g.n, g.m, status, tuple(detail))


def _render_edges(edges) -> str:
    if not edges:
        return "-"
    return ",".join(f"{u}-{v}" for u, v in sorted(edges))


def _t1_tree() -> Graph:
    return subdivided_star((3, 0, 0))


def evaluate_theorem(tag: str, g: Graph, work_budget: int | None = None) -> GraphOutcome:
    """Judge one graph against one tagged claim."""
    if tag == "thm-paths":
        if not _is_path_graph(g):
            return _skip(tag, g, "not-a-path")
        if g.n <= 3:
            return _judge_exact_value(tag, g, math.inf, work_budget)
        expected = 2 if g.n % 4 == 2 else 1
        return _judge_exact_value(tag, g, expected, work_budget)

    if tag == "thm-cycles":
        if not _is_cycle_graph(g):
            return _skip(tag, g, "not-a-cycle")
        if g.n == 3:
            return _judge_exact_value(tag, g, math.inf, work_budget)
        expected = 3 if g.n % 4 == 2 else 2
        return _judge_exact_value(tag, g, expected, work_budget)

    if tag == "thm-bipartite":
        parts = _multipartite_parts(g)
        if parts is None or len(parts) != 2 or not g.is_connected():
            return _skip(tag, g, "not-complete-bipartite")
        if parts[-1] < 2:
            return _skip(tag, g, "smaller-side-below-2")
        return _judge_exact_value(tag, g, parts[-1], work_budget)

    if tag == "thm-multipartite":
        parts = _multipartite_parts(g)
        if parts is None or len(parts) < 2 or not g.is_connected():
            return _skip(tag, g, "not-complete-multipartite")
        if parts[-1] < 2:
            return _skip(tag, g, "a-part-below-2")
        n1 = parts[0]
        bound = 4 * g.n - 2 * n1 - 2
        proof_size = 2 * g.n - 2 * n1 - 2
        return _judge_upper_bound(
            tag, g, bound, work_budget, extra=(("construction_size", proof_size),)
        )

    if tag == "thm-tree-rad":
        if not _is_tree(g):
            return _skip(tag, g, "not-a-tree")
        if g.max_degree() < 3:
            return _skip(tag, g, "max-degree-below-3")
        if _is_star(g):
            return _skip(tag, g, "star-excluded")
        return _judge_upper_bound(tag, g, g.max_degree() - 1, work_budget)

    if tag == "thm-tree-sridharan":
        if not _is_tree(g):
            return _skip(tag, g, "not-a-tree")
        if _is_star(g):
            return _skip(tag, g, "star-excluded")
        bound = min(g.max_degree(), (g.n - 1) // 3)
        return _judge_upper_bound(tag, g, bound, work_budget)

    if tag == "thm-tree-n23":
        if not _is_tree(g):
            return _skip(tag, g, "not-a-tree")
        if g.max_degree() < 3:
            return _skip(tag, g, "max-degree-below-3")
        if g.n == 4 and is_isomorphic(g, star(3)):
            return _skip(tag, g, "excluded-k13")
        if g.n == 7 and is_isomorphic(g, _t1_tree()):
            return _skip(tag, g, "excluded-t1")
        if _is_star(g):
            return _skip(tag, g, "star-excluded")
        return _judge_upper_bound(tag, g, (g.n - 2) // 3, work_budget)

    if tag == "thm-dist2-d1":
        if not g.is_connected():
            return _skip(tag, g, "not-connected")
        if g.min_degree() < 2:
            return _skip(tag, g, "min-degree-below-2")
        twos = [v for v in range(g.n) if g.degree(v) == 2]
        if not any(
            1 <= g.distance(a, b) <= 3
            for i, a in enumerate(twos)
            for b in twos[i + 1 :]
        ):
            return _skip(tag, g, "no-2-vertices-within-distance-3")
        return _judge_upper_bound(tag, g, g.max_degree() + 1, work_budget)

    if tag == "thm-planar-d8":
        from .planar import is_planar

        if not g.is_connected():
            return _skip(tag, g, "not-connected")
        if g.min_degree() < 3:
            return _skip(tag, g, "min-degree-below-3")
        if not is_planar(g):
            return _skip(tag, g, "not-planar")
        d8 = g.max_degree() + 8
        bound = min(d8, 10)
        return _judge_upper_bound(
            tag, g, bound, work_budget, extra=(("branch_delta_plus_8", d8), ("branch_flat", 10))
        )

    if tag == "thm-girth4-d3":
        from .planar import is_planar

        if not g.is_connected():
            return _skip(tag, g, "not-connected")
        if g.min_degree() < 3:
            return _skip(tag, g, "min-degree-below-3")
        if g.girth() < 4:
            return _skip(tag, g, "girth-below-4")
        if not is_planar(g):
            return _skip(tag, g, "not-planar")
        if any(sum(g.classify_edge(u, v)) <= 7 for u, v in g.edges()):
            return _skip(tag, g, "has-low-degree-sum-edge")
        return _judge_upper_bound(tag, g, g.max_degree() + 3, work_budget)

    if tag == "config-g4":
        from .planar import detect_girth4_config, is_planar

        if not g.is_connected():
            return _skip(tag, g, "not-connected")
        if g.min_degree() < 3:
            return _skip(tag, g, "min-degree-below-3")
        if g.girth() < 4:
            return _skip(tag, g, "girth-below-4")
        if not is_planar(g):
            return _skip(tag, g, "not-planar")
        report = detect_girth4_config(g)
        status = HOLDS if report.at_least_one else VIOLATED
        detail = (("found", ",".join(report.tags) or "-"),)
        return GraphOutcome(tag, _g6(g), g.n, g.m, status, detail)

    if tag == "config-borodin":
        from .planar import AT_MOST, EXACT, detect_borodin, planar_embedding

        if not g.is_connected():
            return _skip(tag, g, "not-connected")
        if g.min_degree() < 3:
            return _skip(tag, g, "min-degree-below-3")
        emb = planar_embedding(g)
        if emb is None:
            return _skip(tag, g, "not-planar")
        loose = detect_borodin(g, emb, AT_MOST)
        strict = detect_borodin(g, emb, EXACT)
        status = HOLDS if loose.at_least_one else VIOLATED
        detail = (
            ("found", ",".join(loose.tags) or "-"),
            ("exact_reading", ",".join(strict.tags) or "-"),
            ("skipped_faces", len(loose.skipped_faces)),
        )
        return GraphOutcome(tag, _g6(g), g.n, g.m, status, detail)

    raise ValueError(f"unknown theorem tag {tag!r}")


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
    if tag not in THEOREM_TAGS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    graphs = list(corpus)
    if jobs > 1 and len(graphs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(partial(evaluate_theorem, tag, work_budget=work_budget), graphs)
            )
    else:
        outcomes = [evaluate_theorem(tag, g, work_budget) for g in graphs]
    return CampaignResult(tag, tuple(outcomes))


def search_by_bondage(
    corpus, k: int, work_budget: int | None = None, jobs: int = 1
) -> list[GraphOutcome]:
    """Graphs in the corpus whose total bondage number is exactly k."""
    graphs = list(corpus)
    runner = partial(_search_one, k=k, work_budget=work_budget)
    if jobs > 1 and len(graphs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(runner, graphs))
    else:
        rows = [runner(g) for g in graphs]
    return [r for r in rows if r is not None]


def _search_one(g: Graph, k: int, work_budget: int | None) -> GraphOutcome | None:
    cert = bondage(g, cap=k, work_budget=work_budget)
    if cert.status != "finite" or cert.b_t != k:
        return None
    detail = (
        ("b_t", cert.b_t),
        ("witness", _render_edges(cert.witness)),
        ("gamma_before", cert.gamma_before),
        ("gamma_after", cert.gamma_after),
    )
    return GraphOutcome("search-bt", _g6(g), g.n, g.m, "match", detail)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    status: str  # holds | violated | not-applicable | unresolved
    bound: int | None
    b_t: float | None


def verify_prior_bounds(g: Graph, work_budget: int | None = None) -> tuple[BoundCheck, ...]:
    """Evaluate the published order, tree and degree bounds against exact b_t."""
    cert = bondage(g, work_budget=work_budget)
    if cert.status == "finite":
        value: float | None = cert.b_t
    elif cert.status == "infinite":
        value = math.inf
    else:
        value = None  # only decided up to cert.cap
    checks: list[BoundCheck] = []

    def add(name: str, applicable: bool, bound: int | None) -> None:
        if not applicable:
            checks.append(BoundCheck(name, "not-applicable", None, value))
            return
        if value is not None:
            status = HOLDS if value <= bound else VIOLATED
        elif cert.cap is not None and bound <= cert.cap:
            status = VIOLATED  # all subsets up to the bound were searched
        else:
            status = "unresolved"
        checks.append(BoundCheck(name, status, bound, value))

    girth = g.girth()
    order_ok = g.is_connected() and g.n >= 4
    add("order-girth5", order_ok and girth != math.inf and girth >= 5, g.n - 1)
    add("order-girth4", order_ok and girth == 4, g.n - 2)
    tri_support = False
    tri_deg2 = False
    if order_ok and girth == 3:
        supports = g.support_vertices()
        for tri in g.induced_cycles(3):
            if any(v in supports for v in tri):
                tri_support = True
            if any(g.degree(v) == 2 for v in tri):
                tri_deg2 = True
    add("order-triangle-support", tri_support, g.n - 2)
    add("order-triangle-deg2", tri_deg2, g.n - 1)
    tree = _is_tree(g)
    nonstar_tree = tree and not _is_star(g)
    add(
        "tree-sridharan",
        nonstar_tree,
        min(g.max_degree(), (g.n - 1) // 3) if nonstar_tree else None,
    )
    rad_ok = nonstar_tree and g.max_degree() >= 3
    add("tree-rad", rad_ok, g.max_degree() - 1 if rad_ok else None)
    return tuple(checks)
