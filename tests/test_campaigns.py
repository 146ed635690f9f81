"""Theorem campaigns over exhaustive corpora, honest records included.

Where a published claim fails on a graph that satisfies its hypotheses,
the campaign must say so: those records are pinned here as expected
output, never patched over.
"""

import math
import re
from pathlib import Path

import pytest

from oracles import complement_multipartite_parts, prior_bound_rows
from totbond.bondage import BondageCertificate, bondage
from totbond.campaigns import (
    HOLDS,
    PRIOR_BOUNDS,
    SKIPPED,
    THEOREM_TAGS,
    THEOREMS,
    VIOLATED,
    CampaignResult,
    GraphOutcome,
    _b_t_text,
    _multipartite_parts,
    _unmet,
    _within,
    evaluate_theorem,
    run_campaign,
    search_by_bondage,
    verify_prior_bounds,
)
from totbond.corpus import girth4_corpus, planar_min3_corpus
from totbond.families import (
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    path,
    star,
    subdivided_star,
)
from totbond.formats import graph6_bytes
from totbond.graphs import Graph
from totbond.smallgraphs import enumerate_graph_classes
from totbond.trees import enumerate_trees


def tree_corpus(lo, hi):
    for n in range(lo, hi + 1):
        yield from enumerate_trees(n)


def checks_by_name(g, **kw):
    return {c.name: c for c in verify_prior_bounds(g, **kw)}


class TestClosedFormCampaigns:
    def test_paths(self):
        res = run_campaign("thm-paths", [path(n) for n in range(2, 11)])
        assert res.violations == 0
        assert res.skipped == 0
        assert res.holds == 9

    def test_cycles(self):
        res = run_campaign("thm-cycles", [cycle(n) for n in range(3, 11)])
        assert res.violations == 0
        assert res.holds == 8

    def test_bipartite(self):
        corpus = [complete_bipartite(m, n) for m in range(2, 5) for n in range(m, 5)]
        res = run_campaign("thm-bipartite", corpus)
        assert res.violations == 0
        assert res.holds == len(corpus)

    def test_wrong_family_skips(self):
        res = run_campaign("thm-paths", [cycle(5), complete(4)])
        assert res.skipped == 2
        assert {o.detail[-1][1] for o in res.outcomes} == {"not-a-path"}

    def test_bipartite_small_side(self):
        out = evaluate_theorem("thm-bipartite", complete_bipartite(1, 4))
        assert out.status == SKIPPED
        assert ("reason", "smaller-side-below-2") in out.detail


class TestTreeCampaigns:
    def test_delta3_corpus_clean(self):
        """On max-degree >= 3 trees minus the stated exclusions, all three hold."""
        corpus = [
            t
            for t in tree_corpus(5, 9)
            if t.max_degree() >= 3 and sorted(t.degrees())[-2] > 1  # not a star
        ]
        for tag in ("thm-tree-n23", "thm-tree-rad", "thm-tree-sridharan"):
            res = run_campaign(tag, corpus)
            assert res.violations == 0, (tag, [o.record() for o in res.outcomes if o.status == VIOLATED])

    def test_p6_violates_sridharan(self):
        """b_t(P6) = 2 > min(maxdeg, (n-1)//3) = 1: recorded, not hidden."""
        res = run_campaign("thm-tree-sridharan", [path(6)])
        assert res.violations == 1
        out = res.outcomes[0]
        assert out.status == VIOLATED
        assert out.graph6 == graph6_bytes(path(6)).decode()
        detail = dict(out.detail)
        assert detail["bound"] == 1
        # searched every subset up to the bound, so only a lower witness
        assert detail["b_t"] == ">1"

    def test_p6_bondage_value_is_two(self):
        # every single-edge deletion keeps gamma_t at 4 or strands a leaf
        cert = bondage(path(6))
        assert cert.b_t == 2

    def test_sridharan_other_paths_hold(self):
        res = run_campaign("thm-tree-sridharan", [path(n) for n in (4, 5, 7, 8, 9)])
        assert res.violations == 0

    def test_star_skipped_by_both(self):
        for tag in ("thm-tree-rad", "thm-tree-sridharan"):
            out = evaluate_theorem(tag, star(4))
            assert out.status == SKIPPED
            assert ("reason", "star-excluded") in out.detail

    def test_k1_skipped_by_sridharan(self):
        # K1 is a tree and not a star, but b_t is undefined on it
        out = evaluate_theorem("thm-tree-sridharan", Graph(1, (0,)))
        assert out.status == SKIPPED
        assert out.detail == (("reason", "has-isolated-vertex"),)

    def test_n23_exclusions(self):
        claw = subdivided_star((0, 0, 0))
        assert ("reason", "excluded-k13") in evaluate_theorem("thm-tree-n23", claw).detail
        t1 = subdivided_star((3, 0, 0))
        assert ("reason", "excluded-t1") in evaluate_theorem("thm-tree-n23", t1).detail

    def test_spiders_meet_the_tree_bounds(self):
        """S(2^r, 0^s), r legs subdivided twice and s leaves, has b_t = r:
        each tag's bound is met with equality where the tree lies in it."""
        for r in range(2, 8):
            for tag, leaves in (
                ("thm-tree-n23", (1, 2, 3)),
                ("thm-tree-sridharan", (1, 2)),
                ("thm-tree-rad", (1,)),
            ):
                for s in leaves:
                    out = evaluate_theorem(tag, subdivided_star((2,) * r + (0,) * s))
                    detail = dict(out.detail)
                    assert (out.status, detail["bound"], detail["b_t"]) == (HOLDS, r, r), (tag, r, s)

    def test_low_degree_tree_skipped(self):
        out = evaluate_theorem("thm-tree-n23", path(7))
        assert out.status == SKIPPED
        assert ("reason", "max-degree-below-3") in out.detail

    def test_non_tree_skipped(self):
        out = evaluate_theorem("thm-tree-rad", cycle(6))
        assert ("reason", "not-a-tree") in out.detail


class TestDegreeDistanceCampaign:
    def test_c3_honest_violation(self):
        """C3 satisfies the hypotheses yet admits no bondage set at all."""
        res = run_campaign("thm-dist2-d1", [cycle(3)])
        assert res.violations == 1
        detail = dict(res.outcomes[0].detail)
        assert detail["b_t"] == "inf"

    def test_cycles_hold(self):
        res = run_campaign("thm-dist2-d1", [cycle(n) for n in range(4, 9)])
        assert res.violations == 0
        assert res.holds == 5

    def test_no_close_pair_skips(self):
        out = evaluate_theorem("thm-dist2-d1", complete(5))
        assert out.status == SKIPPED
        assert ("reason", "no-2-vertices-within-distance-3") in out.detail


class TestPlanarCampaigns:
    def test_planar_d8_on_small_solids(self):
        from totbond.corpus import cube, tetrahedron, wheel

        res = run_campaign("thm-planar-d8", [tetrahedron(), cube(), wheel(5)])
        assert res.violations == 0
        assert res.holds == 3
        detail = dict(res.outcomes[0].detail)
        assert detail["bound"] == 10

    def test_planar_d8_skips_low_degree(self):
        out = evaluate_theorem("thm-planar-d8", cycle(5))
        assert ("reason", "min-degree-below-3") in out.detail

    def test_girth4_d3_skips_low_sum_edges(self):
        # cube edges all have degree sum 6 <= 7
        from totbond.corpus import cube

        out = evaluate_theorem("thm-girth4-d3", cube())
        assert out.status == SKIPPED
        assert ("reason", "has-low-degree-sum-edge") in out.detail

    def test_config_g4_over_corpus_sample(self):
        from totbond.corpus import girth4_corpus

        res = run_campaign("config-g4", girth4_corpus()[:40])
        assert res.holds == 40
        assert res.violations == 0

    def test_config_borodin_dodecahedron(self):
        from totbond.corpus import dodecahedron

        res = run_campaign("config-borodin", [dodecahedron()])
        assert res.holds == 1
        detail = dict(res.outcomes[0].detail)
        assert detail["found"]


class TestMultipartite:
    def test_part_recovery(self):
        assert _multipartite_parts(complete_multipartite((3, 2, 2))) == (3, 2, 2)
        assert _multipartite_parts(complete_bipartite(2, 4)) == (4, 2)
        assert _multipartite_parts(complete(4)) == (1, 1, 1, 1)
        assert _multipartite_parts(path(4)) is None

    def test_parts_match_the_complement_oracle(self):
        import random
        from itertools import combinations_with_replacement

        from totbond.smallgraphs import enumerate_graph_classes

        graphs = [g for n in range(1, 8) for g in enumerate_graph_classes(n)]
        rng = random.Random(29)
        members = 0
        for k in range(1, 5):
            for sizes in combinations_with_replacement(range(1, 5), k):
                g = complete_multipartite(sizes[::-1])
                perm = list(range(g.n))
                rng.shuffle(perm)
                graphs += [g, g.relabel(perm)]
                assert _multipartite_parts(g) == tuple(sorted(sizes, reverse=True))
                members += 1
        found = [_multipartite_parts(g) for g in graphs]
        assert found == [complement_multipartite_parts(g) for g in graphs]
        assert members == 69 and found.count(None) > 1000

    def test_campaign_holds(self):
        corpus = [complete_multipartite(p) for p in ((2, 2), (2, 2, 2), (3, 2), (3, 3))]
        res = run_campaign("thm-multipartite", corpus)
        assert res.violations == 0
        assert res.holds == len(corpus)
        detail = dict(res.outcomes[0].detail)
        assert detail["construction_size"] == 2 * 4 - 2 * 2 - 2

    def test_unit_part_skipped(self):
        out = evaluate_theorem("thm-multipartite", star(3))
        assert ("reason", "a-part-below-2") in out.detail

    def test_non_multipartite_skipped(self):
        out = evaluate_theorem("thm-multipartite", cycle(6))
        assert ("reason", "not-complete-multipartite") in out.detail


class TestRunnerMechanics:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            run_campaign("thm-unheard-of", [path(4)])

    def test_campaign_needs_a_job(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_campaign("thm-paths", [path(4)], jobs=0)

    def test_record_format(self):
        out = evaluate_theorem("thm-paths", path(4))
        line = out.record()
        assert line.startswith("RECORD theorem=thm-paths ")
        assert "status=holds" in line
        assert f"graph={graph6_bytes(path(4)).decode()}" in line

    def test_summary_counts_everything(self):
        res = run_campaign("thm-paths", [path(4), path(5), cycle(4)])
        assert res.summary() == (
            "SUMMARY theorem=thm-paths checked=3 holds=2 violations=0 skipped=1"
        )

    def test_parallel_matches_serial(self):
        corpus = [path(n) for n in range(4, 9)] + [cycle(4), complete(4)]
        serial = run_campaign("thm-paths", corpus, jobs=1)
        parallel = run_campaign("thm-paths", corpus, jobs=2)
        assert serial == parallel

    def test_work_budget_skip(self):
        from totbond.corpus import icosahedron

        out = evaluate_theorem("thm-planar-d8", icosahedron(), work_budget=10)
        assert out.status == SKIPPED
        assert ("reason", "work-budget") in out.detail

    def test_verdict_against_a_bound(self):
        """b_t <= bound is decided, or None when the search stopped short of it."""

        def cert(status, b_t=None, cap=None):
            return BondageCertificate(status, b_t, None, 2, None, cap=cap)

        assert [_within(cert("finite", b_t=2), b) for b in (1, 2)] == [False, True]
        assert _within(cert("infinite"), 99) is False
        stopped = cert("unknown-above-cap", cap=2)
        assert [_within(stopped, b) for b in (1, 2, 3)] == [False, False, None]

        # the interval each status proves, on certificates the search returns
        inf = math.inf
        decided = bondage(cycle(6))
        assert (decided.interval, decided.value(), _b_t_text(decided)) == ((3, 3), 3, 3)
        assert [_within(decided, b) for b in (2, 3)] == [False, True]
        infinite = bondage(path(3))
        assert (infinite.interval, infinite.value(), _b_t_text(infinite)) == ((inf, inf), inf, "inf")
        capped = bondage(cycle(6), cap=1)
        assert (capped.interval, _b_t_text(capped)) == ((2, inf), ">1")
        with pytest.raises(ValueError, match="undecided up to cap 1"):
            capped.value()
        assert [_within(capped, b) for b in (1, 2)] == [False, None]
        budget_stop = bondage(cycle(6), work_budget=0)
        assert (budget_stop.interval, _b_t_text(budget_stop)) == ((1, inf), ">0")
        assert _within(budget_stop, 1) is None

    def test_readme_tag_table_is_theorems(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Campaign tags", 1)[1].split("\n## ", 1)[0]
        assert set(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == set(THEOREMS)


class TestSearch:
    def test_search_finds_known_values(self):
        corpus = [path(5), path(6), cycle(6), complete_bipartite(2, 3)]
        hits = search_by_bondage(corpus, 2)
        got = {o.graph6 for o in hits}
        assert graph6_bytes(path(6)).decode() in got
        assert graph6_bytes(complete_bipartite(2, 3)).decode() in got
        assert graph6_bytes(path(5)).decode() not in got

    def test_search_records(self):
        hits = search_by_bondage([cycle(6)], 3)
        assert len(hits) == 1
        assert hits[0].theorem == "search-bt"
        assert hits[0].status == "match"

    def test_isolated_vertex_is_no_match(self):
        # b_t is undefined on K1 and on P2 plus a vertex
        corpus = [Graph(1, (0,)), Graph.from_edges(3, [(0, 1)]), path(5)]
        assert search_by_bondage(corpus, 1) == search_by_bondage([path(5)], 1)

    def test_negative_target_rejected(self):
        # a corpus of graphs with isolated vertices would otherwise give []
        with pytest.raises(ValueError, match="k must be nonnegative"):
            search_by_bondage([Graph(1, (0,))], -1)

    def test_search_needs_a_job(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            search_by_bondage([path(4)], 1, jobs=-1)


class TestPriorBounds:
    # the rows each corpus meets at least once: the graphs with n <= 7 meet all six
    @pytest.mark.parametrize("corpus,applied", [
        (lambda: [g for n in range(1, 8) for g in enumerate_graph_classes(n)], set(PRIOR_BOUNDS)),
        (lambda: tree_corpus(2, 10), {"tree-sridharan", "tree-rad"}),
        (planar_min3_corpus, {"order-girth5", "order-girth4"}),
        (lambda: [g for g in girth4_corpus() if g.n <= 24], {"order-girth4"}),
    ], ids=["classes-1..7", "trees-2..10", "planar-min3", "girth4-n24"])
    def test_rows_match_the_applicability_oracle(self, corpus, applied):
        seen = set()
        for g in corpus():
            rows = [(name, None if _unmet(row.hypotheses, g) else row.bound(g))
                    for name, row in PRIOR_BOUNDS.items()]
            assert rows == list(prior_bound_rows(g).items()), graph6_bytes(g)
            seen.update(name for name, bound in rows if bound is not None)
        assert seen == applied

    def test_p7(self):
        by = checks_by_name(path(7))
        assert by["tree-rad"].status == "not-applicable"
        assert by["tree-sridharan"].status == HOLDS
        assert by["tree-sridharan"].bound == 2
        assert by["tree-sridharan"].b_t == 1
        assert by["order-girth5"].status == "not-applicable"  # acyclic

    def test_star_not_applicable(self):
        by = checks_by_name(star(4))
        assert by["tree-rad"].status == "not-applicable"
        assert by["tree-sridharan"].status == "not-applicable"
        assert by["order-girth4"].status == "not-applicable"

    def test_p6_violates_sridharan_here_too(self):
        by = checks_by_name(path(6))
        assert by["tree-sridharan"].status == VIOLATED

    def test_girth5_order_bound(self):
        by = checks_by_name(cycle(5))
        assert by["order-girth5"].status == HOLDS
        assert by["order-girth5"].bound == 4

    def test_girth4_order_bound(self):
        by = checks_by_name(cycle(4))
        assert by["order-girth4"].status == HOLDS
        assert by["order-girth4"].bound == 2

    def test_triangle_cases(self):
        # triangle with a pendant: corner 0 is a support vertex
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        by = checks_by_name(g)
        assert by["order-triangle-support"].status in (HOLDS, VIOLATED)
        assert by["order-triangle-support"].bound == 2
        # triangle with a degree-2 corner
        h = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (3, 4)])
        by_h = checks_by_name(h)
        assert by_h["order-triangle-deg2"].bound == 4

    def test_infinite_value_marks_violation(self):
        by = checks_by_name(star(1))  # single edge, b_t infinite
        # no bound applies to K2 anyway (order < 4, star)
        assert all(
            c.status == "not-applicable" for c in verify_prior_bounds(star(1))
        )
