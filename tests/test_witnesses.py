"""Lemma-driven edge-set builders replayed against an independent solver.

Every builder output is judged by deleting the edges and recomputing the
total domination number from scratch; these tests re-derive that verdict
with the brute-force oracle so a solver bug cannot vouch for itself.
"""

import pytest

from oracles import brute_gamma_t
from totbond.families import complete, complete_bipartite, complete_multipartite, cycle, path
from totbond.graphs import Graph
from totbond.witnesses import (
    ISOLATES,
    NO_RISE,
    RULES,
    UNMET,
    VALID,
    WitnessReport,
    apply_rule,
    find_anchors,
    scan_witnesses,
    witness_cycle4,
    witness_cycle5,
    witness_deg2_dist3,
    witness_deg3_dist2,
    witness_multipartite,
    witness_triangle,
)

# square 0-1-2-3 with a roof apex 4 over the 2-3 wall
HOUSE = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


def replay_with_oracle(g: Graph, report: WitnessReport):
    """Recompute the verdict independently of the library solver."""
    h = g.delete_edges(report.edges)
    if h.has_isolated_vertex():
        return ISOLATES
    return VALID if brute_gamma_t(h) > brute_gamma_t(g) else NO_RISE


class TestTriangleRule:
    def test_k4(self):
        g = complete(4)
        rep = witness_triangle(g, 0, 1, 2)
        assert rep.verdict == VALID
        assert replay_with_oracle(g, rep) == VALID
        # claimed bound: degree sum of the corners minus 5
        assert rep.claimed_bound == 9 - 5
        assert rep.observed_size <= rep.claimed_bound

    def test_bare_triangle_unmet(self):
        rep = witness_triangle(cycle(3), 0, 1, 2)
        assert rep.verdict == UNMET
        assert rep.reason

    def test_support_vertex_unmet(self):
        # pendant hanging off the triangle makes corner 0 a support vertex
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        rep = witness_triangle(g, 0, 1, 2)
        assert rep.verdict == UNMET

    def test_non_triangle_anchors_unmet(self):
        rep = witness_triangle(path(4), 0, 1, 2)
        assert rep.verdict == UNMET

    def test_house_roof(self):
        g = HOUSE
        rep = witness_triangle(g, 2, 3, 4)
        assert rep.verdict == replay_with_oracle(g, rep)


class TestCycle4Rule:
    def test_c4_itself(self):
        g = cycle(4)
        rep = witness_cycle4(g, 0, 1, 2, 3)
        assert rep.verdict == VALID
        assert rep.observed_size == 2
        assert replay_with_oracle(g, rep) == VALID

    def test_k33(self):
        g = complete_bipartite(3, 3)
        cyc = find_anchors(g, "cycle4")[0]
        rep = witness_cycle4(g, *cyc)
        assert rep.verdict == replay_with_oracle(g, rep)
        assert rep.claimed_bound == sum(g.degree(v) for v in cyc) - 6

    def test_chorded_cycle_unmet(self):
        g = complete(4)
        rep = witness_cycle4(g, 0, 1, 2, 3)
        assert rep.verdict == UNMET

    def test_degree_one_corner_unmet(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        rep = witness_cycle4(g, 0, 1, 2, 3)
        # precondition needs min degree 2 overall; vertex 4 has degree 1
        assert rep.verdict == UNMET


class TestCycle5Rule:
    def test_c5_bound_overshoots(self):
        """The stated bound allows 3 edges here but 2 already suffice."""
        g = cycle(5)
        rep = witness_cycle5(g, 0, 1, 2, 3, 4)
        assert rep.claimed_bound == 3
        assert rep.observed_size == 2
        assert rep.verdict == VALID
        assert replay_with_oracle(g, rep) == VALID

    def test_ear_vertex_stranded(self):
        """A vertex riding on two adjacent cycle vertices loses all edges."""
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 5)]
        )
        assert find_anchors(g, "cycle5") == [(0, 1, 2, 3, 4)]
        rep = witness_cycle5(g, 0, 1, 2, 3, 4)
        assert rep.verdict == ISOLATES
        assert rep.isolate_free is False
        assert replay_with_oracle(g, rep) == ISOLATES

    def test_non_cycle_unmet(self):
        rep = witness_cycle5(path(5), 0, 1, 2, 3, 4)
        assert rep.verdict == UNMET


class TestDegreeRules:
    def test_deg3_dist2_on_cube(self):
        from totbond.corpus import cube

        g = cube()
        pairs = find_anchors(g, "deg3-dist2")
        assert pairs
        rep = witness_deg3_dist2(g, *pairs[0])
        assert rep.claimed_bound == g.max_degree() + 3
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_deg3_dist2_requires_min_degree(self):
        rep = witness_deg3_dist2(path(6), 0, 2)
        assert rep.verdict == UNMET

    def test_deg2_dist3_on_c6(self):
        g = cycle(6)
        rep = witness_deg2_dist3(g, 0, 3)
        assert rep.claimed_bound == 3
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_deg2_dist3_adjacent_pair(self):
        g = cycle(4)
        rep = witness_deg2_dist3(g, 0, 1)
        assert rep.verdict in (VALID, ISOLATES, NO_RISE)
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_deg2_dist3_triangle_violation(self):
        """C3 meets the hypotheses but has no bondage set at all."""
        g = cycle(3)
        rep = witness_deg2_dist3(g, 0, 1)
        assert rep.verdict in (ISOLATES, NO_RISE)
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_wrong_degree_unmet(self):
        g = complete(4)
        rep = witness_deg2_dist3(g, 0, 1)
        assert rep.verdict == UNMET

    def test_too_far_apart_unmet(self):
        g = cycle(10)
        rep = witness_deg2_dist3(g, 0, 5)
        assert rep.verdict == UNMET


class TestMultipartiteRule:
    def test_k22_bound_is_loose(self):
        """Claimed allowance 4n-2n1-2 = 10 exceeds every subset; 2 edges work."""
        g, rep = witness_multipartite((2, 2))
        assert g == complete_multipartite((2, 2))
        assert rep.claimed_bound == 10
        assert rep.observed_size == 2
        assert rep.verdict == VALID
        assert replay_with_oracle(g, rep) == VALID

    def test_k222(self):
        g, rep = witness_multipartite((2, 2, 2))
        assert rep.claimed_bound == 4 * 6 - 2 * 2 - 2
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_k322(self):
        g, rep = witness_multipartite((3, 2, 2))
        assert rep.verdict == replay_with_oracle(g, rep)

    def test_part_below_two_unmet(self):
        _, rep = witness_multipartite((3, 1))
        assert rep.verdict == UNMET


class TestAnchorsAndDispatch:
    def test_find_anchors_triangle(self):
        assert (0, 1, 2) in find_anchors(complete(4), "triangle")

    def test_find_anchors_empty_when_absent(self):
        assert find_anchors(cycle(5), "triangle") == []
        assert find_anchors(cycle(5), "cycle4") == []

    def test_apply_rule_matches_direct_call(self):
        g = cycle(4)
        assert apply_rule(g, "cycle4", (0, 1, 2, 3)) == witness_cycle4(g, 0, 1, 2, 3)

    def test_apply_rule_unknown(self):
        with pytest.raises(ValueError):
            apply_rule(cycle(4), "pentagon", (0,))

    def test_apply_rule_bad_anchor(self):
        with pytest.raises(ValueError):
            apply_rule(cycle(4), "cycle4", (0, 1, 2, 9))

    def test_apply_rule_wrong_anchor_count(self):
        with pytest.raises(ValueError, match="takes 3 anchors, got 2"):
            apply_rule(complete(4), "triangle", (0, 1))

    def test_scan_covers_multiple_rules(self):
        reports = scan_witnesses(HOUSE)
        assert {r.rule for r in reports} <= set(RULES)
        assert any(r.rule == "triangle" and r.verdict == VALID for r in reports)
        # the square deletion strands the apex: kept as a replayable record
        assert any(r.rule == "cycle4" and r.verdict == ISOLATES for r in reports)

    def test_scan_is_deterministic(self):
        assert scan_witnesses(cycle(6)) == scan_witnesses(cycle(6))

    def test_scan_solves_and_encodes_each_graph_once(self, monkeypatch):
        from totbond import witnesses
        from totbond.corpus import cube

        g = cube()
        solved, encoded = [], []
        real_gamma, real_g6 = witnesses.gamma_t, witnesses.graph6_bytes
        monkeypatch.setattr(witnesses, "gamma_t", lambda h: solved.append(h) or real_gamma(h))
        monkeypatch.setattr(witnesses, "graph6_bytes", lambda h: encoded.append(h) or real_g6(h))
        reports = scan_witnesses(g)
        replayed = [r for r in reports if r.isolate_free]
        assert len(reports) > 1 and replayed
        assert solved.count(g) == 1
        # one further solve per replay on the graph minus the edge set
        assert len(solved) == 1 + len(replayed)
        assert encoded == [g]
        monkeypatch.undo()
        assert reports == [apply_rule(g, r.rule, r.anchors) for r in reports]


class TestSoundnessSweep:
    def test_valid_verdicts_are_true_bondage_sets(self):
        """Across a mixed corpus, every VALID report survives oracle replay."""
        corpus = [
            cycle(4),
            cycle(5),
            cycle(6),
            cycle(7),
            complete(4),
            complete(5),
            complete_bipartite(2, 3),
            complete_bipartite(3, 3),
            HOUSE,
            path(6),
        ]
        checked = 0
        for g in corpus:
            for rep in scan_witnesses(g):
                if rep.verdict == UNMET:
                    continue
                assert rep.verdict == replay_with_oracle(g, rep), (rep.rule, rep.anchors)
                if rep.verdict == VALID:
                    assert rep.gamma_after > rep.gamma_before
                    checked += 1
        assert checked >= 5
