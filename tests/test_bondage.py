"""Bondage search and finiteness criterion against brute-force sweeps.

The finiteness criterion (a bondage set exists iff twice the matching
number exceeds gamma_t) is validated exhaustively on every connected
isolate-free graph with n <= 7 and m <= 12 before anything else trusts
it; the same corpus drives the search cross-check.  The subtree-skipping
search is held to the per-subset colex sweep it replaced
(`oracles.colex_bondage`): equal certificates for every cap and budget.
It is also held to the walk that visits every last-edge child
(`oracles.walk_bondage`): equal certificates and equal BondageStats.
"""

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_bondage,
    brute_has_bondage_set,
    brute_max_matching,
    colex_bondage,
    colex_subsets,
    walk_bondage,
)
from totbond.bondage import (
    DEFAULT_CAP_SLACK,
    INFINITE_CRITERION,
    BondageCertificate,
    BondageStats,
    _greedy_matching,
    _Sweep,
    bondage,
    max_matching_size,
)
from totbond.corpus import (
    cube,
    girth4_corpus,
    icosahedron,
    icosahedron_incidence,
    planar_min3_corpus,
)
from totbond.domination import gamma_t
from totbond.families import complete_bipartite, cycle, path, star
from totbond.graphs import Graph, IsolatedVertexError
from totbond.smallgraphs import enumerate_graph_classes
from totbond.trees import enumerate_trees


def connected_isolate_free(max_n, max_m=None):
    out = []
    for n in range(2, max_n + 1):
        for g in enumerate_graph_classes(n):
            if not g.is_connected():
                continue
            if max_m is not None and len(g.edges()) > max_m:
                continue
            out.append(g)
    return out


class TestMatching:
    def test_all_classes_n7(self):
        for n in range(1, 8):
            for g in enumerate_graph_classes(n):
                assert max_matching_size(g) == brute_max_matching(g)

    def test_greedy_seed_is_a_maximal_matching(self):
        for n in range(1, 8):
            for g in enumerate_graph_classes(n):
                match = _greedy_matching(g)
                for v, w in enumerate(match):
                    assert w == -1 or (match[w] == v and g.adj[v] >> w & 1)
                free = [v for v in range(n) if match[v] == -1]
                assert not any(g.adj[v] >> w & 1 for v in free for w in free)

    def test_blossom_case(self):
        # two triangles joined by a bridge force an odd-cycle augmentation
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        )
        assert max_matching_size(g) == 3

    def test_petersen(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        assert max_matching_size(Graph.from_edges(10, edges)) == 5


class TestFinitenessCriterion:
    def test_exhaustive_small(self):
        """Criterion == actual existence for every connected graph n<=6."""
        for g in connected_isolate_free(6):
            assert (bondage(g, cap=0).status != "infinite") == brute_has_bondage_set(g)

    def test_blossom_runs_only_when_the_greedy_seed_falls_short(self, monkeypatch):
        module = importlib.import_module("totbond.bondage")  # the package exports the function
        calls = []
        real = module.max_matching_size
        monkeypatch.setattr(module, "max_matching_size", lambda g: calls.append(g) or real(g))
        graphs = connected_isolate_free(6) + [t for n in range(5, 11) for t in enumerate_trees(n)]
        ran = 0
        for g in graphs:
            calls.clear()
            cert = bondage(g, cap=0)
            gv = cert.gamma_before
            assert (cert.status != "infinite") == (2 * brute_max_matching(g) > gv)
            seed = g.n - _greedy_matching(g).count(-1)  # matched vertices
            assert len(calls) == (seed <= gv), g.edges()
            ran += len(calls)
        assert 0 < ran < len(graphs)

    def test_known_infinite(self):
        assert bondage(path(2), cap=0).status == "infinite"
        assert bondage(path(3), cap=0).status == "infinite"
        assert bondage(cycle(3), cap=0).status == "infinite"
        assert bondage(star(4), cap=0).status == "infinite"

    def test_known_finite(self):
        assert bondage(path(4), cap=0).status != "infinite"
        assert bondage(cycle(4), cap=0).status != "infinite"
        assert bondage(complete_bipartite(2, 2), cap=0).status != "infinite"


class TestColexSubsets:
    def test_count(self):
        assert sum(1 for _ in colex_subsets(6, 3)) == math.comb(6, 3)

    def test_members_sorted_and_unique(self):
        seen = set()
        for combo in colex_subsets(7, 3):
            assert list(combo) == sorted(set(combo))
            seen.add(combo)
        assert len(seen) == math.comb(7, 3)

    def test_colex_order(self):
        got = list(colex_subsets(4, 2))
        assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_zero_size(self):
        assert list(colex_subsets(5, 0)) == [()]


class TestBondageValues:
    @pytest.mark.parametrize(
        "n,want", [(4, 1), (5, 1), (6, 2), (7, 1), (8, 1), (9, 1), (10, 2)]
    )
    def test_paths(self, n, want):
        cert = bondage(path(n))
        assert cert.status == "finite"
        assert cert.b_t == want

    @pytest.mark.parametrize("n,want", [(4, 2), (5, 2), (6, 3), (7, 2), (8, 2)])
    def test_cycles(self, n, want):
        assert bondage(cycle(n)).b_t == want

    def test_short_paths_infinite(self):
        for n in (2, 3):
            cert = bondage(path(n))
            assert cert.status == "infinite"
            assert cert.criterion == INFINITE_CRITERION
            assert cert.value() == float("inf")

    def test_triangle_infinite(self):
        assert bondage(cycle(3)).status == "infinite"

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_complete_bipartite(self, m, n):
        assert bondage(complete_bipartite(m, n)).b_t == m

    def test_exhaustive_against_oracle(self):
        """Full agreement with the subset-sweep oracle on small graphs."""
        for g in connected_isolate_free(5):
            want, _ = brute_bondage(g)
            cert = bondage(g)
            if want == float("inf"):
                assert cert.status == "infinite"
            else:
                assert cert.status == "finite"
                assert cert.b_t == want


class TestCertificates:
    def test_witness_replays(self):
        for g in connected_isolate_free(5):
            cert = bondage(g)
            if cert.status != "finite":
                continue
            assert len(cert.witness) == cert.b_t
            h = g.delete_edges(cert.witness)
            assert not h.has_isolated_vertex()
            from oracles import brute_gamma_t

            assert brute_gamma_t(h) > cert.gamma_before
            assert cert.gamma_after == brute_gamma_t(h)

    def test_gamma_fields(self):
        cert = bondage(cycle(4))
        assert cert.gamma_before == 2
        assert cert.gamma_after > 2

    def test_value_raises_when_undecided(self):
        cert = BondageCertificate("unknown-above-cap", None, None, 2, None, cap=3)
        with pytest.raises(ValueError):
            cert.value()


class TestCapAndBudget:
    def test_cap_zero_reports_unknown(self):
        cert = bondage(cycle(4), cap=0)
        assert cert.status == "unknown-above-cap"
        assert cert.cap == 0

    def test_cap_below_answer(self):
        # b_t(C6) = 3; cap 2 must stop short without guessing
        cert = bondage(cycle(6), cap=2)
        assert cert.status == "unknown-above-cap"
        assert cert.cap == 2

    def test_cap_at_answer(self):
        assert bondage(cycle(6), cap=3).b_t == 3

    def test_budget_exhaustion_reports_completed_level(self):
        cert = bondage(cycle(6), work_budget=1)
        assert cert.status == "unknown-above-cap"
        assert cert.cap == 0

    def test_budget_generous_is_harmless(self):
        assert bondage(path(5), work_budget=10**6).b_t == 1

    def test_default_cap_tracks_degree(self):
        g = path(6)
        cert = bondage(g)
        assert cert.status == "finite"
        assert cert.b_t <= g.max_degree() + DEFAULT_CAP_SLACK

    def test_isolates_rejected(self):
        with pytest.raises(IsolatedVertexError):
            bondage(Graph.from_edges(3, [(0, 1)]))

    @pytest.mark.parametrize("kwargs", [{"cap": -1}, {"work_budget": -5}])
    def test_negative_cap_or_budget_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be nonnegative"):
            bondage(cycle(6), **kwargs)


CAPS = (None, 0, 1, 2, 3, 4)
BUDGETS = (None, 1, 2, 3, 5, 10, 30, 100, 1000)
GRID = [(cap, budget) for cap in CAPS for budget in BUDGETS]


def fresh_last_edges(sweep, hi):
    """The edges below hi that kill every pooled set surviving the walk's U,
    from kill masks made afresh under U."""
    rest = (1 << hi) - 1
    for d in sweep.pool:
        if all(a & d for a in sweep.adj):
            rest &= _Sweep._kills(sweep, d)
    return rest


def level_start(m, k):
    """Subsets of sizes 1..k-1 that precede size k in the sweep."""
    return sum(math.comb(m, i) for i in range(1, k))


class TestAgainstColexSweep:
    """Same witness, same cap, same status as the per-subset sweep."""

    def check(self, g, cap, budget):
        got = bondage(g, cap=cap, work_budget=budget)
        assert got == colex_bondage(g, cap=cap, work_budget=budget), (g.edges(), cap, budget)
        return got

    def test_connected_up_to_six_full_grid(self):
        for g in connected_isolate_free(6):
            for cap, budget in GRID:
                self.check(g, cap, budget)

    def test_connected_seven_sampled_grid(self):
        # every graph meets 6 of the 54 grid points, every point ~95 graphs
        graphs = [g for g in enumerate_graph_classes(7) if g.is_connected()]
        for i, g in enumerate(graphs):
            for j, (cap, budget) in enumerate(GRID):
                if (i + j) % 9 == 0:
                    self.check(g, cap, budget)

    def test_trees_up_to_ten(self):
        for n in range(2, 11):
            for g in enumerate_trees(n):
                for cap, budget in GRID:
                    self.check(g, cap, budget)

    def test_planar_min3_up_to_ten(self):
        graphs = [g for g in planar_min3_corpus() if g.n <= 10]
        assert graphs
        for g in graphs:
            for cap, budget in GRID:
                self.check(g, cap, budget)


class TestAgainstWalk:
    """Same certificate and same BondageStats as the walk that visits every
    last-edge child and solves G - B a second time for gamma_after
    (`oracles.walk_bondage`)."""

    def check(self, g, cap=None, budget=None):
        got = bondage(g, cap=cap, work_budget=budget)
        want = walk_bondage(g, cap=cap, work_budget=budget)
        assert got == want, (g.edges(), cap, budget)
        assert got.stats == want.stats, (g.edges(), cap, budget)
        return got

    def test_planar_min3_at_campaign_budget(self):
        skipped = 0
        for g in planar_min3_corpus():
            skipped += self.check(g, budget=200000).stats.skipped_subtrees
        assert skipped > 0

    def test_icosahedron_incidence(self):
        cert = self.check(icosahedron_incidence())
        assert (cert.status, cert.b_t) == ("finite", 5)

    def test_trees_up_to_ten(self):
        for n in range(2, 11):
            for g in enumerate_trees(n):
                for cap, budget in GRID:
                    self.check(g, cap, budget)

    def test_isolate_free_classes_up_to_seven(self):
        graphs = [
            g for n in range(2, 8) for g in enumerate_graph_classes(n)
            if not g.has_isolated_vertex()
        ]
        assert len(graphs) == 1043
        for g in graphs:
            for cap, budget in GRID:
                self.check(g, cap, budget)

    def test_girth4_up_to_24(self):
        # walks that reach three edges left with many pooled sets
        graphs = [g for g in girth4_corpus() if g.n <= 24]
        assert len(graphs) == 36
        for g in graphs:
            self.check(g, budget=100000)


class TestCarriedMasks:
    """Each node's kill masks, carried down from its parent, equal the masks
    computed afresh under that node's U."""

    @pytest.mark.parametrize(
        "g, budget",
        [(cube(), None), (complete_bipartite(3, 3), None), (icosahedron(), 200000),
         (icosahedron_incidence(), None)],
        ids=["cube", "K3,3", "icosahedron", "icosahedron-incidence"],
    )
    def test_masks_match_fresh_kills(self, monkeypatch, g, budget):
        real_inner, real_kills = _Sweep._inner, _Sweep._kills
        carried = []  # entries checked at nodes below a level's root

        def check(sweep, masks):
            for d, kills in masks.items():
                assert kills == real_kills(sweep, d), (g.edges(), sweep.chosen)

        def inner(sweep, j, hi, alive, masks):
            assert set(masks) == set(alive)
            check(sweep, masks)
            if hi < len(sweep.edges):
                carried.extend(masks)
            found = real_inner(sweep, j, hi, alive, masks)
            check(sweep, masks)  # with the masks made on demand, U restored
            return found

        monkeypatch.setattr(_Sweep, "_inner", inner)
        bondage(g, work_budget=budget)
        assert carried

    @pytest.mark.parametrize(
        "g, budget",
        [(cube(), None), (complete_bipartite(3, 3), None), (icosahedron(), 200000),
         (icosahedron_incidence(), None)],
        ids=["cube", "K3,3", "icosahedron", "icosahedron-incidence"],
    )
    def test_last_edges_match_fresh_kills(self, monkeypatch, g, budget):
        real_last_edge = _Sweep._last_edge
        below_root = []  # last-edge steps with a carried AND, not a level's root

        def last_edge(sweep, hi, rest):
            assert rest == fresh_last_edges(sweep, hi), (g.edges(), sweep.chosen)
            if sweep.chosen:
                below_root.append(hi)
            return real_last_edge(sweep, hi, rest)

        monkeypatch.setattr(_Sweep, "_last_edge", last_edge)
        bondage(g, work_budget=budget)
        assert below_root

    def test_planar_min3_computes_few_masks(self, monkeypatch):
        # a fresh mask at every node made 19,711 calls here
        calls = []
        real_kills = _Sweep._kills
        monkeypatch.setattr(_Sweep, "_kills", lambda sweep, d: calls.append(d) or real_kills(sweep, d))
        for g in planar_min3_corpus():
            bondage(g, work_budget=200000)
        assert 0 < len(calls) <= 2000


class TestGammaAfter:
    """The solve that decides a bondage set B also gives gamma_after: it
    equals a fresh gamma_t(G - B), and bondage runs gamma_t only once."""

    def finite(self, graphs, budget=None):
        count = 0
        for g in graphs:
            cert = bondage(g, work_budget=budget)
            if cert.status == "finite":
                assert cert.gamma_after == gamma_t(g.delete_edges(cert.witness)).value, g.edges()
                count += 1
        return count

    def test_trees_up_to_twelve(self):
        assert self.finite(t for n in range(2, 13) for t in enumerate_trees(n)) == 975

    def test_isolate_free_classes_up_to_seven(self):
        graphs = (
            g for n in range(2, 8) for g in enumerate_graph_classes(n)
            if not g.has_isolated_vertex()
        )
        assert self.finite(graphs) == 1023

    def test_planar_min3_at_campaign_budget(self):
        assert self.finite(planar_min3_corpus(), budget=200000) == 19

    def test_girth4_up_to_24(self):
        graphs = [g for g in girth4_corpus() if g.n <= 24]
        assert self.finite(graphs, budget=100000) == len(graphs) == 36

    def test_tree_campaign_solves_gamma_t_once_per_judged_tree(self, monkeypatch):
        module = importlib.import_module("totbond.bondage")  # the package exports the function
        campaigns = importlib.import_module("totbond.campaigns")
        calls = []
        certs = []
        real_gamma, real_bondage = module.gamma_t, campaigns.bondage
        monkeypatch.setattr(module, "gamma_t", lambda g: calls.append(g) or real_gamma(g))
        monkeypatch.setattr(
            campaigns, "bondage", lambda *a, **k: certs.append(real_bondage(*a, **k)) or certs[-1]
        )
        result = campaigns.run_campaign(
            "thm-tree-n23", [t for n in range(5, 10) for t in enumerate_trees(n)]
        )
        judged = result.holds + result.violations
        assert (judged, len(certs), len(calls)) == (79, 79, 79)
        assert all(c.status == "finite" for c in certs)
        # the two-solve sweep's figure: the pool and the solves are unchanged
        assert sum(c.stats.exact_calls for c in certs) == 98


class TestBudgetBoundaries:
    def test_budget_ends_at_level_end(self):
        # b_t(C6) = 3: a budget covering sizes 1 and 2 exactly completes
        # level 2, and the first size-3 subset is one too many
        g = cycle(6)
        end2 = level_start(6, 3)
        cert = bondage(g, work_budget=end2)
        assert cert == colex_bondage(g, work_budget=end2)
        assert (cert.status, cert.cap) == ("unknown-above-cap", 2)
        assert bondage(g, work_budget=level_start(6, 2)).cap == 1

    def test_budget_ends_on_level_first_subset(self):
        g = cycle(6)
        first3 = level_start(6, 3) + 1  # {0, 1, 2} isolates vertex 0
        cert = bondage(g, work_budget=first3)
        assert cert == colex_bondage(g, work_budget=first3)
        assert (cert.status, cert.cap) == ("unknown-above-cap", 2)
        # P5 labelled 1-3-0-4-2: the level's first subset {(0, 3)} is
        # the witness, so it fits a budget of one and not of zero
        p5 = Graph.from_edges(5, [(0, 3), (0, 4), (1, 3), (2, 4)])
        assert bondage(p5, work_budget=1).witness == frozenset({(0, 3)})
        assert bondage(p5, work_budget=1) == colex_bondage(p5, work_budget=1)
        cert = bondage(p5, work_budget=0)
        assert (cert.status, cert.cap) == ("unknown-above-cap", 0)

    def test_budget_ends_inside_skipped_subtree(self, monkeypatch):
        # record every block the search rules out without a visit, then
        # end the budget strictly inside each block of 2 or more subsets;
        # the blocks of last-edge children that a two-edges-left node
        # rules out before visiting them are among them
        blocks = []
        prechecked = []
        nodes = []  # (j, examined at entry) of each running _inner call
        real_skip, real_inner = _Sweep._skip, _Sweep._inner

        def inner(sweep, j, hi, alive, masks):
            nodes.append((j, sweep.examined))
            try:
                return real_inner(sweep, j, hi, alive, masks)
            finally:
                nodes.pop()

        def record(sweep, size):
            j, start = nodes[-1]
            # child `size` of a two-edges-left node starts C(size, 2)
            # subsets into it; unless its edge isolates a vertex, it is
            # skipped because no edge below kills every surviving set
            if j == 2 and size >= 2 and sweep.examined == start + math.comb(size, 2):
                u, v = sweep.edges[size]
                if sweep.deg[u] > 1 and sweep.deg[v] > 1:
                    adj = sweep.adj
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    assert fresh_last_edges(sweep, size) == 0, (g.edges(), sweep.chosen, size)
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    prechecked.append(size)
            blocks.append((sweep.examined, size))
            return real_skip(sweep, size)

        for g, want in ((cycle(6), 0), (complete_bipartite(3, 3), 4), (cube(), 122)):
            blocks.clear()
            prechecked.clear()
            with monkeypatch.context() as mp:
                mp.setattr(_Sweep, "_skip", record)
                mp.setattr(_Sweep, "_inner", inner)
                bondage(g)
            inside = sorted({start + (size + 1) // 2 for start, size in blocks if size >= 2})
            assert inside, g.edges()
            assert len(prechecked) == want, g.edges()
            for budget in inside:
                cert = bondage(g, work_budget=budget)
                assert cert.status == "unknown-above-cap"
                assert cert == colex_bondage(g, work_budget=budget)
                assert cert.stats == walk_bondage(g, work_budget=budget).stats

    def test_every_budget_small_graphs(self):
        for g in (cycle(6), complete_bipartite(3, 3), path(6)):
            total = bondage(g).stats.examined
            for budget in range(total + 2):
                assert bondage(g, work_budget=budget) == colex_bondage(g, work_budget=budget)

    def test_icosahedron_stays_budget_skipped(self):
        # b_t = 8 lies past the sizes a 200000-subset budget completes;
        # the per-subset sweep (oracles.colex_bondage) makes ~200k exact solves here
        cert = bondage(icosahedron(), work_budget=200000)
        assert (cert.status, cert.cap) == ("unknown-above-cap", 5)
        assert cert.stats.examined == 200000
        assert cert.stats.exact_calls < 100
        assert cert.stats.skipped_subtrees > 0


class TestStats:
    def test_stats_do_not_affect_equality(self):
        cert = bondage(cycle(6))
        assert cert.stats.examined > 0
        assert cert == BondageCertificate(
            cert.status, cert.b_t, cert.witness, cert.gamma_before, cert.gamma_after,
            stats=BondageStats(0, 0, 0),
        )

    def test_infinite_does_no_search(self):
        assert bondage(cycle(3)).stats == BondageStats(0, 0, 0)
