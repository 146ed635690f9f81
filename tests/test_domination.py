"""Exact solver checked against a subset-sweep oracle on exhaustive corpora."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bits_coverer_classes, brute_gamma_t, deepening_gamma_t, labelings, rescan_greedy_cover
from totbond import domination, witnesses
from totbond.bondage import bondage
from totbond.corpus import girth4_corpus, icosahedron_incidence, planar_min3_corpus
from totbond.domination import (
    DominationCertificate,
    _coverer_classes,
    _exists_cover,
    _greedy_cover,
    _packing,
    _packing_order,
    exists_total_dominating_set,
    gamma_t,
    is_total_dominating,
)
from totbond.families import complete, complete_bipartite, cycle, path, star
from totbond.graphs import Graph, IsolatedVertexError
from totbond.smallgraphs import enumerate_graph_classes
from totbond.trees import enumerate_trees
from totbond.witnesses import RULES, apply_rule, find_anchors, scan_witnesses


def isolate_free_graphs(max_n):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        # patch isolated vertices onto a path so gamma_t is defined
        extra = []
        for v in range(n):
            if g.degree(v) == 0:
                extra.append((v, (v + 1) % n))
        return Graph.from_edges(n, edges + extra) if extra else g

    return build()


class TestKnownValues:
    @pytest.mark.parametrize(
        "n,want",
        [(2, 2), (3, 2), (4, 2), (5, 3), (6, 4), (7, 4), (8, 4), (9, 5), (10, 6)],
    )
    def test_paths(self, n, want):
        # floor(n/2) + adjustment when n = 2 mod 4
        assert gamma_t(path(n)).value == want

    @pytest.mark.parametrize("n,want", [(3, 2), (4, 2), (5, 3), (6, 4), (7, 4), (8, 4)])
    def test_cycles(self, n, want):
        assert gamma_t(cycle(n)).value == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete(self, n):
        assert gamma_t(complete(n)).value == 2

    def test_complete_bipartite(self):
        assert gamma_t(complete_bipartite(2, 5)).value == 2
        assert gamma_t(complete_bipartite(1, 6)).value == 2

    def test_star_is_two(self):
        assert gamma_t(star(5)).value == 2


class TestAgainstOracle:
    def test_all_connected_classes_n7(self):
        for n in range(2, 8):
            for g in enumerate_graph_classes(n):
                if not g.is_connected():
                    continue
                cert = gamma_t(g)
                assert cert.value == brute_gamma_t(g)

    def test_all_labeled_isolate_free_n5(self):
        for n in range(2, 6):
            for rep in enumerate_graph_classes(n):
                if rep.min_degree() < 1:
                    continue
                for g in labelings(rep):
                    assert gamma_t(g).value == brute_gamma_t(g)

    @settings(max_examples=200, deadline=None)
    @given(isolate_free_graphs(7))
    def test_random_graphs(self, g):
        assert gamma_t(g).value == brute_gamma_t(g)


def _classes(g):
    return _coverer_classes(list(g.adj), (1 << g.n) - 1)


@pytest.fixture(scope="module")
def cover_graphs():
    """Every graph class with n <= 7, isolated vertices included, the trees
    of order 2..12, planar-min3, girth4 with n <= 40, and every graph the
    witness scan of girth4 with n <= 28 hands to `gamma_t`."""
    graphs = [g for n in range(1, 8) for g in enumerate_graph_classes(n)]
    graphs += [t for n in range(2, 13) for t in enumerate_trees(n)]
    graphs += planar_min3_corpus()
    graphs += [g for g in girth4_corpus() if g.n <= 40]
    solved = []

    def solve(h):
        solved.append(h)
        return gamma_t(h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witnesses, "gamma_t", solve)
        for g in girth4_corpus():
            if g.n <= 28:
                scan_witnesses(g)
    assert len(solved) == 2392
    return graphs + solved


class TestGreedyCover:
    """The greedy finishes its gain-1 tail in one ascending pass; it must
    return what the greedy that rescans every gain at every pick returns."""

    def test_every_limit_on_whole_graphs(self, cover_graphs):
        outcomes = set()
        for g in cover_graphs:
            adj, full = list(g.adj), (1 << g.n) - 1
            for limit in range(g.n + 1):
                got = _greedy_cover(adj, full, limit)
                assert got == rescan_greedy_cover(adj, full, limit), (g, limit)
                outcomes.add((got is None, g.has_isolated_vertex()))
        # lists, limits too small, and graphs with a vertex nothing covers
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_every_limit_on_random_parts(self, cover_graphs):
        rng = random.Random(26)
        for _ in range(400):
            g = rng.choice(cover_graphs)
            adj, part = list(g.adj), rng.getrandbits(g.n)
            for limit in range(g.n + 1):
                assert _greedy_cover(adj, part, limit) == rescan_greedy_cover(adj, part, limit), (g, part, limit)


class TestCovererClasses:
    @pytest.mark.parametrize(
        "g,want",
        [
            (cycle(6), [0b010101, 0b101010]),
            (cycle(5), [0b11111]),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), [0b0001, 0b0010, 0b0100, 0b1000]),
            (star(3), [0b0111, 0b1000]),
            (path(5), [0b10101, 0b01010]),
        ],
        ids=["C6", "C5", "2K2", "star3", "P5"],
    )
    def test_known_splits(self, g, want):
        assert _classes(g) == want

    def test_partition_with_disjoint_coverers(self):
        # each component gives two classes if it is bipartite, else one;
        # the classes partition V and no vertex covers two of them
        for n in range(2, 8):
            for g in enumerate_graph_classes(n):
                classes = _classes(g)
                nxg = nx.Graph(g.edges())
                nxg.add_nodes_from(range(g.n))
                want = sum(
                    2 if nx.is_bipartite(nxg.subgraph(c)) and len(c) > 1 else 1
                    for c in nx.connected_components(nxg)
                )
                assert len(classes) == want, g
                assert sum(classes) == (1 << g.n) - 1
                coverers = [0] * len(classes)
                for i, cls in enumerate(classes):
                    for v in range(g.n):
                        if cls >> v & 1:
                            coverers[i] |= g.adj[v]
                for i in range(len(classes)):
                    for j in range(i):
                        assert not coverers[i] & coverers[j], g

    def test_part_of_the_universe(self):
        # C6 minus vertex 0 from the universe: the odd side stays whole
        assert _coverer_classes(list(cycle(6).adj), 0b111110) == [0b101010, 0b010100]

    def test_same_classes_as_the_walk_over_bits(self, cover_graphs):
        rng = random.Random(27)
        for g in cover_graphs:
            adj = list(g.adj)
            for universe in ((1 << g.n) - 1, rng.getrandbits(g.n)):
                assert _coverer_classes(adj, universe) == bits_coverer_classes(adj, universe), (g, universe)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def _replay_graphs():
    """G - B for a seeded sample of witness edge sets B on the girth4
    graphs with n <= 20.  Deleting B leaves many coverer classes."""
    rng = random.Random(12)
    out = []
    for g in girth4_corpus():
        if g.n > 20:
            continue
        for rule in RULES:
            anchors = find_anchors(g, rule)
            for a in rng.sample(anchors, min(4, len(anchors))):
                h = g.delete_edges(apply_rule(g, rule, a).edges)
                if not h.has_isolated_vertex():
                    out.append(h)
    return out


class TestAgainstDeepening:
    """The class split must give the value and the witness of the single
    deepening loop it replaced."""

    def test_all_isolate_free_classes_n7(self):
        # connected and disconnected
        for n in range(2, 8):
            for g in enumerate_graph_classes(n):
                if g.has_isolated_vertex():
                    continue
                cert = gamma_t(g)
                assert cert == deepening_gamma_t(g), g
                assert cert.value == brute_gamma_t(g)

    def test_girth4_relabelled(self):
        for g in girth4_corpus():
            if g.n > 44:
                continue
            for seed in range(3):
                h = _relabelled(g, seed)
                assert gamma_t(h) == deepening_gamma_t(h), (g, seed)

    def test_witness_replay_graphs(self):
        graphs = _replay_graphs()
        assert len(graphs) == 217
        for h in graphs:
            assert gamma_t(h) == deepening_gamma_t(h), h

    def test_disjoint_unions(self):
        # 2 to 4 components, their vertices interleaved by a relabelling
        rng = random.Random(34)
        pool = [h for h in _replay_graphs() if h.n <= 16]
        pool += [g for g in girth4_corpus() if g.n <= 14]
        for _ in range(30):
            edges, n = [], 0
            for part in rng.sample(pool, rng.randint(2, 4)):
                edges += [(u + n, v + n) for u, v in part.edges()]
                n += part.n
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, edges).relabel(perm)
            assert gamma_t(h) == deepening_gamma_t(h), h

    def test_icosahedron_incidence(self):
        g = icosahedron_incidence()
        assert len(_classes(g)) == 2
        assert gamma_t(g) == deepening_gamma_t(g)

    def test_empty_graph(self):
        assert gamma_t(Graph(0, ())) == deepening_gamma_t(Graph(0, ()))

    def test_class_bounds_reaching_the_greedy_size_skip_the_search(self, monkeypatch):
        # a triangle beside an edge: the root bound is 3 and the greedy
        # cover has 4 vertices, which the class bounds 2 + 1 + 1 reach
        g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (2, 4)])
        want = deepening_gamma_t(g)
        assert (want.value, len(_classes(g))) == (4, 3)
        calls = []
        monkeypatch.setattr(domination, "_cover_search", lambda *args: calls.append(args))
        assert gamma_t(g) == want
        assert calls == []


class TestSearchNodes:
    """Each `_cover_search` node walks only the uncovered entries of its
    order and hands them to its children.  It keeps the bounds, the branch
    vertex and the candidate order of a node that walks the whole degree
    order, so it visits the same nodes: the counts below were taken from
    that search."""

    RUNS = {
        "gamma-t-girth4-n40": (lambda: [gamma_t(g) for g in girth4_corpus() if g.n <= 40], 5949),
        "sweep-planar-min3": (lambda: [bondage(g, work_budget=200000) for g in planar_min3_corpus()], 1664),
        "scan-girth4-n28": (lambda: [scan_witnesses(g) for g in girth4_corpus() if g.n <= 28], 20703),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_same_nodes_and_the_live_part_of_the_degree_order(self, monkeypatch, run):
        real, nodes, full = domination._cover_search, [], {}

        def node(adj, order, uncovered, budget, chosen):
            nodes.append(uncovered)
            key = tuple(adj)
            if key not in full:
                full[key] = _packing_order(adj)
            assert [e for e in order if e[0] & uncovered] == [e for e in full[key] if e[0] & uncovered]
            return real(adj, order, uncovered, budget, chosen)

        monkeypatch.setattr(domination, "_cover_search", node)
        work, want = self.RUNS[run]
        work()
        assert len(nodes) == want


class TestCertificates:
    @settings(max_examples=150, deadline=None)
    @given(isolate_free_graphs(8))
    def test_witness_replays(self, g):
        cert = gamma_t(g)
        assert len(cert.witness) == cert.value
        assert is_total_dominating(g, cert.witness)

    @settings(max_examples=150, deadline=None)
    @given(isolate_free_graphs(7))
    def test_value_at_least_two(self, g):
        assert gamma_t(g).value >= 2

    def test_certificate_is_frozen(self):
        cert = gamma_t(cycle(5))
        assert isinstance(cert.witness, frozenset)
        with pytest.raises(AttributeError):
            cert.value = 99


class TestExistenceQueries:
    @settings(max_examples=150, deadline=None)
    @given(isolate_free_graphs(7))
    def test_threshold_consistency(self, g):
        v = gamma_t(g).value
        assert exists_total_dominating_set(g, v)
        assert not exists_total_dominating_set(g, v - 1)
        assert exists_total_dominating_set(g, g.n)

    def test_negative_size(self):
        assert not exists_total_dominating_set(path(3), -1)

    def test_every_size_against_oracle(self):
        # the packing bound may only cut subtrees that hold no cover, so
        # it never exceeds gamma_t and the yes/no answer matches the
        # subset sweep at every size
        for n in range(2, 8):
            for g in enumerate_graph_classes(n):
                if not g.is_connected():
                    continue
                want = brute_gamma_t(g)
                order = _packing_order(list(g.adj))
                assert _packing(order, (1 << g.n) - 1, g.n) <= want
                for k in range(g.n + 1):
                    assert exists_total_dominating_set(g, k) == (k >= want), (g, k)


def _disjoint_unions():
    """The 30 seeded unions of `TestAgainstDeepening.test_disjoint_unions`
    (same seed, same draws), each with its parts."""
    rng = random.Random(34)
    pool = [h for h in _replay_graphs() if h.n <= 16]
    pool += [g for g in girth4_corpus() if g.n <= 14]
    out = []
    for _ in range(30):
        parts = rng.sample(pool, rng.randint(2, 4))
        edges, n = [], 0
        for part in parts:
            edges += [(u + n, v + n) for u, v in part.edges()]
            n += part.n
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((Graph.from_edges(n, edges).relabel(perm), parts))
    return out


class TestExistsCover:
    """`_exists_cover(adj, size, least)` returns a cover by at most
    `size` neighbourhoods, else None, and a minimum one whenever gamma_t
    is at least `least`."""

    @staticmethod
    def _check(g, want):
        adj = list(g.adj)
        for size in (want - 1, want, want + 1):
            for least in (0, size):
                got = _exists_cover(adj, size, least)
                if want > size:
                    assert got is None, (g, size, least)
                    continue
                assert got is not None and len(set(got)) == len(got) <= size, (g, size, least)
                assert is_total_dominating(g, got), (g, size, least)
                if least == 0 or size == want:
                    assert len(got) == want, (g, size, least)

    def test_isolate_free_classes_n7(self):
        for n in range(2, 8):
            for g in enumerate_graph_classes(n):
                if not g.has_isolated_vertex():
                    self._check(g, brute_gamma_t(g))

    def test_disjoint_unions(self):
        # gamma_t of a union is the sum over its parts
        brute = {}
        for h, parts in _disjoint_unions():
            for p in parts:
                if p not in brute:
                    brute[p] = brute_gamma_t(p)
            self._check(h, sum(brute[p] for p in parts))

    def test_empty_graph(self):
        assert exists_total_dominating_set(Graph(0, ()), 0)
        assert _exists_cover([], 0, 0) == []


class TestPackingBound:
    def test_disjoint_neighborhoods_need_their_own_dominators(self):
        # P6: N(0) = {1} and N(5) = {4} are disjoint, so one vertex
        # cannot cover both; vertex 2's N = {1, 3} meets N(0)
        order = _packing_order(list(path(6).adj))
        assert _packing(order, 0b100001, 6) == 2
        assert _packing(order, 0b000101, 6) == 1
        # counting stops once it passes `stop`
        assert _packing(order, 0b111111, 0) == 1

    def test_ascending_degree_order(self):
        # ties keep vertex order
        order = _packing_order(list(path(4).adj))
        assert [bit.bit_length() - 1 for bit, _ in order] == [0, 3, 1, 2]


class TestIsolatedVertices:
    def test_gamma_rejects_isolates(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            gamma_t(g)

    def test_single_vertex(self):
        with pytest.raises(IsolatedVertexError):
            gamma_t(Graph.from_edges(1, []))

    def test_existence_query_rejects_isolates(self):
        with pytest.raises(IsolatedVertexError):
            exists_total_dominating_set(Graph.from_edges(3, [(0, 1)]), 3)

    def test_membership_check_rejects_isolates(self):
        g = Graph.from_edges(4, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            is_total_dominating(g, {0, 1})

    def test_empty_graph_edge_case(self):
        assert gamma_t(Graph.from_edges(0, [])).value == 0


class TestMembership:
    def test_accepts_valid_set(self):
        assert is_total_dominating(cycle(4), {0, 1})

    def test_rejects_non_dominating(self):
        # {0,1} on P5 leaves vertex 3 and 4 without neighbors inside
        assert not is_total_dominating(path(5), {0, 1})

    def test_rejects_set_without_internal_edges(self):
        # every vertex in D needs a neighbor in D too
        assert not is_total_dominating(path(5), {1, 3})

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            is_total_dominating(path(3), {5})
