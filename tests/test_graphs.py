"""Graph core operations against networkx and brute-force oracles."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totbond.families import complete, complete_bipartite, cycle, path
from totbond.graphs import Graph, IsolatedVertexError, asymmetric_edge, edge_key

from oracles import brute_girth, mask_degree_queries, tree_bfs_girth


def random_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        return Graph.from_edges(n, edges)

    return build()


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestConstruction:
    def test_from_edges_and_back(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges() == ((0, 1), (1, 2), (2, 3))
        assert g.n == 4 and g.m == 3

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, adj, message",
        [
            (2, (0b10,), "1 adjacency masks for n=2"),
            (2, (0b101, 0b01), "vertex 0 has a neighbour out of range for n=2"),
            (3, (0b010, 0b101, 0b1000), "vertex 2 has a neighbour out of range for n=3"),
            (2, (0b11, 0b01), "self-loop at vertex 0"),
            (3, (0b010, 0b001, 0b001), "adjacency not symmetric on edge (2, 0)"),
        ],
        ids=["too-few-masks", "bit-at-n", "bit-above-n", "own-bit", "asymmetric"],
    )
    def test_raw_masks_checked(self, n, adj, message):
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: Graph.from_edges(-1, []), "vertex count must be nonnegative"),
        (lambda: path(3).relabel([0, 0, 1]), "not a permutation of the vertex set"),
        (lambda: path(3).distance(0, 3), "vertex out of range"),
        (lambda: list(path(3).induced_cycles(2)), "cycles need at least 3 vertices"),
    ], ids=["negative-order", "relabel-repeats", "distance-out-of-range", "induced-2-cycles"])
    def test_bad_arguments_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    def test_edge_key_orders(self):
        assert edge_key(5, 2) == (2, 5)

    def test_delete_edges_requires_presence(self):
        g = path(4)
        with pytest.raises(ValueError):
            g.delete_edges([(0, 2)])

    def test_delete_edges(self):
        g = cycle(4).delete_edges([(0, 1)])
        assert g.m == 3
        assert not g.has_edge(0, 1)

    def test_relabel_preserves_structure(self):
        g = path(4)
        h = g.relabel((3, 2, 1, 0))
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert h.has_edge(3, 2) and h.has_edge(1, 0)


class TestQueries:
    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_degrees_match_networkx(self, g):
        ref = to_nx(g)
        assert list(g.degrees()) == [ref.degree(v) for v in range(g.n)]

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_connectivity_matches_networkx(self, g):
        assert g.is_connected() == (g.n <= 1 or nx.is_connected(to_nx(g)))

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_distance_matches_networkx(self, g):
        lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.n):
            for v in range(g.n):
                want = lengths.get(u, {}).get(v, math.inf)
                assert g.distance(u, v) == want

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_ball_matches_networkx(self, g):
        lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for v in range(g.n):
            for r in range(g.n + 1):
                want = sum(1 << u for u, d in lengths.get(v, {v: 0}).items() if d <= r)
                assert g.ball(v, r) == want, (v, r)

    @pytest.mark.parametrize("v, r, message", [
        (4, 1, "vertex out of range"),
        (-1, 1, "vertex out of range"),
        (1, -1, "radius must be nonnegative, got -1"),
    ])
    def test_ball_rejects_bad_arguments(self, v, r, message):
        with pytest.raises(ValueError, match=message):
            path(4).ball(v, r)

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_girth_matches_brute_force(self, g):
        assert g.girth() == brute_girth(g)

    def test_girth_every_class_to_7(self):
        from totbond.smallgraphs import enumerate_graph_classes

        for n in range(1, 8):
            for g in enumerate_graph_classes(n):
                assert g.girth() == brute_girth(g)

    def test_girth_matches_tree_bfs_and_networkx(self):
        import random

        from totbond.corpus import girth4_corpus, icosahedron_incidence, planar_min3_corpus

        rng = random.Random(4)
        graphs = list(girth4_corpus()) + list(planar_min3_corpus()) + [icosahedron_incidence()]
        graphs += [cycle(k) for k in range(3, 41)] + [path(k) for k in range(1, 12)]
        for n in range(2, 80, 3):
            for p in (0.02, 0.05, 0.1, 0.3):
                graphs.append(Graph.from_edges(
                    n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
        # two disjoint cycles: the shorter one is far from vertex 0
        graphs.append(Graph.from_edges(
            16, [(i, (i + 1) % 11) for i in range(11)] + [(11 + i, 11 + (i + 1) % 5) for i in range(5)]))
        for g in graphs:
            want = nx.girth(to_nx(g))
            assert g.girth() == tree_bfs_girth(g) == want

    def test_girth_known_values(self):
        assert path(5).girth() == math.inf
        assert cycle(5).girth() == 5
        assert complete(4).girth() == 3
        assert complete_bipartite(2, 3).girth() == 4

    def test_triangle_test_agrees_with_girth(self):
        from totbond.corpus import girth4_corpus, icosahedron_incidence, planar_min3_corpus
        from totbond.smallgraphs import enumerate_graph_classes

        graphs = [g for n in range(1, 8) for g in enumerate_graph_classes(n)
                  if not g.has_isolated_vertex()]
        graphs += list(girth4_corpus()) + list(planar_min3_corpus()) + [icosahedron_incidence()]
        triangles = [g.has_triangle() for g in graphs]
        assert triangles == [g.girth() < 4 for g in graphs]
        assert any(triangles) and not all(triangles)

    def test_asymmetric_edge_names_the_first_by_v_then_u(self):
        masks = [0b110, 0b000, 0b000]  # 0 lists 1 and 2; neither lists 0
        assert asymmetric_edge(masks, [0b000, 0b001, 0b001]) == (0, 1)
        sym = path(4).adj
        assert asymmetric_edge(sym, list(sym)) is None

    def test_support_vertices(self):
        g = path(4)
        assert g.support_vertices() == (1, 2)
        assert cycle(5).support_vertices() == ()

    def test_isolated_vertices(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.has_isolated_vertex()

    @pytest.mark.parametrize(
        "g,delta,isolated",
        [(Graph(0, ()), 0, False), (path(1), 0, True), (path(2), 1, False), (path(3), 2, False)],
        ids=["empty", "K1", "K2", "P3"],
    )
    def test_max_degree_and_isolates_on_small_graphs(self, g, delta, isolated):
        assert g.max_degree() == delta
        assert g.has_isolated_vertex() == isolated

    def test_deleting_edges_gives_a_graph_with_its_own_max_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert g.max_degree() == 3  # computed, and cached on g, before the deletion
        h = g.delete_edges([(0, 1), (0, 3)])
        assert (h.max_degree(), h.has_isolated_vertex()) == (2, True)
        assert (g.max_degree(), g.has_isolated_vertex()) == (3, False)
        assert h.delete_edges([(0, 2), (2, 3)]).max_degree() == 0

    def test_degree_queries_match_their_mask_definitions(self):
        from itertools import combinations_with_replacement

        from totbond.corpus import girth4_corpus, planar_min3_corpus
        from totbond.families import complete_multipartite
        from totbond.smallgraphs import enumerate_graph_classes
        from totbond.trees import enumerate_trees

        def queries(g):
            degrees = tuple(g.degree(v) for v in range(g.n))
            assert g.degrees() == degrees
            return g.m, degrees, g.min_degree(), g.max_degree(), g.support_vertices()

        graphs = [g for n in range(1, 8) for g in enumerate_graph_classes(n)]
        graphs += [complete_multipartite(sizes[::-1]) for k in range(1, 5)
                   for sizes in combinations_with_replacement(range(1, 5), k)]
        graphs += [t for n in range(2, 13) for t in enumerate_trees(n)]
        graphs += list(girth4_corpus()) + list(planar_min3_corpus())
        edited = 0
        for g in graphs:
            assert queries(g) == mask_degree_queries(g)
            # g has cached its degrees; each edit must count its own
            for e in g.edges()[:2]:
                h = g.delete_edges([e])
                assert queries(h) == mask_degree_queries(h)
                edited += 1
        assert edited > 3000


class TestInducedCycles:
    def brute_induced(self, g, k):
        import itertools

        found = set()
        for cand in itertools.combinations(range(g.n), k):
            sub = [v for v in cand]
            inside = [
                (u, v)
                for i, u in enumerate(sub)
                for v in sub[i + 1 :]
                if g.has_edge(u, v)
            ]
            if len(inside) != k:
                continue
            deg = {}
            for u, v in inside:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if all(d == 2 for d in deg.values()):
                # connected 2-regular on k vertices = a single k-cycle
                found.add(frozenset(cand))
        return found

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=7), st.sampled_from([3, 4, 5]))
    def test_matches_brute_force(self, g, k):
        got = {frozenset(c) for c in g.induced_cycles(k)}
        assert got == self.brute_induced(g, k)

    def test_orders_are_traversable_and_chordless(self):
        g = complete_bipartite(3, 3)
        for cyc in g.induced_cycles(4):
            k = len(cyc)
            for i in range(k):
                assert g.has_edge(cyc[i], cyc[(i + 1) % k])
            assert not g.has_edge(cyc[0], cyc[2])
            assert not g.has_edge(cyc[1], cyc[3])

    def test_c6_has_no_induced_c3_c4(self):
        g = cycle(6)
        assert list(g.induced_cycles(3)) == []
        assert list(g.induced_cycles(4)) == []
        assert len(list(g.induced_cycles(5))) == 0

    def test_k4_triangles(self):
        assert len(list(complete(4).induced_cycles(3))) == 4
