"""Exact solver checked against a subset-sweep oracle on exhaustive corpora."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_gamma_t
from totbond.domination import (
    DominationCertificate,
    _packing,
    _packing_order,
    exists_total_dominating_set,
    gamma_t,
    is_total_dominating,
)
from totbond.families import complete, complete_bipartite, cycle, path, star
from totbond.graphs import Graph, IsolatedVertexError
from totbond.smallgraphs import enumerate_graph_classes, enumerate_small_graphs


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
            for g in enumerate_small_graphs(n, min_degree=1):
                assert gamma_t(g).value == brute_gamma_t(g)

    @settings(max_examples=200, deadline=None)
    @given(isolate_free_graphs(7))
    def test_random_graphs(self, g):
        assert gamma_t(g).value == brute_gamma_t(g)


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
