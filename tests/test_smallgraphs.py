"""Exhaustive enumeration cross-checked by counting identities and brute force.

The Burnside-style identity sum(n!/|Aut|) = 2^C(n,2) certifies that the
isomorphism-class enumeration is complete and duplicate-free without any
reference to published tables; the tables are still pinned as a second
line of defense.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_girth, brute_is_isomorphic, labeled_count_identity, labelings
from totbond.graphs import Graph
from totbond.smallgraphs import (
    count_automorphisms,
    enumerate_graph_classes,
    is_isomorphic,
)

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TRIANGLE_FREE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107}


def random_graph_pair():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
        g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if draw(st.booleans()):
            # relabeled copy, should be isomorphic
            perm = draw(st.permutations(range(n)))
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        else:
            mask2 = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
            h = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask2 >> i & 1])
        return g, h

    return build()


def labeled(classes):
    """Every labeled graph isomorphic to one of the given classes."""
    return {h for g in classes for h in labelings(g)}


class TestLabeledEnumeration:
    """Labeled graphs are the orbits of class representatives.

    `labeled` builds a set, so a size of 2^C(n,2) means every labeled
    graph on n vertices appears.
    """

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_labeled_count(self, n):
        assert len(labeled(enumerate_graph_classes(n))) == 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_filters_match_post_filtering(self, n):
        """Pruned class enumeration = all labeled graphs filtered afterwards."""
        everything = labeled(enumerate_graph_classes(n))

        def post(pred):
            return {g for g in everything if pred(g)}

        assert labeled(enumerate_graph_classes(n, max_edges=n)) == post(lambda g: g.m <= n)
        got = labeled(enumerate_graph_classes(n, triangle_free=True))
        assert got == post(lambda g: (brute_girth(g) or n + 1) >= 4)

    def test_planar_filter_small(self):
        # every graph on <= 4 vertices is planar, so the flag drops nothing
        assert labeled(enumerate_graph_classes(4, require_planar=True)) == labeled(
            enumerate_graph_classes(4)
        )

    def test_planar_filter_excludes_k5(self):
        planar = enumerate_graph_classes(5, require_planar=True)
        assert [g for g in planar if g.m == 10] == []
        assert len(labeled(planar)) == (1 << 10) - 1


class TestClassEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_counts(self, n):
        assert sum(1 for _ in enumerate_graph_classes(n)) == CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_class_counts(self, n):
        got = sum(1 for g in enumerate_graph_classes(n) if g.is_connected())
        assert got == CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_triangle_free_counts(self, n):
        got = sum(1 for _ in enumerate_graph_classes(n, triangle_free=True))
        assert got == TRIANGLE_FREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_completeness_identity(self, n):
        total, expected = labeled_count_identity(n)
        assert total == expected

    def test_no_duplicate_classes(self):
        reps = list(enumerate_graph_classes(5))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_isomorphic(reps[i], reps[j])

    def test_max_edges_cut(self):
        for g in enumerate_graph_classes(5, max_edges=4):
            assert len(g.edges()) <= 4

    @pytest.mark.parametrize("n", [1, 3])
    def test_negative_max_edges_rejected(self, n):
        with pytest.raises(ValueError, match="max_edges must be nonnegative"):
            enumerate_graph_classes(n, max_edges=-1)


class TestIsomorphism:
    @settings(max_examples=150, deadline=None)
    @given(random_graph_pair())
    def test_matches_brute_force(self, pair):
        g, h = pair
        assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)

    def test_regular_non_isomorphic(self):
        # C6 and 2x C3: same degree sequence, different girth
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(c6, two_triangles)

    def test_automorphism_counts(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert count_automorphisms(c5) == 10  # dihedral
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert count_automorphisms(k4) == 24
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert count_automorphisms(p4) == 2
        e3 = Graph.from_edges(3, [])
        assert count_automorphisms(e3) == 6
