"""Tree enumeration validated against Prüfer sequences and Otter's recurrence.

Two fully independent oracles: decoding every Prüfer sequence gives all
labeled trees, which collapse to the unlabeled catalog under canonical
forms; Otter's counting recurrence gives the expected totals without
constructing anything.  A third, the canonize-every-rooted-tree
enumerator, pins the exact order and labels.
"""

from itertools import product

import pytest

from oracles import canonized_trees, free_canonical_form, otter_counts, prufer_tree, tree_centers
from totbond.formats import graph6_bytes
from totbond.graphs import Graph
from totbond.trees import (
    _centre_key,
    _diameter_at_most,
    _parents,
    _tree,
    enumerate_trees,
    rooted_level_sequences,
    tree_from_level_sequence,
)

FREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # n = 1..12
ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def adj_sets(g: Graph):
    return [set(g.neighbors(v)) for v in range(g.n)]


class TestLevelSequences:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_rooted_count(self, n):
        assert sum(1 for _ in rooted_level_sequences(n)) == ROOTED_COUNTS[n - 1]

    def test_sequences_are_valid(self):
        for seq in rooted_level_sequences(7):
            assert seq[0] == 1
            # each later entry steps up by at most one from some open ancestor
            for i in range(1, len(seq)):
                assert 2 <= seq[i] <= seq[i - 1] + 1

    def test_tree_reconstruction(self):
        g = tree_from_level_sequence((1, 2, 3, 3, 2))
        assert g.n == 5
        assert sorted(g.degrees()) == [1, 1, 1, 2, 3]
        assert set(g.neighbors(1)) == {0, 2, 3}


class TestCenters:
    def test_path_even(self):
        g = tree_from_level_sequence((1, 2, 3, 4))  # P4
        assert tree_centers(adj_sets(g)) == [1, 2]

    def test_path_odd(self):
        g = tree_from_level_sequence((1, 2, 3))
        assert tree_centers(adj_sets(g)) == [1]

    def test_star_center(self):
        g = tree_from_level_sequence((1, 2, 2, 2))
        assert tree_centers(adj_sets(g)) == [0]

    def test_single_vertex(self):
        assert tree_centers([set()]) == [0]


class TestFreeEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_match_table(self, n):
        assert sum(1 for _ in enumerate_trees(n)) == FREE_COUNTS[n - 1]

    def test_counts_match_otter(self):
        rooted, free = otter_counts(12)  # entry i holds the count for n = i + 1
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_trees(n)) == free[n - 1]
        for n in range(1, 11):
            assert sum(1 for _ in rooted_level_sequences(n)) == rooted[n - 1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_prufer_catalog(self, n):
        """Every labeled tree, canonicalized, appears exactly once."""
        want = set()
        if n == 2:
            want.add(free_canonical_form(prufer_tree(())))
        else:
            for seq in product(range(n), repeat=n - 2):
                want.add(free_canonical_form(prufer_tree(seq)))
        emitted = [free_canonical_form(t) for t in enumerate_trees(n)]
        assert set(emitted) == want
        assert len(set(emitted)) == len(emitted)  # no duplicates

    def test_all_outputs_are_trees(self):
        for t in enumerate_trees(9):
            assert len(t.edges()) == t.n - 1
            assert t.is_connected()

    def test_canonical_form_is_isomorphism_invariant(self):
        a = tree_from_level_sequence((1, 2, 3, 2, 3))
        # same tree with legs listed the other way round
        b = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        assert free_canonical_form(a) == free_canonical_form(b)


def _diameter(g: Graph) -> int:
    return max(g.distance(u, v) for u in range(g.n) for v in range(u + 1, g.n))


def _diameter_tall_sequences(n: int):
    """(parent, h) of every leaf-rooted sequence the walk keys, for n >= 3."""
    for rest in rooted_level_sequences(n - 1):
        parent = _parents([1] + [x + 1 for x in rest])
        h = max(rest)
        if _diameter_at_most(parent, h):
            yield parent, h


class TestCentreKey:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_equal_exactly_when_free_forms_are_equal(self, n):
        pairs = {
            (_centre_key(parent, h), free_canonical_form(_tree(parent)))
            for parent, h in _diameter_tall_sequences(n)
        }
        keys = {key for key, _ in pairs}
        forms = {form for _, form in pairs}
        assert len(keys) == len(forms) == len(pairs) == FREE_COUNTS[n - 1]

    def test_some_trees_have_several_sequences(self):
        walked = sum(1 for _ in _diameter_tall_sequences(9))
        assert walked > FREE_COUNTS[8]

    @pytest.mark.parametrize("k", range(2, 8))
    def test_even_path_has_two_equal_halves(self, k):
        """P_2k is bicentral, and each half is a path on k vertices."""
        half = "()"
        for _ in range(k - 1):
            half = "(" + half + ")"
        parent = _parents(range(1, 2 * k + 1))
        assert _centre_key(parent, 2 * k - 1) == half + half

    def test_bicentral_key_is_the_sorted_pair_of_halves(self):
        """A double star whose centres carry one and two leaves, rooted at
        a leaf on either side of its central edge."""
        one_leaf, two_leaves = "(())", "(()())"
        want = min(one_leaf, two_leaves) + max(one_leaf, two_leaves)
        assert _centre_key(_parents((1, 2, 3, 4, 4)), 3) == want
        assert _centre_key(_parents((1, 2, 3, 4, 3)), 3) == want


class TestLeafRootedWalk:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_same_graphs_in_same_order_as_reference(self, n):
        want = [graph6_bytes(t) for t in canonized_trees(n)]
        assert [graph6_bytes(t) for t in enumerate_trees(n)] == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_first_rooting_is_a_leaf_as_tall_as_the_diameter(self, n):
        """The lemma the walk rests on, checked on the reference's output.

        Each representative is labelled in the preorder of the level
        sequence it first appeared as, so vertex 0 is its root.
        """
        for t in canonized_trees(n):
            levels = [1 + t.distance(0, v) for v in range(n)]
            assert levels.count(2) == 1
            assert max(levels) - 1 == _diameter(t)

    @pytest.mark.parametrize("n", [0, -1, 17])
    def test_order_out_of_range(self, n):
        with pytest.raises(ValueError):
            next(enumerate_trees(n))
