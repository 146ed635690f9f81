"""Named polyhedra and generated corpora: structure and preconditions."""

import pytest

from oracles import brute_girth, theta_graph
from totbond.corpus import (
    antiprism,
    capped_cylinder,
    cube,
    cylinder,
    dodecahedron,
    double_capped_cylinder,
    girth4_corpus,
    icosahedron,
    icosahedron_incidence,
    octahedron,
    planar_min3_corpus,
    prism,
    pseudo_double_wheel,
    tetrahedron,
    wheel,
)
from totbond.planar import is_planar


class TestPolyhedra:
    @pytest.mark.parametrize(
        "g,n,m,deg",
        [
            (tetrahedron(), 4, 6, 3),
            (octahedron(), 6, 12, 4),
            (cube(), 8, 12, 3),
            (dodecahedron(), 20, 30, 3),
            (icosahedron(), 12, 30, 5),
        ],
    )
    def test_counts_and_regularity(self, g, n, m, deg):
        assert g.n == n
        assert g.m == m
        assert set(g.degrees()) == {deg}
        assert g.is_connected()
        assert is_planar(g)

    def test_girths(self):
        assert cube().girth() == 4
        assert dodecahedron().girth() == 5
        assert icosahedron().girth() == 3

    def test_incidence_graph(self):
        g = icosahedron_incidence()
        assert g.n == 12 + 20
        assert g.m == 60  # every face meets 3 vertices
        assert sorted(set(g.degrees())) == [3, 5]
        assert g.girth() == 4
        assert is_planar(g)
        # no edge with degree sum <= 7: all edges join a 3 to a 5
        assert all(sorted((g.degree(u), g.degree(v))) == [3, 5] for u, v in g.edges())


class TestParametricBuilders:
    def test_prism(self):
        g = prism(5)
        assert g.n == 10
        assert set(g.degrees()) == {3}
        assert g.girth() == 4
        assert is_planar(g)

    def test_cylinder_layers(self):
        g = cylinder(6, 4)
        assert g.n == 24
        assert g.m == 6 * 4 + 6 * 3  # ring edges + rungs
        assert g.girth() == 4

    def test_capped_cylinder(self):
        g = capped_cylinder(6, 2)
        assert g.n == 13
        assert g.min_degree() == 3
        assert g.girth() == brute_girth(g) == 4
        assert is_planar(g)

    def test_double_capped(self):
        g = double_capped_cylinder(6, 2)
        assert g.n == 14
        assert g.min_degree() == 3
        assert g.girth() == 4
        assert is_planar(g)

    def test_pseudo_double_wheel(self):
        g = pseudo_double_wheel(6)
        assert g.min_degree() == 3
        assert g.girth() == 4
        assert is_planar(g)

    def test_wheel(self):
        g = wheel(6)
        assert g.n == 7
        assert sorted(g.degrees()) == [3] * 6 + [6]
        assert g.girth() == 3

    def test_antiprism(self):
        g = antiprism(5)
        assert g.n == 10
        assert set(g.degrees()) == {4}
        assert g.girth() == 3
        assert is_planar(g)

    def test_theta(self):
        g = theta_graph(2, 3, 4)
        assert g.degree(0) == 3 and g.degree(1) == 3
        assert sorted(g.degrees()) == [2] * (g.n - 2) + [3, 3]
        assert g.girth() == brute_girth(g)


class TestGirth4Corpus:
    def test_size_and_preconditions(self):
        corpus = girth4_corpus()
        assert len(corpus) == 513
        for g in corpus:
            assert g.is_connected()
            assert g.min_degree() >= 3
            assert g.girth() >= 4
        # planarity spot-checked densely, full check is the slow part
        for g in corpus[::10]:
            assert is_planar(g)

    def test_no_duplicates(self):
        corpus = girth4_corpus()
        keys = {(g.n, g.m, tuple(sorted(g.degrees())), g.edges()) for g in corpus}
        assert len(keys) == len(corpus)

    def test_deterministic(self):
        a = girth4_corpus()
        b = girth4_corpus()
        assert [g.edges() for g in a] == [g.edges() for g in b]


class TestPlanarMin3Corpus:
    def test_contents(self):
        corpus = planar_min3_corpus()
        assert len(corpus) >= 15
        for g in corpus:
            assert g.is_connected()
            assert g.min_degree() >= 3
            assert is_planar(g)

    def test_deterministic(self):
        a = planar_min3_corpus()
        b = planar_min3_corpus()
        assert [g.edges() for g in a] == [g.edges() for g in b]
