"""Structural checks for the parameterized graph constructors."""

import pytest

from totbond.families import (
    FamilySpec,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    path,
    star,
    subdivided_star,
)
from totbond.graphs import Graph


class TestBasicFamilies:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_path(self, n):
        g = path(n)
        assert g.n == n
        assert len(g.edges()) == n - 1
        degs = sorted(g.degrees())
        if n == 1:
            assert degs == [0]
        elif n == 2:
            assert degs == [1, 1]
        else:
            assert degs == [1, 1] + [2] * (n - 2)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle(self, n):
        g = cycle(n)
        assert g.n == n
        assert len(g.edges()) == n
        assert set(g.degrees()) == {2}
        assert g.girth() == n

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete(self, n):
        g = complete(n)
        assert len(g.edges()) == n * (n - 1) // 2
        assert all(d == n - 1 for d in g.degrees())

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 3), (2, 5)])
    def test_complete_bipartite(self, a, b):
        g = complete_bipartite(a, b)
        assert g.n == a + b
        assert len(g.edges()) == a * b
        assert sorted(g.degrees()) == sorted([b] * a + [a] * b)
        if a >= 2:
            assert g.girth() == 4

    def test_complete_multipartite(self):
        g = complete_multipartite((2, 2, 1))
        assert g.n == 5
        # every cross-part pair joined: C(5,2) - within-part pairs
        assert len(g.edges()) == 10 - 1 - 1
        # parts laid out in descending size order, so 0-1 and 2-3 are the parts
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert g.has_edge(0, 2)
        assert g.has_edge(0, 4)

    @pytest.mark.parametrize("build, message", [
        (lambda: complete_multipartite([]), "part sizes must be positive"),
        (lambda: star(0), "stars need at least one leaf"),
    ], ids=["no-parts", "no-leaves"])
    def test_empty_builds_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_star(self):
        g = star(4)
        assert g.n == 5
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]

    def test_star_labelling(self):
        # the leaf part is the larger one, so it comes first
        assert star(3).adj == (8, 8, 8, 7)
        g = star(5)
        assert g.degree(5) == 5
        assert all(g.degree(v) == 1 and g.has_edge(v, 5) for v in range(5))

    def test_star_single_edge_support(self):
        # one edge: both ends are leaves adjacent to a leaf, so both support
        g = star(1)
        assert g.n == 2
        assert len(g.edges()) == 1


class TestSubdividedStar:
    def test_plain_claw(self):
        g = subdivided_star((0, 0, 0))
        assert g.n == 4
        assert sorted(g.degrees()) == [1, 1, 1, 3]

    def test_one_leg_stretched(self):
        # K_{1,3} with one edge subdivided three times: 7 vertices
        g = subdivided_star((3, 0, 0))
        assert g.n == 7
        assert sorted(g.degrees()) == [1, 1, 1, 2, 2, 2, 3]
        # center keeps degree 3
        assert g.degree(0) == 3
        # the long leg is a path 0-1-2-3-4
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3) and g.has_edge(3, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            subdivided_star((1, -1))


class TestFamilySpec:
    def test_parse_and_build(self):
        spec = FamilySpec.parse("path:7")
        assert spec == FamilySpec("path", (7,))
        assert spec.build() == path(7)

    def test_parse_multi_param(self):
        spec = FamilySpec.parse("complete-bipartite:2,3")
        assert spec.build() == complete_bipartite(2, 3)

    def test_parse_multipartite(self):
        spec = FamilySpec.parse("complete-multipartite:3,2,2")
        assert spec.build() == complete_multipartite((3, 2, 2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("path", "path takes 1 parameter, got 0"),
            ("cycle:", "cycle takes 1 parameter, got 0"),
            ("complete-bipartite:3", "complete-bipartite takes 2 parameters, got 1"),
            ("path:3,9", "path takes 1 parameter, got 2"),
        ],
    )
    def test_wrong_parameter_count(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilySpec.parse(text).build()

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            FamilySpec.parse("moebius:5").build()

    def test_subdivided_star_spec(self):
        assert FamilySpec.parse("subdivided-star:3,0,0").build().n == 7
