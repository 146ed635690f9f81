"""Planarity, unavoidable-configuration detectors, and charge audits.

The planarity oracle here is definitional: a connected graph is planar
iff some rotation system traces enough faces for Euler characteristic 2.
Exhausting all rotations is viable whenever the product of (d(v)-1)!
stays small, which covers every subcubic graph we care to check.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from oracles import edge_sort_girth4_config, is_spherical, neighbour_walk_moves, petersen

from totbond.corpus import (
    cube,
    dodecahedron,
    girth4_corpus,
    icosahedron,
    icosahedron_incidence,
    octahedron,
    planar_min3_corpus,
    wheel,
)
from totbond.embedding import Embedding
from totbond.families import complete, complete_bipartite, cycle, path
from totbond.graphs import Graph
from totbond.planar import (
    _ledger,
    charge_ledger,
    detect_borodin,
    detect_girth4_config,
    discharge_audit,
    is_planar,
    planar_embedding,
)
from totbond.smallgraphs import enumerate_graph_classes


def rotation_oracle_planar(g: Graph) -> bool:
    """Some rotation reaches Euler characteristic 2 (connected graphs)."""
    orders = []
    for v in range(g.n):
        nb = list(g.neighbors(v))
        if len(nb) <= 1:
            orders.append([tuple(nb)])
        else:
            # cyclic orders: fix the first neighbor, permute the rest
            orders.append([(nb[0], *rest) for rest in permutations(nb[1:])])
    for rot in product(*orders):
        if Embedding.from_rotation(rot).euler_characteristic() == 2:
            return True
    return False


class TestPlanarity:
    def test_k5_not_planar(self):
        g = complete(5)
        assert not is_planar(g)
        # independent refutation: too many edges for any planar graph
        assert g.m > 3 * g.n - 6

    def test_k33_not_planar(self):
        g = complete_bipartite(3, 3)
        assert not is_planar(g)
        assert not rotation_oracle_planar(g)  # 64 rotations, none spherical

    def test_cube_planar(self):
        assert is_planar(cube())
        assert rotation_oracle_planar(cube())

    def test_petersen_not_planar(self):
        g = petersen()
        assert not is_planar(g)
        assert not rotation_oracle_planar(g)  # 1024 rotations

    def test_matches_oracle_on_subcubic_classes(self):
        checked = 0
        for n in range(2, 7):
            for g in enumerate_graph_classes(n):
                if not g.is_connected() or g.max_degree() > 3:
                    continue
                assert is_planar(g) == rotation_oracle_planar(g), g.edges()
                checked += 1
        assert checked > 30

    def test_planar_embedding_shape(self):
        for g in (cube(), dodecahedron(), icosahedron(), complete(4), wheel(6)):
            emb = planar_embedding(g)
            assert emb is not None
            assert emb.graph == g
            assert is_spherical(emb)
            assert len(emb.faces) == 2 - g.n + g.m

    def test_planar_embedding_none_for_nonplanar(self):
        assert planar_embedding(complete(5)) is None
        assert planar_embedding(petersen()) is None


class TestGirth4Detector:
    def test_cube_all_edges_hit(self):
        rep = detect_girth4_config(cube())
        assert rep.at_least_one
        assert "g4-a" in rep.tags
        # every cube edge joins two 3-vertices
        assert len(rep.hits["g4-a"]) == 12

    def test_b_only_gadget(self):
        # 5-vertex v over u1..u5, each ui on both rim vertices w1, w2:
        # no (3, <=4) edge, but v sees four (five) 3-neighbors
        v, us, w1, w2 = 0, (1, 2, 3, 4, 5), 6, 7
        edges = [(v, u) for u in us]
        edges += [(u, w1) for u in us]
        edges += [(u, w2) for u in us]
        g = Graph.from_edges(8, edges)
        assert g.min_degree() == 3
        rep = detect_girth4_config(g)
        assert rep.hits["g4-a"] == ()
        # the rim vertices qualify too: every neighbor they have is a 3-vertex
        assert rep.hits["g4-b"] == (v, w1, w2)
        assert rep.tags == ("g4-b",)

    def test_requires_degree_floor(self):
        with pytest.raises(ValueError):
            detect_girth4_config(cycle(5))

    def test_incidence_graph_fires(self):
        g = icosahedron_incidence()
        rep = detect_girth4_config(g)
        assert rep.at_least_one


class TestBorodinDetector:
    def test_k4_triangle_edges(self):
        g = complete(4)
        rep = detect_borodin(planar_embedding(g))
        assert "borodin-a" in rep.tags
        assert rep.reading == "at-most"

    def test_dodecahedron_five_faces(self):
        g = dodecahedron()
        rep = detect_borodin(planar_embedding(g))
        assert rep.tags == ("borodin-c",)
        assert len(rep.hits["borodin-c"]) == 12  # every face qualifies

    def test_octahedron_reading_contrast(self):
        g = octahedron()
        emb = planar_embedding(g)
        loose = detect_borodin(emb, reading="at-most")
        strict = detect_borodin(emb, reading="exact")
        # all degrees are 4: (4,4) passes the ceilings but is not verbatim
        assert loose.at_least_one
        assert not strict.at_least_one

    def test_icosahedron_reading_contrast(self):
        g = icosahedron()
        emb = planar_embedding(g)
        assert detect_borodin(emb, reading="at-most").at_least_one
        assert not detect_borodin(emb, reading="exact").at_least_one

    def test_b_case_quad_face(self):
        # cube has 4-faces of four 3-vertices: matches the two-3s clause
        g = cube()
        rep = detect_borodin(planar_embedding(g))
        assert "borodin-b" in rep.tags

    def test_quad_face_rule_matches_counting_rule(self):
        # every sorted degree 4-tuple over 3..12 on a hand-built embedding
        # that lists one 4-face only; spokes into a K11 hub give the face's
        # vertices their degrees
        def counting_rule(degs):
            if degs[0] == 3 and degs[1] == 3 and degs[2] <= 5:
                return "two-3-vertices"
            counts = {d: degs.count(d) for d in set(degs)}
            if counts.get(3, 0) >= 1 and counts.get(4, 0) >= 2:
                rest = list(degs)
                rest.remove(3)
                rest.remove(4)
                rest.remove(4)
                if rest[0] <= 5:
                    return "one-3-two-4"
            return None

        hub = range(4, 15)
        clique = [(a, b) for a in hub for b in hub if a < b]
        face = (0, 1, 2, 3)
        fired = 0
        for degs in combinations_with_replacement(range(3, 13), 4):
            spokes = [(v, h) for v, d in enumerate(degs) for h in hub[: d - 2]]
            g = Graph.from_edges(15, [(0, 1), (1, 2), (2, 3), (3, 0)] + clique + spokes)
            assert tuple(g.degrees()[:4]) == degs
            rep = detect_borodin(Embedding(g, (), (face,)))
            want = counting_rule(degs)
            assert rep.hits["borodin-b"] == (((face, want),) if want else ()), degs
            fired += want is not None
        # (3, 3, 3..5, up to 12) is 10 + 9 + 8 tuples, and then (3, 4, 4, 4..5)
        assert fired == 27 + 2

    def test_skips_non_induced_walks(self):
        # two K4s glued at a vertex: the cut vertex repeats in one walk
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        edges += [(3, 4), (3, 5), (4, 5), (3, 6), (4, 6), (5, 6)]
        g = Graph.from_edges(7, edges)
        emb = planar_embedding(g)
        assert emb is not None
        rep = detect_borodin(emb)
        walks = [w for w in emb.faces if len(set(w)) != len(w)]
        assert tuple(walks) == rep.skipped_faces or set(map(tuple, walks)) == set(
            rep.skipped_faces
        )
        assert rep.skipped_faces  # the glued vertex produces one

    def test_rejects_unknown_reading(self):
        g = complete(4)
        with pytest.raises(ValueError):
            detect_borodin(planar_embedding(g), reading="fuzzy")

    def test_rejects_low_degree(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            detect_borodin(planar_embedding(g))


class TestCharging:
    @pytest.mark.parametrize(
        "g", [cube(), octahedron(), dodecahedron(), icosahedron(), complete(4)]
    )
    def test_initial_total_is_minus_eight(self, g):
        led = charge_ledger(planar_embedding(g))
        assert led.total_initial == Fraction(-8)
        assert led.transfers == ()
        assert led.total_final == Fraction(-8)

    def test_initial_decomposition(self):
        g = cube()
        led = charge_ledger(planar_embedding(g))
        assert led.vertex_initial == tuple([Fraction(-1)] * 8)
        assert led.face_initial == tuple([Fraction(0)] * 6)

    def test_cube_discharge(self):
        g = cube()
        led = discharge_audit(planar_embedding(g))
        # every vertex donates 1 and receives 1: charges unchanged at -1
        assert led.vertex_final == tuple([Fraction(-1)] * 8)
        assert led.total_final == Fraction(-8)
        assert led.has_negative_final
        assert len(led.transfers) == 24
        assert all(amt == Fraction(1, 3) for _, _, amt in led.transfers)

    def test_incidence_graph_discharge(self):
        g = icosahedron_incidence()
        led = discharge_audit(planar_embedding(g))
        assert led.total_initial == Fraction(-8)
        assert led.total_final == Fraction(-8)
        assert led.has_negative_final

    def test_transfer_conservation_identity(self):
        g = icosahedron_incidence()
        led = discharge_audit(planar_embedding(g))
        assert sum(led.vertex_final, Fraction(0)) == sum(
            led.vertex_initial, Fraction(0)
        )

    @pytest.mark.parametrize("g", [cube(), icosahedron_incidence(), icosahedron(), complete(4)])
    def test_fields_match_fraction_sums(self, g):
        """The integer-thirds ledger equals the rule summed in Fractions."""
        emb = planar_embedding(g)
        third = Fraction(1, 3)
        v_init = [Fraction(g.degree(v) - 4) for v in range(g.n)]
        f_init = [Fraction(len(f) - 4) for f in emb.faces]
        v_final = list(v_init)
        rows = []
        if g.girth() >= 4:
            rows = [(u, v, third) for v in range(g.n) if g.degree(v) == 3 for u in g.neighbors(v)]
            led = discharge_audit(emb)
        else:
            led = charge_ledger(emb)
        for donor, recipient, amount in rows:
            v_final[donor] -= amount
            v_final[recipient] += amount
        assert led.vertex_initial == tuple(v_init)
        assert led.face_initial == led.face_final == tuple(f_init)
        assert led.transfers == tuple(rows)
        assert led.vertex_final == tuple(v_final)
        assert led.total_initial == sum(v_init) + sum(f_init)
        assert led.total_final == sum(v_final) + sum(f_init)
        assert led.has_negative_final == (min(v_final + f_init) < 0)
        fields = [*led.vertex_initial, *led.face_initial, *led.vertex_final,
                  led.total_initial, led.total_final, *(amt for _, _, amt in led.transfers)]
        assert all(type(x) is Fraction for x in fields)

    def test_discharge_requires_girth(self):
        g = complete(4)
        with pytest.raises(ValueError):
            discharge_audit(planar_embedding(g))

    def test_discharge_requires_degree(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            discharge_audit(planar_embedding(g))


def min3_graphs():
    """Every class with n <= 7 and minimum degree 3, then both corpora."""
    for n in range(4, 8):
        yield from (g for g in enumerate_graph_classes(n) if g.min_degree() >= 3)
    yield from planar_min3_corpus()
    yield from girth4_corpus()


class TestAgainstOracles:
    """The degree-mask detector and discharging moves match the per-edge
    walks they replaced, report for report and ledger for ledger."""

    def test_girth4_reports(self):
        hits = set()
        for g in min3_graphs():
            rep = detect_girth4_config(g)
            assert rep == edge_sort_girth4_config(g), g.edges()
            hits.update(rep.tags)
        assert hits == {"g4-a", "g4-b"}

    def test_discharge_ledgers(self):
        audited = 0
        for g in min3_graphs():
            emb = planar_embedding(g)
            if emb is None or g.has_triangle():
                continue
            assert discharge_audit(emb) == _ledger(emb, neighbour_walk_moves(g)), g.edges()
            audited += 1
        assert audited > 500
