"""Rotation systems: validation, face tracing, Euler bookkeeping."""

import random

import pytest
from oracles import dart_trace_faces, face_lengths, is_spherical, petersen

from totbond.embedding import Embedding, EmbeddingError
from totbond.families import complete, complete_bipartite, cycle
from totbond.graphs import Graph


def ring_rotation(n):
    return [((v - 1) % n, (v + 1) % n) for v in range(n)]


class TestValidation:
    def test_out_of_range(self):
        with pytest.raises(EmbeddingError):
            Embedding.from_rotation([(1,), (0, 9)])

    def test_self_entry(self):
        with pytest.raises(EmbeddingError):
            Embedding.from_rotation([(0,)])

    def test_repeated_neighbor(self):
        with pytest.raises(EmbeddingError):
            Embedding.from_rotation([(1, 1), (0,)])

    def test_asymmetric(self):
        with pytest.raises(EmbeddingError):
            Embedding.from_rotation([(1,), ()])

    @pytest.mark.parametrize("rotation,message", [
        ([(1,), (0, 9)], "vertex 9 out of range at rotation of 1"),
        ([(0,)], "self-entry in rotation of 0"),
        ([(1, 1), (0,)], "repeated neighbor 1 in rotation of 0"),
        ([(1, 2), (), (0,)], r"rotation not symmetric on edge \(0, 1\)"),
        ([(2,), (2,), (0,)], r"rotation not symmetric on edge \(1, 2\)"),
    ])
    def test_messages_name_the_first_bad_dart(self, rotation, message):
        with pytest.raises(EmbeddingError, match=f"^{message}$"):
            Embedding.from_rotation(rotation)

    def test_graph_reconstruction(self):
        emb = Embedding.from_rotation(ring_rotation(5))
        assert emb.graph == cycle(5)


class TestFaceTracing:
    def test_cycle_two_faces(self):
        emb = Embedding.from_rotation(ring_rotation(6))
        assert sorted(face_lengths(emb)) == [6, 6]
        assert emb.euler_characteristic() == 2
        assert is_spherical(emb)

    def test_single_edge(self):
        emb = Embedding.from_rotation([(1,), (0,)])
        # one face walking the edge both ways
        assert face_lengths(emb) == (2,)
        assert emb.euler_characteristic() == 2

    def test_k4_planar_rotation(self):
        # outer triangle 0,1,2 with 3 in the middle
        rot = [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)]
        emb = Embedding.from_rotation(rot)
        assert emb.graph == complete(4)
        assert sorted(face_lengths(emb)) == [3, 3, 3, 3]
        assert is_spherical(emb)

    def test_k4_toroidal_rotation_exists(self):
        # identical cyclic order everywhere traces too few faces for a sphere
        rot = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
        emb = Embedding.from_rotation(rot)
        assert emb.graph == complete(4)
        assert not is_spherical(emb)
        assert emb.euler_characteristic() < 2

    def test_directed_edge_partition(self):
        """Every directed edge appears in exactly one face walk."""
        rot = [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)]
        emb = Embedding.from_rotation(rot)
        darts = []
        for verts in emb.faces:
            k = len(verts)
            darts += [(verts[i], verts[(i + 1) % k]) for i in range(k)]
        assert len(darts) == len(set(darts)) == 2 * emb.graph.m

    def test_faces_open_at_least_unused_dart(self):
        """Face order: each walk starts at the least dart no earlier face used."""
        from totbond.corpus import girth4_corpus, planar_min3_corpus
        from totbond.planar import planar_embedding

        rotations = [
            [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)],
            [(1,), (0,), (3,), (2,)],
            ring_rotation(7),
        ] + [planar_embedding(g).rotation for g in planar_min3_corpus()] + [
            planar_embedding(g).rotation for g in girth4_corpus() if g.n <= 40
        ]
        for rot in rotations:
            emb = Embedding.from_rotation(rot)
            unused = {(u, v) for v in range(len(rot)) for u in rot[v]}
            for verts in emb.faces:
                k = len(verts)
                walk = [(verts[i], verts[(i + 1) % k]) for i in range(k)]
                assert walk[0] == min(unused)
                assert unused.issuperset(walk)
                unused.difference_update(walk)
            assert not unused

    def test_same_faces_as_dart_tracer_off_the_sphere(self):
        # shuffled rotations are mostly of higher genus, where faces are
        # long and wind through many vertices
        rng = random.Random(533)
        rotations = [[(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)], [(1,), (0,), (3,), (2,)]]
        for g in (complete(5), complete(6), complete_bipartite(3, 3), petersen(), cycle(5)):
            for _ in range(4):
                rot = []
                for v in range(g.n):
                    order = [u for u in range(g.n) if g.adj[v] >> u & 1]
                    rng.shuffle(order)
                    rot.append(tuple(order))
                rotations.append(rot)
        off = 0
        for rot in rotations:
            emb = Embedding.from_rotation(rot)
            off += not is_spherical(emb)
            assert emb.faces == dart_trace_faces(emb.rotation), rot
        assert off == 18  # all but the four cycles

    def test_disconnected_not_spherical(self):
        emb = Embedding.from_rotation([(1,), (0,), (3,), (2,)])
        assert not is_spherical(emb)
