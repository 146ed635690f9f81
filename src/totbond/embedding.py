"""Combinatorial embeddings: rotation systems and the faces they induce.

An embedding is the clockwise neighbor order at every vertex.  Faces are
traced with the successor rule: after arriving along the directed edge
(u, v), leave along (v, w) where w follows u in the rotation at v.  Each
directed edge lies on exactly one face walk, so sum of face lengths is 2m,
and a genus-0 rotation system of a connected graph satisfies n - m + f = 2.
Faces come in a fixed order: each walk starts at the least directed edge
that no earlier walk used, found in one pass over the sorted edges.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


class EmbeddingError(ValueError):
    """Raised for rotation systems that are not consistent."""


@dataclass(frozen=True)
class Embedding:
    """A graph together with a rotation system and its traced faces."""

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rotation(rotation) -> "Embedding":
        """Validate a rotation system and trace its faces.

        rotation[v] lists the neighbors of v in clockwise order.  The lists
        must be symmetric (u appears at v iff v appears at u), without
        repeats or self-entries.
        """
        rotation = tuple(tuple(r) for r in rotation)
        n = len(rotation)
        masks = [0] * n
        # back[u] collects every v whose rotation lists u: the lists are
        # symmetric exactly when the transposed masks equal the masks
        back = [0] * n
        for v, order in enumerate(rotation):
            seen = 0
            bit = 1 << v
            for u in order:
                if not 0 <= u < n:
                    raise EmbeddingError(f"vertex {u} out of range at rotation of {v}")
                if u == v:
                    raise EmbeddingError(f"self-entry in rotation of {v}")
                if seen >> u & 1:
                    raise EmbeddingError(f"repeated neighbor {u} in rotation of {v}")
                seen |= 1 << u
                back[u] |= bit
            masks[v] = seen
        if masks != back:  # name the first dart whose reverse is missing
            for v in range(n):
                for u in rotation[v]:
                    if not masks[u] >> v & 1:
                        raise EmbeddingError(f"rotation not symmetric on edge ({v}, {u})")
        graph = Graph._trusted(n, tuple(masks))
        faces = _trace_faces(rotation)
        return Embedding(graph, rotation, faces)

    def euler_characteristic(self) -> int:
        return self.graph.n - self.graph.m + len(self.faces)


def _trace_faces(rotation) -> tuple[tuple[int, ...], ...]:
    """Orbit decomposition of directed edges under the face successor rule."""
    # after[v][u] is the neighbour that follows u clockwise at v, so the
    # dart (u, v) steps to (v, after[v][u]); a walked dart leaves the map
    after = [dict(zip(order, order[1:] + order[:1])) for order in rotation]
    faces = []
    # each face opens at its least dart not yet walked
    for u, order in enumerate(rotation):
        for v in sorted(order):
            walk = []
            a, b = u, v
            while (c := after[b].pop(a, None)) is not None:
                walk.append(a)
                a, b = b, c
            if walk:
                faces.append(tuple(walk))
    return tuple(faces)
