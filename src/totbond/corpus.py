"""Deterministic graph corpora for campaign runs.

Everything here is built from explicit constructions so that corpus
membership is reproducible from the source alone; the campaign layer
re-verifies the advertised properties (connectivity, degree floor,
girth, planarity) on ingestion rather than trusting the builders.
"""

from __future__ import annotations

from .families import complete, complete_multipartite
from .graphs import Graph


def cylinder(k: int, layers: int) -> Graph:
    """layers concentric k-cycles, consecutive rings joined by spokes.

    cylinder(4, 2) is the cube; cylinder(k, 2) is the k-prism.
    """
    if k < 3 or layers < 1:
        raise ValueError("need ring size >= 3 and at least one layer")
    edges = []
    for j in range(layers):
        base = j * k
        for i in range(k):
            edges.append((base + i, base + (i + 1) % k))
        if j + 1 < layers:
            for i in range(k):
                edges.append((base + i, base + k + i))
    return Graph.from_edges(k * layers, edges)


def prism(k: int) -> Graph:
    return cylinder(k, 2)


def capped_cylinder(k: int, layers: int) -> Graph:
    """Cylinder plus an apex joined to the even positions of the first ring.

    k must be even and at least 6 so the apex has degree >= 3 and no
    triangle appears.
    """
    if k % 2 or k < 6:
        raise ValueError("cap needs an even ring of size >= 6")
    g = cylinder(k, layers)
    apex = g.n
    edges = list(g.edges()) + [(i, apex) for i in range(0, k, 2)]
    return Graph.from_edges(apex + 1, edges)


def double_capped_cylinder(k: int, layers: int) -> Graph:
    """Capped cylinder with a second apex on the odd positions of the last ring."""
    if k % 2 or k < 6:
        raise ValueError("caps need an even ring of size >= 6")
    g = capped_cylinder(k, layers)
    apex = g.n
    base = (layers - 1) * k
    edges = list(g.edges()) + [(base + i, apex) for i in range(1, k, 2)]
    return Graph.from_edges(apex + 1, edges)


def pseudo_double_wheel(k: int) -> Graph:
    """Even cycle with two hubs, one on even rim positions, one on odd."""
    return double_capped_cylinder(k, 1)


def wheel(k: int) -> Graph:
    """k-cycle plus a hub adjacent to every rim vertex."""
    if k < 3:
        raise ValueError("rim must be a cycle")
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return Graph.from_edges(k + 1, edges)


def antiprism(k: int) -> Graph:
    """Two k-cycles joined by a zigzag band; 4-regular and planar."""
    if k < 3:
        raise ValueError("antiprism needs rings of size >= 3")
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, k + (i + 1) % k))
        edges.append((i, k + i))
        edges.append(((i + 1) % k, k + i))
    return Graph.from_edges(2 * k, edges)


def tetrahedron() -> Graph:
    return complete(4)


def octahedron() -> Graph:
    return complete_multipartite((2, 2, 2))


def cube() -> Graph:
    return cylinder(4, 2)


def dodecahedron() -> Graph:
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 10), (10, 6), (6, 11), (11, 7), (7, 12),
        (12, 8), (8, 13), (13, 9), (9, 14), (14, 5),
        (10, 15), (11, 16), (12, 17), (13, 18), (14, 19),
        (15, 16), (16, 17), (17, 18), (18, 19), (19, 15),
    ]
    return Graph.from_edges(20, edges)


def icosahedron() -> Graph:
    # top hub, upper pentagon, lower pentagon, bottom hub
    edges = []
    up = list(range(1, 6))
    low = list(range(6, 11))
    for i in range(5):
        edges.append((0, up[i]))
        edges.append((up[i], up[(i + 1) % 5]))
        edges.append((low[i], low[(i + 1) % 5]))
        edges.append((11, low[i]))
        edges.append((up[i], low[i]))
        edges.append((up[(i + 1) % 5], low[i]))
    return Graph.from_edges(12, edges)


def icosahedron_incidence() -> Graph:
    """Vertex-face incidence graph of the icosahedron.

    32 vertices and 60 edges; vertex side has degree 5, face side 3,
    girth 4, planar, and no edge of degree sum below 8.
    """
    from .planar import planar_embedding

    g = icosahedron()
    emb = planar_embedding(g)
    faces = sorted(tuple(sorted(f)) for f in emb.faces)
    edges = []
    for idx, face in enumerate(faces):
        for v in face:
            edges.append((v, g.n + idx))
    return Graph.from_edges(g.n + len(faces), edges)


def girth4_corpus() -> list[Graph]:
    """Connected planar graphs with min degree 3 and girth 4: 513 of them.

    Fixed parameter sweeps over the cylinder constructions, plus the
    icosahedron incidence graph.  The cube is cylinder(4, 2).
    """
    out = [cylinder(k, layers) for k in range(4, 34) for layers in range(2, 12)]
    out += [capped_cylinder(k, layers) for k in range(6, 34, 2) for layers in range(2, 10)]
    out += [double_capped_cylinder(k, layers) for k in range(6, 34, 2) for layers in range(2, 7)]
    out += [pseudo_double_wheel(k) for k in range(6, 66, 2)]
    out.append(icosahedron_incidence())
    return out


def planar_min3_corpus() -> list[Graph]:
    """Connected planar graphs with min degree 3, mixed girths and sizes."""
    k5_minus = complete(5).delete_edges([(3, 4)])
    out = [
        tetrahedron(),
        k5_minus,
        octahedron(),
        cube(),
    ]
    out.extend(wheel(k) for k in range(4, 9))
    out.extend(prism(k) for k in range(3, 7))
    out.extend(antiprism(k) for k in range(4, 6))
    out.append(pseudo_double_wheel(8))
    out.append(pseudo_double_wheel(10))
    out.append(capped_cylinder(6, 2))
    out.append(dodecahedron())
    out.append(icosahedron())
    return out
