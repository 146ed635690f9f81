"""The left-right planarity test gives networkx's rotation, and needs no networkx.

`totbond.planar` ports networkx 3.x's non-recursive LRPlanarity and
writes out the rotation its embedding phase builds, so
`planar_embedding(g).rotation` must equal `networkx_rotation(g)`
(None for a non-planar graph) on every graph here, and `is_planar` must
agree.  Every CLI record that reads a rotation depends on that.
"""

import os
import random
import subprocess
import sys

import pytest
from oracles import dart_trace_faces, networkx_rotation, petersen, write_graph6

from totbond.corpus import girth4_corpus, planar_min3_corpus
from totbond.families import complete, complete_bipartite
from totbond.graphs import Graph
from totbond.planar import is_planar, planar_embedding
from totbond.smallgraphs import enumerate_graph_classes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_as_networkx(g: Graph) -> bool:
    """Assert the rotations match, and the faces the dart-dict tracer's;
    True when g is planar."""
    emb = planar_embedding(g)
    want = networkx_rotation(g)
    assert (None if emb is None else emb.rotation) == want, (g.n, g.edges())
    if emb is not None:
        assert emb.faces == dart_trace_faces(emb.rotation), (g.n, g.edges())
    assert is_planar(g) == (want is not None), (g.n, g.edges())
    return want is not None


def grid_with_chords(rows: int, cols: int, chords: int, rng: random.Random) -> Graph:
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.add((v, v + 1))
            if i + 1 < rows:
                edges.add((v, v + cols))
    n = rows * cols
    for _ in range(chords):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def test_every_class_up_to_seven():
    planar = total = 0
    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            planar += same_as_networkx(g)
            total += 1
    assert total == 1252
    assert planar == 1252 - 237


def test_empty_and_named_graphs():
    assert same_as_networkx(Graph(0, ()))
    assert planar_embedding(Graph(0, ())).rotation == ()
    for g in (complete(5), complete_bipartite(3, 3), petersen()):
        assert not same_as_networkx(g)


@pytest.mark.parametrize("corpus", [girth4_corpus, planar_min3_corpus])
def test_corpora(corpus):
    assert all(same_as_networkx(g) for g in corpus())


def test_seeded_random_sweep():
    rng = random.Random(20091)
    disconnected = sparse_nonplanar = 0
    for i in range(2000):
        n = rng.randint(1, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if i % 2:  # a uniform density
            p = rng.random()
            edges = [e for e in pairs if rng.random() < p]
        else:  # at most 3n - 6 edges, so only the test itself can refute
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), max(0, 3 * n - 6))))
        g = Graph.from_edges(n, edges)
        planar = same_as_networkx(g)
        disconnected += not g.is_connected()
        sparse_nonplanar += not planar and n > 2 and g.m <= 3 * n - 6
    assert disconnected > 300
    assert sparse_nonplanar > 150
    # networkx's ConflictPair shares its default Interval objects; the port
    # copies by value, which agrees only while nothing mutated them
    from networkx.algorithms.planarity import ConflictPair

    assert all(iv.empty() for iv in ConflictPair.__init__.__defaults__)


def stacked_triangulation(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random stacked triangulation: each new vertex goes into a face."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]  # inner and outer
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


def test_deep_stacked_triangulations():
    # many back edges on both sides of each child, which the small random
    # sweep seldom has
    rng = random.Random(2009)
    for _ in range(200):
        n = rng.randint(4, 120)
        edges = stacked_triangulation(n, rng)
        keep = 1 - rng.random() * 0.4
        label = list(range(n))
        rng.shuffle(label)
        g = Graph.from_edges(n, [(label[u], label[v]) for u, v in edges if rng.random() < keep])
        assert same_as_networkx(g)


def plant_subdivision(n: int, edges, rng: random.Random):
    """(n', edges') with a K5 or K3,3 subdivision planted on existing vertices:
    its branch vertices are old ones, and each of its edges a new path with
    one to three inner vertices, so the graph stays within 3n - 6 edges."""
    branch = rng.sample(range(n), rng.choice((5, 6)))
    if len(branch) == 5:
        links = [(a, b) for i, a in enumerate(branch) for b in branch[i + 1:]]
    else:
        links = [(a, b) for a in branch[:3] for b in branch[3:]]
    edges = list(edges)
    for a, b in links:
        inner = list(range(n, n + rng.randint(1, 3)))
        n += len(inner)
        walk = [a, *inner, b]
        edges += zip(walk, walk[1:])
    return n, edges


def test_stacked_triangulations_at_corpus_sizes():
    # girth4 reaches n = 363: deep DFS paths, and with a planted K5 or
    # K3,3 subdivision a conflict deep in the DFS ends the test
    rng = random.Random(363)
    for _ in range(20):
        n = rng.randint(150, 400)
        edges = stacked_triangulation(n, rng)
        keep = 1 - rng.random() * 0.4
        edges = [e for e in edges if rng.random() < keep]
        for planted in (False, True):
            size, es = plant_subdivision(n, edges, rng) if planted else (n, edges)
            label = list(range(size))
            rng.shuffle(label)
            g = Graph.from_edges(size, [(label[u], label[v]) for u, v in es])
            assert g.m <= 3 * g.n - 6
            assert same_as_networkx(g) is not planted


def test_grids_with_chords_no_recursion():
    rng = random.Random(77)
    kinds = set()
    for rows, cols, chords in [(20, 20, 0), (20, 20, 1), (20, 20, 3), (10, 40, 2),
                               (2, 200, 1), (1, 400, 0), (25, 16, 6), (8, 50, 4)]:
        g = grid_with_chords(rows, cols, chords, rng)
        kinds.add(same_as_networkx(g))
    assert kinds == {True, False}


# The CI step "Runtime without networkx" in one process: its four
# pipelines, each behind a marker line, with networkx blocked so that
# importing it fails.
RUNTIME = """
import sys
sys.path[:0] = [sys.argv[1]]
sys.modules["networkx"] = None
from totbond.cli import main
for argv in (["detect", sys.argv[2]], ["discharge", sys.argv[2]],
             ["discharge", "--full", sys.argv[2]],
             ["campaign", "--theorem", "config-borodin", "--corpus", "planar-min3"]):
    print("==", *argv[:2], flush=True)
    assert main(argv) == 0, argv
"""


def test_planar_verbs_run_without_networkx(tmp_path):
    path = tmp_path / "planar-min3.g6"
    with open(path, "wb") as fh:
        write_graph6(planar_min3_corpus(), fh)
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and a run must leave no
    # bytecode cache in the source tree
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", RUNTIME, os.path.join(ROOT, "src"), str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [run.splitlines()[1:] for run in proc.stdout.split("== ")[1:]]
    assert [len(run) for run in runs[2:]] == [366, 21]
    detect, discharge, full, campaign = runs
    assert sum(line.startswith("DETECT ") for line in detect) >= 20
    assert sum(line.startswith("DISCHARGE ") for line in discharge) >= 20
    assert full[0].startswith("DISCHARGE ") and campaign[-1].startswith("SUMMARY ")
