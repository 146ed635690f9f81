"""Golden CLI records: speedups and refactors must not change a single byte.

The gamma-t, witness-scan and planar-d8 hashes were taken from the CLI
output of the code before the packing lower bound and the shared
per-graph values of the witness scan; the all-tags campaign and bounds
hashes from the code before the THEOREMS table; the tree hashes from the
code that canonized every rooted tree; the gamma-t hash of girth4
orders 41..52 from the code that ran one deepening loop over the whole
vertex set instead of one per coverer class; the detect and discharge
hashes, and the tree hash of order 16, from the code that packed and
unpacked graph6 one bit at a time, traced each face from the least
unused dart, kept the charge ledger in Fractions and walked the BFS tree
edge by edge for the girth.  Each change only skips work whose outcome
is already known or restates the same rules, so every record, down to
the witness sets the search finds first, must come out the same.  The
all-tags campaign and bounds hashes also predate the `Bound` rows: every
upper bound became one row that a campaign tag and `bounds` both read,
and `bounds` decides where its six rows apply from their hypotheses
instead of its own girth and triangle tests.  The bondage and search
hashes are from the code that wrote each CLI record with its own
f-string, before one writer formatted every record.
"""

import hashlib

import pytest

from oracles import theta_graph, write_graph6
from totbond.campaigns import THEOREM_TAGS
from totbond.cli import main
from totbond.corpus import girth4_corpus, icosahedron_incidence, planar_min3_corpus
from totbond.families import complete, complete_multipartite, cycle, path
from totbond.graphs import Graph
from totbond.smallgraphs import enumerate_graph_classes
from totbond.trees import enumerate_trees

GIRTH4_N36 = {
    "gamma-t": "916cd41d09f86071ffdefac50d0125d17c8a1e678bdef49d4118c1f079df8bb9",
    "witness-scan": "8a21d2c92c1cf77b03b72e80e799561c00f5f5c4b0f2ce8fccd4aba96756a8e6",
}
GIRTH4_N41_52_GAMMA_T = "d43372b5315a324c546f1e6f0c41e8ef5788e6f5d28977e54f8fb89f95dde805"
PLANAR_D8_N20 = "d4ed7d0fe64a24c692be77c7b46b302a7f02f92f0ee710cd1ff6101824f1bc81"
GEN_TREES = {
    "14": "d076511ae0a32eb6d33ecf653b35d62d2766a4dbaaa9e1c46fccd2152479d1ab",
    "15": "c1908aa47307545566d7e43b8dc3f8cac326a1a8f528a4ca5847f455bd1592da",
    "16": "aa3e32e7700360042fa29654de607f0b8c768dbe0a852df1c97b81c3ba3bc41d",
}
TREE_N23_5_14 = "95bce7b96f67213a529654a9c37032ee1e876322a369bc3d0c389cce53195123"


def _write(tmp_path, name, graphs):
    p = tmp_path / name
    with open(p, "wb") as fh:
        write_graph6(graphs, fh)
    return str(p)


def _digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture(scope="module")
def girth4_small():
    return [g for g in girth4_corpus() if g.n <= 36]


def test_gamma_t_records(tmp_path, capsys, girth4_small):
    f = _write(tmp_path, "girth4.g6", girth4_small)
    assert _digest(capsys, ["gamma-t", f]) == GIRTH4_N36["gamma-t"]


def test_gamma_t_records_n41_52(tmp_path, capsys):
    graphs = [g for g in girth4_corpus() if 41 <= g.n <= 52]
    assert len(graphs) == 51
    f = _write(tmp_path, "girth4-41-52.g6", graphs)
    assert _digest(capsys, ["gamma-t", f]) == GIRTH4_N41_52_GAMMA_T


def test_witness_scan_records(tmp_path, capsys, girth4_small):
    f = _write(tmp_path, "girth4.g6", girth4_small)
    assert _digest(capsys, ["witness", "--scan", f]) == GIRTH4_N36["witness-scan"]


def test_planar_d8_campaign_records(tmp_path, capsys):
    f = _write(tmp_path, "planar.g6", [g for g in planar_min3_corpus() if g.n <= 20])
    argv = ["campaign", "--theorem", "thm-planar-d8", "--corpus", f,
            "--work-budget", "200000", "--jobs", "1"]
    assert _digest(capsys, argv) == PLANAR_D8_N20


@pytest.mark.parametrize("n", sorted(GEN_TREES))
def test_gen_trees_records(capsys, n):
    assert _digest(capsys, ["gen", "--trees", n]) == GEN_TREES[n]


def test_tree_n23_campaign_records(capsys):
    argv = ["campaign", "--theorem", "thm-tree-n23", "--corpus", "trees:5..14", "--jobs", "1"]
    assert _digest(capsys, argv) == TREE_N23_5_14


# detect and discharge on the two planar corpora: every graph6 decode and
# record encode, every traced face and every charge ledger total
PLANAR_VERBS = {
    "detect-at-most": ["detect", "--rules", "g4,borodin", "--reading", "at-most"],
    "detect-exact": ["detect", "--rules", "g4,borodin", "--reading", "exact"],
    "discharge": ["discharge"],
    "discharge-full": ["discharge", "--full"],
}
PLANAR_VERB_RECORDS = {
    ("girth4", "detect-at-most"): "445c8d1ae2924bf3e34d26ebd8c591b227c2c7771057d7f541ab142603e2389e",
    ("girth4", "detect-exact"): "9ac4fceb3f23a2d15ef9f4a7a4583b50212cdae1128183633138062dd7f8dc51",
    ("girth4", "discharge"): "7724f49b4f6bc025bebcd72f50b014413bd683e58922784103c04e2f92f1842e",
    ("girth4", "discharge-full"): "f78605437dca33548d020ea01c0cf44fadff80eedff0f271b8df2e59649e6b66",
    ("planar-min3", "detect-at-most"): "8073dec8ec0566ab88e73a0e60122565e1136e5d4bc5a74c562ebd92fd49d87d",
    ("planar-min3", "detect-exact"): "838ef3eb7a429eae0506999e8966feac93bd3a833446e4f778bcb49cc1f038e4",
    ("planar-min3", "discharge"): "deaf6390f8b28e21f147dff78448138abf6f8c7f6f78651e1f331591b7daacd7",
    ("planar-min3", "discharge-full"): "4c6119d65cf5b7c12c54b919f44e041f977fb03bd1506ef117e9d758b06045e7",
}


@pytest.fixture(scope="module")
def planar_corpus_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("planar")
    return {
        "girth4": _write(d, "girth4.g6", girth4_corpus()),
        "planar-min3": _write(d, "planar-min3.g6", planar_min3_corpus()),
    }


@pytest.mark.parametrize("corpus,verb", sorted(PLANAR_VERB_RECORDS))
def test_planar_verb_records(capsys, planar_corpus_files, corpus, verb):
    argv = PLANAR_VERBS[verb][:1] + [planar_corpus_files[corpus]] + PLANAR_VERBS[verb][1:]
    assert _digest(capsys, argv) == PLANAR_VERB_RECORDS[corpus, verb]


# Every campaign tag and the prior-bound checks on corpora that meet and miss
# each hypothesis.  Budget 3 stops most bondage searches (the work-budget
# skip, and `unresolved` bound checks); budget 8 stops P6's bounds search
# after size 1, so its tree bound is violated on the searched sizes alone.
BUDGETS = ("20000", "8", "3")
CAMPAIGN_ALL_TAGS = {
    "20000": "ccf8e3b3a27a54eb29319e59d3bc33e06001f7fc21d4408ef6b4041543ded78c",
    "8": "cefb254758781a1e337631e1385ce4b3ceafb260687e183545cae8ca8995c718",
    "3": "145a29bcec97ec1df0baa7481bfd92ff339c2db4426fc73beb4618f1e50599a7",
}
BOUNDS_MIXED = {
    "20000": "c63092a1c8894677c7e683d10844026293576bc8b7ab31acd4197b642cb77b3c",
    "8": "d21b20ac15dc7f166d37add7fff82fbc38331e0407294fc83c2cdad05bf4ad25",
    "3": "8c4a02904481c99c16dff5cc56e946bd419122cbd1924835a0b01decbaa66533",
}

PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def _campaign_corpus():
    return (
        [path(n) for n in range(2, 8)]
        + [cycle(n) for n in range(3, 9)]
        + [complete_multipartite(s) for s in ((3, 1), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (2, 1, 1))]
        + [g for n in range(4, 9) for g in enumerate_trees(n)]
        + [complete(4), complete(5), PETERSEN, TWO_TRIANGLES, PAW, theta_graph(1, 2, 3), theta_graph(2, 2, 2)]
        + [g for g in planar_min3_corpus() if g.n <= 12]
        + [g for g in girth4_corpus() if g.n <= 14]
        + [icosahedron_incidence()]
    )


def _bounds_corpus():
    return [
        path(6), cycle(3), cycle(5), complete(4), complete_multipartite((3, 2)),
        complete_multipartite((3, 1)), PAW, PETERSEN, complete_multipartite((3, 3)),
    ] + [g for g in planar_min3_corpus() if g.n <= 8]


def _all_tags_output(capsys, corpus_file, budget):
    """Records of every tag in turn, each followed by its exit status."""
    out = []
    for tag in THEOREM_TAGS:
        code = main(["campaign", "--theorem", tag, "--corpus", corpus_file,
                     "--work-budget", budget, "--jobs", "1"])
        out.append(capsys.readouterr().out + f"EXIT {code}\n")
    return "".join(out)


@pytest.mark.parametrize("budget", BUDGETS)
def test_campaign_records_all_tags(tmp_path, capsys, budget):
    f = _write(tmp_path, "mixed.g6", _campaign_corpus())
    digest = hashlib.sha256(_all_tags_output(capsys, f, budget).encode()).hexdigest()
    assert digest == CAMPAIGN_ALL_TAGS[budget]


@pytest.mark.parametrize("budget", BUDGETS)
def test_bounds_records(tmp_path, capsys, budget):
    f = _write(tmp_path, "bounds.g6", _bounds_corpus())
    assert _digest(capsys, ["bounds", f, "--work-budget", budget]) == BOUNDS_MIXED[budget]


# The witness scan, every anchored rule at fixed anchors and the multipartite
# rule by part sizes, on a corpus that reaches every rule, every verdict but a
# triangle that fails to raise gamma_t, and every precondition a rule can fail.
# A rule run only sees the graphs its anchors fit in.
WITNESS_MIXED = "24c64369782a5db05fd91e3dcebf087271716a05215858701df1ab35f65a195f"
WITNESS_ANCHORS = {
    "triangle": ("0,1,2", "0,2,4"),
    "cycle4": ("0,1,2,3", "0,2,1,3"),
    "cycle5": ("0,1,2,3,4", "0,2,4,1,3"),
    "deg3-dist2": ("0,1", "0,2", "1,4"),
    "deg2-dist3": ("0,1", "0,3", "0,5"),
}
WITNESS_PARTS = ("2,2", "3,1", "1,1", "3,2,2", "2,2,2")


def _witness_corpus():
    return (
        [g for n in range(1, 7) for g in enumerate_graph_classes(n)]
        + [g for n in range(2, 10) for g in enumerate_trees(n)]
        + [cycle(n) for n in range(3, 11)]
        + planar_min3_corpus()
        + [g for g in girth4_corpus() if g.n <= 24]
    )


def test_witness_records_mixed(tmp_path, capsys):
    graphs = _witness_corpus()
    argvs = [["witness", "--scan", _write(tmp_path, "all.g6", graphs)]]
    for rule, tuples in WITNESS_ANCHORS.items():
        for anchors in tuples:
            top = max(int(v) for v in anchors.split(","))
            f = _write(tmp_path, f"above-{top}.g6", [g for g in graphs if g.n > top])
            argvs.append(["witness", f, "--rule", rule, "--anchors", anchors])
    argvs += [["witness", "--rule", "multipartite", "--parts", p] for p in WITNESS_PARTS]
    out = []
    for argv in argvs:
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == WITNESS_MIXED


# The bondage sweep at the campaign budget on planar-min3, and a mixed file
# that reaches every BONDAGE record: C3 is infinite, P1 has an isolated
# vertex, and at cap 1 most trees are unknown above it.
BONDAGE_RECORDS = {
    "planar-min3": "efc7f29e3f10254f2b152e1929a6f5d5efb045920ff59d0e3a42ab9e6474bb35",
    "mixed": "e8e7b6d6357c5f876f6c9fdd297af953511f989c69782ebb42e0ba1460d0a93d",
    "mixed-cap1": "eb91d1b933d8835a58188a3ce837f01ec7cbe98b1907e3eeb96589bc494c7b2a",
}


@pytest.fixture(scope="module")
def bondage_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bondage")
    mixed = [cycle(3), path(1)] + [g for n in range(5, 10) for g in enumerate_trees(n)]
    return {
        "planar-min3": _write(d, "planar-min3.g6", planar_min3_corpus()),
        "mixed": _write(d, "mixed.g6", mixed),
    }


@pytest.mark.parametrize("name,flags", [
    ("planar-min3", ["--work-budget", "200000"]),
    ("mixed", []),
    ("mixed-cap1", ["--cap", "1"]),
])
def test_bondage_records(capsys, bondage_files, name, flags):
    f = bondage_files[name.removesuffix("-cap1")]
    assert _digest(capsys, ["bondage", f, *flags]) == BONDAGE_RECORDS[name]


SEARCH_BT2_RECORDS = {
    "trees:5..9": "348d22e436eab285938868f7721df7be8b4dec057fea260e10320602c22ff607",
    "cycles:4..12": "0f824650618b5f047aa297456e1b290ff9baecff13223f073e915b37b9b0c4c9",
}


@pytest.mark.parametrize("corpus", sorted(SEARCH_BT2_RECORDS))
def test_search_records(capsys, corpus):
    argv = ["search", "--bt", "2", "--corpus", corpus, "--jobs", "1"]
    assert _digest(capsys, argv) == SEARCH_BT2_RECORDS[corpus]
