"""Workload definitions and seeded input files.

Each workload is a fixed list of CLI calls over a fixed set of input
graphs.  Inputs come from ``totbond.corpus`` (or, for ``trees-n23``, from
the CLI's own ``trees:`` spec).  Every repetition of a run writes fresh
input files: each graph relabelled by a random vertex permutation
(``Graph.relabel``) and the file order shuffled, both drawn from
(seed, repetition).  Seed 0's first repetition is the identity.  The
program sees only the written files.  Drawing new labels per repetition
averages the relabelling's effect on solve times inside one run, so
runs on different seeds agree more closely.

Graphs are identified by their index in the unrelabelled corpus, so the
reference answers in ``reference.json`` serve every seed.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field

TREES = "trees-n23"
PLANAR = "planar-d8"
GAMMA = "gamma-girth4"
DETECT = "detect-girth4"
WORKLOADS = (TREES, PLANAR, GAMMA, DETECT)

# the planar-d8 budget is the acceptance budget of the campaign tests
PLANAR_BUDGET = 200000
# per-graph limit of the gamma_t frontier, in seconds at the reference
# speed of calibrate.py.  At the seed commit every girth4 graph with
# n <= 44 finishes in at most 1.72 s under seeds 1-22, and the n=45, m=77
# graph needs 3.2-14.2 s.  The limit sits at the geometric middle of that
# gap, so a graph's time has to be off by a factor of 1.36 to move the
# frontier.
FRONTIER_LIMIT_S = 2.35
# the frontier pass past the gamma-t inputs stops after this long in total
FRONTIER_TOTAL_S = 20.0
# detect-girth4 repetitions take turns over this many interleaved parts
DETECT_PARTS = 3


@dataclass(frozen=True)
class Sizes:
    """Input cut-offs: full runs, or the cut-down quick mode."""

    trees_hi: int
    planar_max_n: int
    gamma_max_n: int
    scan_max_n: int
    frontier_max_n: int
    detect_max_n: int


# The timed gamma-t and witness passes stop at n=40 and n=28.  Past
# those, a handful of graphs (gamma-t n=41..44, witness n=29..30) swing
# a pass by a factor of two between relabellings, which no run of a few
# repetitions averages out.  The frontier pass still solves every graph
# with n=41..44, one at a time under the per-graph limit.
FULL = Sizes(trees_hi=14, planar_max_n=20, gamma_max_n=40, scan_max_n=28,
             frontier_max_n=64, detect_max_n=400)
QUICK = Sizes(trees_hi=9, planar_max_n=8, gamma_max_n=20, scan_max_n=14,
              frontier_max_n=24, detect_max_n=20)


@dataclass
class Expected:
    """The graphs one CLI call is given, in the order it sees them."""

    graph6: list[str]
    index: list[int]  # corpus index of each graph: the key into reference.json
    orders: list[int]
    path: str | None = None
    _graphs: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.graph6)

    def graph(self, pos: int):
        """The graph at a position, decoded on first use."""
        g = self._graphs.get(pos)
        if g is None:
            from totbond.formats import parse_graph6

            g = self._graphs[pos] = parse_graph6(self.graph6[pos])
        return g

    def prefix(self, k: int) -> "Expected":
        return Expected(self.graph6[:k], self.index[:k], self.orders[:k], self.path)


def graph6_order(s: str) -> int:
    """Vertex count of a graph6 string with n <= 62."""
    return ord(s[0]) - 63


def corpus_digest(graphs) -> str:
    """sha256 over the identity-labelled adjacency masks of a corpus."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(f"{g.n}:{','.join(map(str, g.adj))};".encode())
    return h.hexdigest()


class Workload:
    """One workload: its corpus, its input files per repetition, its calls."""

    def __init__(self, name: str, sizes: Sizes, reference: dict | None) -> None:
        """Build the corpus; with a reference, check it is the reference's corpus."""
        from totbond.corpus import girth4_corpus, planar_min3_corpus

        self.name = name
        self.sizes = sizes
        self.graphs = []
        self.corpus_s = 0.0
        self.digest = None
        self.tree_graph6: list[str] = []
        if name == TREES:
            if reference is not None:
                self.tree_graph6 = [s for s in reference[TREES]["graph6"]
                                    if graph6_order(s) <= sizes.trees_hi]
            return
        t0 = time.perf_counter()
        self.graphs = planar_min3_corpus() if name == PLANAR else girth4_corpus()
        self.corpus_s = time.perf_counter() - t0
        self.digest = corpus_digest(self.graphs)
        if reference is not None and self.digest != reference[name]["corpus_sha256"]:
            raise ValueError(f"the corpus of {name} differs from the one reference.json "
                             "was made from")

    def _by_n(self, lo: int, hi: int) -> list[int]:
        return [i for i, g in enumerate(self.graphs) if lo <= g.n <= hi]

    def write(self, seed: int, rep: int, outdir: str) -> dict[str, Expected]:
        """Write one repetition's input files; returns what each call gets."""
        if self.name == TREES:
            g6 = self.tree_graph6
            return {"campaign": Expected(g6, list(range(len(g6))), [graph6_order(s) for s in g6])}
        rng = None if seed == 0 and rep == 0 else random.Random(f"{seed}:{rep}")
        sz = self.sizes

        def out(key: str, picks: list[int], frontier: bool = False) -> tuple[str, Expected]:
            path = os.path.join(outdir, f"r{rep}-{key}.g6")
            return key, self._write(path, picks, rng, frontier)

        if self.name == PLANAR:
            return dict([out("campaign", self._by_n(0, sz.planar_max_n))])
        if self.name == DETECT:
            # a third of the corpus per repetition, dealt in (n, m) order so
            # every third has the same mix of sizes: three short repetitions
            # take the time of one full pass, and their median resists the
            # swings in machine speed that one long pass cannot
            g = self.graphs
            picks = sorted(self._by_n(0, sz.detect_max_n), key=lambda i: (g[i].n, g[i].m, i))
            return dict([out("detect", picks[rep % DETECT_PARTS::DETECT_PARTS])])
        return dict([out("gamma-t", self._by_n(0, sz.gamma_max_n)),
                     out("witness", self._by_n(0, sz.scan_max_n)),
                     out("frontier", self._by_n(sz.gamma_max_n + 1, sz.frontier_max_n), True)])

    def _write(self, path: str, picks: list[int], rng: random.Random | None,
               frontier: bool) -> Expected:
        """Relabel and shuffle, or sort in frontier order, and write."""
        from totbond.formats import graph6_bytes

        order = list(picks)
        if rng is not None and not frontier:
            rng.shuffle(order)
        lines = []
        for i in order:
            g = self.graphs[i]
            if rng is not None:
                perm = list(range(g.n))
                rng.shuffle(perm)
                g = g.relabel(perm)
            lines.append(graph6_bytes(g).decode("ascii"))
        if frontier:
            # the frontier runs graphs in (n, m, graph6) order of what the program sees
            g = self.graphs
            keyed = sorted(zip(order, lines), key=lambda p: (g[p[0]].n, g[p[0]].m, p[1]))
            order = [i for i, _ in keyed]
            lines = [s for _, s in keyed]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(s + "\n" for s in lines))
        return Expected(lines, order, [self.graphs[i].n for i in order], path)

    def calls(self, files: dict[str, Expected]) -> list[tuple[str, list[str], str]]:
        """(verb, CLI argv, key of the files entry its output answers to)."""
        if self.name == TREES:
            spec = f"trees:5..{self.sizes.trees_hi}"
            return [("campaign", ["campaign", "--theorem", "thm-tree-n23", "--corpus", spec,
                                  "--jobs", "1"], "campaign")]
        if self.name == PLANAR:
            return [("campaign", ["campaign", "--theorem", "thm-planar-d8", "--corpus",
                                  files["campaign"].path, "--work-budget", str(PLANAR_BUDGET),
                                  "--jobs", "1"], "campaign")]
        if self.name == GAMMA:
            return [("gamma-t", ["gamma-t", files["gamma-t"].path], "gamma-t"),
                    ("witness", ["witness", "--scan", files["witness"].path], "witness")]
        path = files["detect"].path
        return [("detect", ["detect", "--rules", "g4,borodin", path], "detect"),
                ("discharge", ["discharge", path], "detect")]
