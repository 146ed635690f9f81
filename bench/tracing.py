"""Spans recorded from outside the program, and the per-layer metrics.

The traced child wraps the functions one totbond module calls in
another, at the binding site the caller uses (for example
``totbond.bondage._exists_cover``, ``totbond.witnesses.gamma_t``).  Each
call records a span (name, start, end, parent span) in flat arrays kept
in memory and written out when the child exits.  A span's self time is
its duration minus the durations of its direct child spans.

Span names are ``<module>.<function>``; the module part is the layer a
self time is charged to.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(self.counters, result, args)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """For generator functions: one span per item produced."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.counters[name + ".items"] += 1
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None, generator: bool = False) -> None:
        fn = getattr(owner, attr)
        wrapped = self.wrap_iter(name, fn) if generator else self.wrap(name, fn, on_result)
        setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "counters": dict(self.counters),
            }, fh)


def _count_bondage(c, cert, args) -> None:
    if cert.status == "unknown-above-cap":
        c["bondage.unknown"] += 1


def _count_outcome(c, outcome, args) -> None:
    if outcome.status == "skipped":
        reason = dict(outcome.detail).get("reason")
        c["campaigns.budget_skips" if reason == "work-budget" else "campaigns.hypothesis_skips"] += 1


def _count_reports(c, reports, args) -> None:
    c["witnesses.reports"] += len(reports)


def _count_bytes(c, graphs, args) -> None:
    c["formats.bytes_in"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every cross-module binding site the CLI verbs go through."""
    from totbond.embedding import Embedding
    from totbond.graphs import Graph

    # the package re-exports functions under some module names (bondage),
    # so fetch the modules themselves
    bondage, campaigns, cli, formats, planar, witnesses = (
        importlib.import_module(f"totbond.{m}")
        for m in ("bondage", "campaigns", "cli", "formats", "planar", "witnesses"))

    p = tracer.patch
    p(cli, "main", "cli.main")
    for attr in ("_load_inputs", "_load_with_embeddings", "resolve_corpus"):
        p(cli, attr, "cli.load")
    p(cli, "read_graphs", "formats.read_graphs", on_result=_count_bytes)
    p(formats, "parse_graph6", "formats.decode")
    for mod in (cli, campaigns, witnesses):
        p(mod, "graph6_bytes", "formats.encode")
    p(cli, "enumerate_trees", "trees.enumerate", generator=True)
    for mod in (cli, bondage, witnesses):
        p(mod, "gamma_t", "domination.gamma_t")
    p(bondage, "_exists_cover", "domination.exists_cover")
    p(bondage, "max_matching_size", "bondage.matching")
    for mod in (cli, campaigns):
        p(mod, "bondage", "bondage.bondage", on_result=_count_bondage)
    p(cli, "run_campaign", "campaigns.run_campaign")
    p(campaigns, "evaluate_theorem", "campaigns.evaluate", on_result=_count_outcome)
    p(campaigns, "is_isomorphic", "smallgraphs.is_isomorphic")
    p(cli, "scan_witnesses", "witnesses.scan", on_result=_count_reports)
    # planar functions are imported inside the callers' bodies, so the
    # module attribute is the binding site
    p(planar, "is_planar", "planar.is_planar")
    p(planar, "planar_embedding", "planar.embedding")
    for attr in ("detect_borodin", "detect_girth4_config"):
        p(planar, attr, "planar.detect")
    for attr in ("charge_ledger", "discharge_audit"):
        p(planar, attr, "planar.discharge")
    Embedding.from_rotation = staticmethod(
        tracer.wrap("embedding.from_rotation", Embedding.from_rotation))
    p(Graph, "girth", "graphs.girth")
    p(Graph, "distance", "graphs.distance")


class SpanTotals:
    """Calls, self time and calls-by-parent per span name, over many dumps."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.under: Counter = Counter()  # (name, parent name) -> calls
        self.counters: Counter = Counter()

    def add(self, dump: dict) -> None:
        names = dump["names"]
        name, parent = dump["name"], dump["parent"]
        dur = [e - s for s, e in zip(dump["start"], dump["end"])]
        own = list(dur)
        for i, pi in enumerate(parent):
            if pi >= 0:
                own[pi] -= dur[i]
        for i, nid in enumerate(name):
            nm = names[nid]
            self.calls[nm] += 1
            self.self_s[nm] += own[i]
            if parent[i] >= 0:
                self.under[(nm, names[name[parent[i]]])] += 1
        self.counters.update(dump["counters"])

    def by_module(self) -> dict[str, tuple[int, float]]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for nm, calls in self.calls.items():
            mod = nm.split(".", 1)[0]
            out[mod][0] += calls
            out[mod][1] += self.self_s[nm]
        return {k: (v[0], v[1]) for k, v in out.items()}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (name, unit, better); order is the report order
PER_LAYER = (
    ("bondage.calls", "count", "lower"),
    ("bondage.self_s", "s", "lower"),
    ("bondage.matching_calls", "count", "lower"),
    ("bondage.matching_s", "s", "lower"),
    ("bondage.unknown_frac", "ratio", "lower"),
    ("bondage.solver_calls_per_call", "count", "lower"),
    ("domination.gamma_t_calls", "count", "lower"),
    ("domination.gamma_t_s", "s", "lower"),
    ("domination.exists_cover_calls", "count", "lower"),
    ("domination.exists_cover_s", "s", "lower"),
    ("witnesses.self_s", "s", "lower"),
    ("witnesses.reports", "count", "higher"),
    ("witnesses.gamma_calls_per_report", "count", "lower"),
    ("planar.is_planar_calls", "count", "lower"),
    ("planar.is_planar_s", "s", "lower"),
    ("planar.embedding_calls", "count", "lower"),
    ("planar.embedding_s", "s", "lower"),
    ("planar.detect_s", "s", "lower"),
    ("planar.discharge_s", "s", "lower"),
    ("embedding.from_rotation_s", "s", "lower"),
    ("formats.decode_calls", "count", "lower"),
    ("formats.decode_s", "s", "lower"),
    ("formats.encode_calls", "count", "lower"),
    ("formats.encode_s", "s", "lower"),
    ("formats.bytes_in", "bytes", "lower"),
    ("trees.enumerate_s", "s", "lower"),
    ("trees.graphs", "count", "higher"),
    ("smallgraphs.isomorphic_calls", "count", "lower"),
    ("smallgraphs.isomorphic_s", "s", "lower"),
    ("campaigns.evaluate_calls", "count", "lower"),
    ("campaigns.self_s", "s", "lower"),
    ("campaigns.budget_skips", "count", "lower"),
    ("campaigns.hypothesis_skips", "count", "lower"),
    ("graphs.girth_s", "s", "lower"),
    ("graphs.distance_s", "s", "lower"),
    ("corpus.build_s", "s", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("import.totbond_s", "s", "lower"),
    ("import.networkx_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(t: SpanTotals, imports: dict[str, float], corpus_s: float,
                  overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER values of one traced repetition."""
    c, s, n = t.counters, t.self_s, t.calls
    bondage_calls = n["bondage.bondage"]
    reports = c["witnesses.reports"]
    values = {
        "bondage.calls": bondage_calls,
        "bondage.self_s": s["bondage.bondage"],
        "bondage.matching_calls": n["bondage.matching"],
        "bondage.matching_s": s["bondage.matching"],
        "bondage.unknown_frac": _ratio(c["bondage.unknown"], bondage_calls),
        "bondage.solver_calls_per_call": _ratio(
            t.under[("domination.exists_cover", "bondage.bondage")], bondage_calls),
        "domination.gamma_t_calls": n["domination.gamma_t"],
        "domination.gamma_t_s": s["domination.gamma_t"],
        "domination.exists_cover_calls": n["domination.exists_cover"],
        "domination.exists_cover_s": s["domination.exists_cover"],
        "witnesses.self_s": s["witnesses.scan"],
        "witnesses.reports": reports,
        "witnesses.gamma_calls_per_report": _ratio(
            t.under[("domination.gamma_t", "witnesses.scan")], reports),
        "planar.is_planar_calls": n["planar.is_planar"],
        "planar.is_planar_s": s["planar.is_planar"],
        "planar.embedding_calls": n["planar.embedding"],
        "planar.embedding_s": s["planar.embedding"],
        "planar.detect_s": s["planar.detect"],
        "planar.discharge_s": s["planar.discharge"],
        "embedding.from_rotation_s": s["embedding.from_rotation"],
        "formats.decode_calls": n["formats.decode"],
        "formats.decode_s": s["formats.decode"] + s["formats.read_graphs"],
        "formats.encode_calls": n["formats.encode"],
        "formats.encode_s": s["formats.encode"],
        "formats.bytes_in": c["formats.bytes_in"],
        "trees.enumerate_s": s["trees.enumerate"],
        "trees.graphs": c["trees.enumerate.items"],
        "smallgraphs.isomorphic_calls": n["smallgraphs.is_isomorphic"],
        "smallgraphs.isomorphic_s": s["smallgraphs.is_isomorphic"],
        "campaigns.evaluate_calls": n["campaigns.evaluate"],
        "campaigns.self_s": s["campaigns.evaluate"] + s["campaigns.run_campaign"],
        "campaigns.budget_skips": c["campaigns.budget_skips"],
        "campaigns.hypothesis_skips": c["campaigns.hypothesis_skips"],
        "graphs.girth_s": s["graphs.girth"],
        "graphs.distance_s": s["graphs.distance"],
        "corpus.build_s": corpus_s,
        "cli.load_s": s["cli.load"],
        "cli.self_s": s["cli.main"],
        "import.totbond_s": imports.get("totbond", 0.0),
        "import.networkx_s": imports.get("networkx", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    if set(values) != {name for name, _, _ in PER_LAYER}:
        raise RuntimeError("per-layer values and PER_LAYER disagree")
    return values
