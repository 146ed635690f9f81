"""Command line front end.

Verbs: gen, gamma-t, bondage, witness, detect, discharge, campaign,
search, bounds.  All output is line-oriented text records keyed by full
graph6 strings so any line can be replayed.  Campaign runs exit with
status 1 when a claim is violated.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .bondage import bondage
from .campaigns import (
    THEOREM_TAGS,
    run_campaign,
    search_by_bondage,
    verify_prior_bounds,
)
from .corpus import girth4_corpus, planar_min3_corpus
from .domination import gamma_t
from .families import FamilySpec
from .formats import graph6_bytes, parse_graphs, read_embeddings, read_graphs
from .graphs import Graph
from .trees import enumerate_trees
from .witnesses import (
    RULES,
    apply_rule,
    scan_witnesses,
    witness_multipartite,
)

_RANGE = re.compile(r"^(paths|cycles|trees):(\d+)\.\.(\d+)$")


def _g6(g: Graph) -> str:
    return graph6_bytes(g).decode("ascii")


def _slug(exc: BaseException) -> str:
    return str(exc).replace(" ", "-")


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("TOTBOND_JOBS", "1")))
    except ValueError:
        return 1


def resolve_corpus(src: str) -> list[Graph]:
    """Corpus names, family ranges like paths:4..12, or graph files."""
    if src == "girth4":
        return girth4_corpus()
    if src == "planar-min3":
        return planar_min3_corpus()
    m = _RANGE.match(src)
    if m:
        kind, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        if hi < lo:
            raise SystemExit(f"empty range in corpus spec {src!r}")
        out: list[Graph] = []
        for n in range(lo, hi + 1):
            if kind == "paths":
                out.append(FamilySpec.parse(f"path:{n}").build())
            elif kind == "cycles":
                out.append(FamilySpec.parse(f"cycle:{n}").build())
            else:
                out.extend(enumerate_trees(n))
        return out
    if os.path.exists(src):
        return list(read_graphs(src))
    raise SystemExit(f"no such corpus or file: {src!r}")


def _load_inputs(path: str) -> list[Graph]:
    if path == "-":
        return parse_graphs(sys.stdin.buffer.read())
    if not os.path.exists(path):
        raise SystemExit(f"no such input file: {path!r}")
    return list(read_graphs(path))


def _cmd_gen(args: argparse.Namespace) -> int:
    graphs: list[Graph] = []
    if args.family:
        graphs.append(FamilySpec.parse(args.family).build())
    if args.trees is not None:
        graphs.extend(enumerate_trees(args.trees))
    if args.classes is not None:
        from .smallgraphs import enumerate_graph_classes

        graphs.extend(
            enumerate_graph_classes(
                args.classes,
                triangle_free=args.triangle_free,
                require_planar=args.planar,
                max_edges=args.max_edges,
            )
        )
    if args.corpus:
        graphs.extend(resolve_corpus(args.corpus))
    if not graphs:
        raise SystemExit("nothing to generate: pass --family/--trees/--classes/--corpus")
    for g in graphs:
        print(_g6(g))
    return 0


def _cmd_gamma_t(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        cert = gamma_t(g)
        witness = ",".join(str(v) for v in sorted(cert.witness)) or "-"
        print(f"GAMMA graph={_g6(g)} n={g.n} m={g.m} gamma_t={cert.value} witness={witness}")
    return 0


def _fmt_inf(x) -> str:
    return "inf" if x == math.inf else str(x)


def _cmd_bondage(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        cert = bondage(g, cap=args.cap, work_budget=args.work_budget)
        parts = [
            f"BONDAGE graph={_g6(g)}",
            f"n={g.n}",
            f"m={g.m}",
            f"status={cert.status}",
            f"gamma_before={cert.gamma_before}",
        ]
        if cert.status == "finite":
            ws = ",".join(f"{u}-{v}" for u, v in sorted(cert.witness))
            parts += [f"b_t={cert.b_t}", f"witness={ws}", f"gamma_after={cert.gamma_after}"]
        elif cert.status == "infinite":
            parts += ["b_t=inf", f"criterion={cert.criterion.replace(' ', '-')}"]
        else:
            parts += [f"cap={cert.cap}"]
        print(" ".join(parts))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    def emit(report) -> None:
        anchors = ",".join(str(v) for v in report.anchors) or "-"
        edges = ",".join(f"{u}-{v}" for u, v in sorted(report.edges)) or "-"
        print(
            f"WITNESS rule={report.rule} graph={report.graph6} anchors={anchors} "
            f"verdict={report.verdict} claimed={report.claimed_bound} "
            f"observed={report.observed_size} gamma_before={report.gamma_before} "
            f"gamma_after={report.gamma_after} edges={edges}"
            + (f" reason={report.reason.replace(' ', '-')}" if report.reason else "")
        )

    if args.rule == "multipartite":
        if not args.parts:
            raise SystemExit("multipartite rule needs --parts like 3,2,2")
        sizes = tuple(int(x) for x in args.parts.split(","))
        _, report = witness_multipartite(sizes)
        emit(report)
        return 0
    graphs = _load_inputs(args.input) if args.input else []
    if not graphs:
        raise SystemExit("witness needs an input file (or --rule multipartite --parts ...)")
    for g in graphs:
        if args.scan:
            rules = args.rules.split(",") if args.rules else None
            for report in scan_witnesses(g, rules):
                emit(report)
        else:
            if not args.rule or not args.anchors:
                raise SystemExit("pass --scan, or --rule with --anchors")
            anchors = tuple(int(x) for x in args.anchors.split(","))
            try:
                emit(apply_rule(g, args.rule, anchors))
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
    return 0


def _load_with_embeddings(path: str):
    """Pairs (graph, embedding); planar_code files carry their own."""
    from .planar import planar_embedding

    if path.endswith((".pc", ".plc")):
        if not os.path.exists(path):
            raise SystemExit(f"no such input file: {path!r}")
        return [(emb.graph, emb) for emb in read_embeddings(path)]
    return [(g, planar_embedding(g)) for g in _load_inputs(path)]


def _cmd_detect(args: argparse.Namespace) -> int:
    from .planar import detect_borodin, detect_girth4_config

    rules = args.rules.split(",")
    for g, emb in _load_with_embeddings(args.input):
        for rule in rules:
            if rule == "g4":
                try:
                    report = detect_girth4_config(g)
                except ValueError as exc:
                    print(f"DETECT rule=g4 graph={_g6(g)} error={_slug(exc)}")
                    continue
                found = ",".join(report.tags) or "-"
                print(
                    f"DETECT rule=g4 graph={_g6(g)} n={g.n} m={g.m} "
                    f"found={found} at_least_one={str(report.at_least_one).lower()}"
                )
            elif rule == "borodin":
                if emb is None:
                    print(f"DETECT rule=borodin graph={_g6(g)} error=not-planar")
                    continue
                try:
                    report = detect_borodin(g, emb, args.reading)
                except ValueError as exc:
                    print(f"DETECT rule=borodin graph={_g6(g)} error={_slug(exc)}")
                    continue
                found = ",".join(report.tags) or "-"
                print(
                    f"DETECT rule=borodin graph={_g6(g)} n={g.n} m={g.m} "
                    f"reading={args.reading} found={found} "
                    f"at_least_one={str(report.at_least_one).lower()} "
                    f"skipped_faces={len(report.skipped_faces)}"
                )
            else:
                raise SystemExit(f"unknown detect rule {rule!r}")
    return 0


def _cmd_discharge(args: argparse.Namespace) -> int:
    from .planar import charge_ledger, discharge_audit

    for g, emb in _load_with_embeddings(args.input):
        if emb is None:
            print(f"DISCHARGE graph={_g6(g)} error=not-planar")
            continue
        base = charge_ledger(g, emb)
        line = (
            f"DISCHARGE graph={_g6(g)} n={g.n} m={g.m} faces={len(emb.faces)} "
            f"total_initial={base.total_initial}"
        )
        if g.min_degree() >= 3 and g.girth() >= 4:
            audit = discharge_audit(g, emb)
            line += (
                f" total_final={audit.total_final}"
                f" transfers={len(audit.transfers)}"
                f" negative_final={str(audit.has_negative_final).lower()}"
            )
        else:
            line += " rule=not-applicable"
        print(line)
        if args.full:
            for v, ci in enumerate(base.vertex_initial):
                print(f"  vertex={v} initial={ci}")
            for i, face in enumerate(emb.faces):
                print(f"  face={i} length={len(face)} initial={len(face) - 4}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    corpus = resolve_corpus(args.corpus)
    result = run_campaign(
        args.theorem, corpus, work_budget=args.work_budget, jobs=args.jobs
    )
    for line in result.records():
        print(line)
    return 1 if result.violations else 0


def _cmd_search(args: argparse.Namespace) -> int:
    corpus = resolve_corpus(args.corpus)
    rows = search_by_bondage(corpus, args.bt, work_budget=args.work_budget, jobs=args.jobs)
    for row in rows:
        print(row.record())
    print(f"SUMMARY search=bt target={args.bt} corpus={len(corpus)} matches={len(rows)}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        checks = verify_prior_bounds(g, work_budget=args.work_budget)
        rendered = " ".join(
            f"{c.name}={c.status}"
            + (f":{c.bound}" if c.bound is not None else "")
            for c in checks
        )
        bval = checks[0].b_t
        print(f"BOUNDS graph={_g6(g)} n={g.n} m={g.m} b_t={_fmt_inf(bval) if bval is not None else 'undecided'} {rendered}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="totbond",
        description="Total domination and total bondage: exact solvers, witnesses, campaigns.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit graphs as graph6 lines")
    p.add_argument("--family", help="family spec like path:7 or complete-bipartite:2,3")
    p.add_argument("--trees", type=int, help="all free trees on N vertices")
    p.add_argument("--classes", type=int, help="all isomorphism classes on N vertices")
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--planar", action="store_true")
    p.add_argument("--max-edges", type=int)
    p.add_argument("--corpus", help="girth4 | planar-min3 | paths:A..B | cycles:A..B | trees:A..B | file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gamma-t", help="exact total domination numbers")
    p.add_argument("input", help="graph file (graph6 or edge list), or - for stdin")
    p.set_defaults(func=_cmd_gamma_t)

    p = sub.add_parser("bondage", help="exact total bondage numbers with certificates")
    p.add_argument("input")
    p.add_argument("--cap", type=int, help="largest deletion size to search")
    p.add_argument("--work-budget", type=int, help="max candidate subsets to examine")
    p.set_defaults(func=_cmd_bondage)

    p = sub.add_parser("witness", help="build and replay bondage edge-set witnesses")
    p.add_argument("input", nargs="?", help="graph file; omit for --rule multipartite")
    p.add_argument("--rule", choices=RULES)
    p.add_argument("--anchors", help="comma-separated vertex ids")
    p.add_argument("--parts", help="part sizes for the multipartite rule, like 3,2,2")
    p.add_argument("--scan", action="store_true", help="apply every matching rule everywhere")
    p.add_argument("--rules", help="comma-separated rule subset for --scan")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("detect", help="unavoidable-configuration detectors")
    p.add_argument("input")
    p.add_argument("--rules", default="g4,borodin")
    p.add_argument("--reading", choices=("at-most", "exact"), default="at-most")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("discharge", help="balanced-charging ledgers and rule audit")
    p.add_argument("input")
    p.add_argument("--full", action="store_true", help="dump per-vertex and per-face rows")
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("campaign", help="verify a tagged claim over a corpus")
    p.add_argument("--theorem", required=True, choices=THEOREM_TAGS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--work-budget", type=int)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("search", help="find corpus graphs with a given bondage number")
    p.add_argument("--bt", type=int, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--work-budget", type=int)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="check published bounds against exact values")
    p.add_argument("input")
    p.add_argument("--work-budget", type=int)
    p.set_defaults(func=_cmd_bounds)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
