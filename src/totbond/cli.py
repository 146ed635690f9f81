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
from .embedding import Embedding
from .families import FamilySpec, cycle, path
from .formats import FormatError, edges_text, graph6_bytes, parse_graphs, read_graphs
from .graphs import Graph, IsolatedVertexError
from .trees import check_tree_order, enumerate_trees
from .witnesses import (
    RULES,
    apply_rule,
    check_anchor_count,
    scan_witnesses,
    witness_multipartite,
)

_RANGE = re.compile(r"^(paths|cycles|trees):(\d+)\.\.(\d+)$")
# the members of order n of each range kind; each looks its function up at
# call time, so a wrapper installed on the module name (bench/tracing.py)
# sees every call
_RANGE_MEMBERS = {
    "paths": lambda n: [path(n)],
    "cycles": lambda n: [cycle(n)],
    "trees": lambda n: enumerate_trees(n),
}

_BUDGET_HELP = (
    "max edge subsets of the bondage sweep to examine, in sweep order; subsets "
    "in blocks the search rules out without a visit count too, so the budget "
    "stops the search where a subset-by-subset sweep would stop"
)


def _g6(g: Graph) -> str:
    return graph6_bytes(g).decode("ascii")


def _slug(exc: BaseException) -> str:
    return str(exc).replace(" ", "-")


def _malformed(path: str, exc: FormatError) -> SystemExit:
    """A one-line exit naming the file, and the line of a bad graph6 record."""
    line = f", line {exc.line}" if exc.line is not None else ""
    return SystemExit(f"malformed input {path!r}{line}: {exc}")


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
        try:
            if kind == "trees":
                # the whole range, before any order of it is enumerated
                check_tree_order(lo)
                check_tree_order(hi)
            for n in range(lo, hi + 1):
                out.extend(_RANGE_MEMBERS[kind](n))
        except ValueError as exc:  # an order the family does not have
            raise SystemExit(f"{exc} in corpus spec {src!r}") from None
        return out
    if os.path.exists(src):
        return _load_inputs(src)
    raise SystemExit(f"no such corpus or file: {src!r}")


def _read_inputs(path: str) -> list[Graph] | list[Embedding]:
    """Graphs from a file or stdin ("-"), or a planar_code input's embeddings."""
    if path != "-" and not os.path.exists(path):
        raise SystemExit(f"no such input file: {path!r}")
    try:
        if path == "-":
            return parse_graphs(sys.stdin.buffer.read())
        return read_graphs(path)
    except FormatError as exc:
        raise _malformed(path, exc) from None


def _load_inputs(path: str) -> list[Graph]:
    return [x.graph if isinstance(x, Embedding) else x for x in _read_inputs(path)]


def _cmd_gen(args: argparse.Namespace) -> int:
    graphs: list[Graph] = []
    if args.family:
        try:
            graphs.append(FamilySpec.parse(args.family).build())
        except ValueError as exc:  # an unknown tag or a bad parameter
            raise SystemExit(f"--family: {exc}") from None
    if args.trees is not None:
        try:
            graphs.extend(enumerate_trees(args.trees))
        except ValueError as exc:  # an order below 1 or above the cap
            raise SystemExit(f"--trees: {exc}") from None
    if args.classes is not None:
        from .smallgraphs import enumerate_graph_classes

        try:
            graphs.extend(
                enumerate_graph_classes(
                    args.classes,
                    triangle_free=args.triangle_free,
                    require_planar=args.planar,
                    max_edges=args.max_edges,
                )
            )
        except ValueError as exc:  # an order below 1 or above the cap
            raise SystemExit(f"--classes: {exc}") from None
    if args.corpus:
        graphs.extend(resolve_corpus(args.corpus))
    if not graphs:
        raise SystemExit("nothing to generate: pass --family/--trees/--classes/--corpus")
    for g in graphs:
        print(_g6(g))
    return 0


def _cmd_gamma_t(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        try:
            cert = gamma_t(g)
        except IsolatedVertexError:
            print(f"GAMMA graph={_g6(g)} n={g.n} m={g.m} error=isolated-vertex")
            continue
        witness = ",".join(str(v) for v in sorted(cert.witness)) or "-"
        print(f"GAMMA graph={_g6(g)} n={g.n} m={g.m} gamma_t={cert.value} witness={witness}")
    return 0


def _fmt_inf(x) -> str:
    return "inf" if x == math.inf else str(x)


def _cmd_bondage(args: argparse.Namespace) -> int:
    for g in _load_inputs(args.input):
        try:
            cert = bondage(g, cap=args.cap, work_budget=args.work_budget)
        except IsolatedVertexError:
            print(f"BONDAGE graph={_g6(g)} n={g.n} m={g.m} error=isolated-vertex")
            continue
        parts = [
            f"BONDAGE graph={_g6(g)}",
            f"n={g.n}",
            f"m={g.m}",
            f"status={cert.status}",
            f"gamma_before={cert.gamma_before}",
        ]
        if cert.status == "finite":
            ws = edges_text(cert.witness)
            parts += [f"b_t={cert.b_t}", f"witness={ws}", f"gamma_after={cert.gamma_after}"]
        elif cert.status == "infinite":
            parts += ["b_t=inf", f"criterion={cert.criterion.replace(' ', '-')}"]
        else:
            parts += [f"cap={cert.cap}"]
        print(" ".join(parts))
    return 0


def _ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"{flag} takes comma-separated integers, got {text!r}") from None


def _cmd_witness(args: argparse.Namespace) -> int:
    def emit(report) -> None:
        anchors = ",".join(str(v) for v in report.anchors) or "-"
        print(
            f"WITNESS rule={report.rule} graph={report.graph6} anchors={anchors} "
            f"verdict={report.verdict} claimed={report.claimed_bound} "
            f"observed={report.observed_size} gamma_before={report.gamma_before} "
            f"gamma_after={report.gamma_after} edges={edges_text(report.edges)}"
            + (f" reason={report.reason.replace(' ', '-')}" if report.reason else "")
        )

    # every flag is checked before any input is read or any record printed
    rules = args.rules.split(",") if args.rules else None
    for rule in rules or ():
        if rule not in RULES:
            raise SystemExit(f"unknown witness rule {rule!r}")
    anchors = _ints("--anchors", args.anchors) if args.anchors else None
    parts = _ints("--parts", args.parts) if args.parts else None
    if args.rule == "multipartite":
        if not parts:
            raise SystemExit("multipartite rule needs --parts like 3,2,2")
        try:
            _, report = witness_multipartite(parts)
        except ValueError as exc:
            raise SystemExit(f"--parts {args.parts!r}: {exc}") from None
        emit(report)
        return 0
    if not args.scan and args.rule and anchors:
        try:
            check_anchor_count(args.rule, anchors)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    graphs = _load_inputs(args.input) if args.input else []
    if not graphs:
        raise SystemExit("witness needs an input file (or --rule multipartite --parts ...)")
    if not args.scan and not (args.rule and anchors):
        raise SystemExit("pass --scan, or --rule with --anchors")
    for g in graphs:
        if args.scan:
            for report in scan_witnesses(g, rules):
                emit(report)
        else:
            try:
                emit(apply_rule(g, args.rule, anchors))
            except ValueError as exc:  # an anchor out of range for this graph
                print(f"WITNESS rule={args.rule} graph={_g6(g)} n={g.n} m={g.m} error={_slug(exc)}")
    return 0


def _load_with_embeddings(path: str):
    """Pairs (graph, embedding); planar_code input keeps its own rotations."""
    from .planar import planar_embedding

    return [
        (x.graph, x) if isinstance(x, Embedding) else (x, planar_embedding(x))
        for x in _read_inputs(path)
    ]


def _cmd_detect(args: argparse.Namespace) -> int:
    from .planar import detect_borodin, detect_girth4_config

    rules = args.rules.split(",")
    for rule in rules:
        if rule not in ("g4", "borodin"):
            raise SystemExit(f"unknown detect rule {rule!r}")
    if "borodin" in rules:
        pairs = _load_with_embeddings(args.input)
    else:  # g4 reads degrees only
        pairs = [(g, None) for g in _load_inputs(args.input)]
    for g, emb in pairs:
        g6 = _g6(g)
        for rule in rules:
            if rule == "g4":
                try:
                    report = detect_girth4_config(g)
                except ValueError as exc:
                    print(f"DETECT rule=g4 graph={g6} error={_slug(exc)}")
                    continue
                found = ",".join(report.tags) or "-"
                print(
                    f"DETECT rule=g4 graph={g6} n={g.n} m={g.m} "
                    f"found={found} at_least_one={str(report.at_least_one).lower()}"
                )
            else:
                if emb is None:
                    print(f"DETECT rule=borodin graph={g6} error=not-planar")
                    continue
                try:
                    report = detect_borodin(emb, args.reading)
                except ValueError as exc:
                    print(f"DETECT rule=borodin graph={g6} error={_slug(exc)}")
                    continue
                found = ",".join(report.tags) or "-"
                print(
                    f"DETECT rule=borodin graph={g6} n={g.n} m={g.m} "
                    f"reading={args.reading} found={found} "
                    f"at_least_one={str(report.at_least_one).lower()} "
                    f"skipped_faces={len(report.skipped_faces)}"
                )
    return 0


def _cmd_discharge(args: argparse.Namespace) -> int:
    from .planar import charge_ledger, discharge_audit

    for g, emb in _load_with_embeddings(args.input):
        if emb is None:
            print(f"DISCHARGE graph={_g6(g)} error=not-planar")
            continue
        try:
            ledger = discharge_audit(emb)
            rule = (
                f" total_final={ledger.total_final}"
                f" transfers={len(ledger.transfers)}"
                f" negative_final={str(ledger.has_negative_final).lower()}"
            )
        except ValueError:  # min degree below 3 or girth below 4
            ledger = charge_ledger(emb)
            rule = " rule=not-applicable"
        print(
            f"DISCHARGE graph={_g6(g)} n={g.n} m={g.m} faces={len(emb.faces)} "
            f"total_initial={ledger.total_initial}" + rule
        )
        if args.full:
            for v, ci in enumerate(ledger.vertex_initial):
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
        try:
            checks = verify_prior_bounds(g, work_budget=args.work_budget)
        except IsolatedVertexError:
            print(f"BOUNDS graph={_g6(g)} n={g.n} m={g.m} error=isolated-vertex")
            continue
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
    p.add_argument("--work-budget", type=int, help=_BUDGET_HELP)
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
    p.add_argument("--work-budget", type=int, help=_BUDGET_HELP)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("search", help="find corpus graphs with a given bondage number")
    p.add_argument("--bt", type=int, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--work-budget", type=int, help=_BUDGET_HELP)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="check published bounds against exact values")
    p.add_argument("input")
    p.add_argument("--work-budget", type=int, help=_BUDGET_HELP)
    p.set_defaults(func=_cmd_bounds)

    args = parser.parse_args(argv)
    for flag, least in (("cap", 0), ("work_budget", 0), ("jobs", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise SystemExit(f"--{flag.replace('_', '-')}: must be at least {least}, got {value}")
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except BrokenPipeError:
        # the reader stopped early (`| head`): end quietly with the status
        # a shell reports for a tool that SIGPIPE (13) ends, and give the
        # exit-time flush a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return status


if __name__ == "__main__":
    sys.exit(main())
