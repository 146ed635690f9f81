"""Rebuild bench/reference.json: the decided answers the checker compares to.

Usage: python3 bench/make_reference.py

Runs every workload once on its full, identity-labelled inputs through
``totbond.cli.main`` in this process, stores the answers by corpus
index, then checks those outputs with the benchmark's own checker,
which replays every certificate and cross-checks inputs with n <= 7
against ``tests/oracles.py``.  The gamma_t values of the frontier graphs
(past the gamma-t inputs) are solved one by one under an alarm of
FRONTIER_TIMEOUT_S; values already in an existing reference.json are
kept, and a graph that runs out of time has no reference value.  Run it only on a commit whose
answers are trusted: the reference defines ``correct`` for later ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads as wl  # noqa: E402
from check import fields, tail  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
# seconds per frontier graph before it is left without a reference value
FRONTIER_TIMEOUT_S = 120
# the bound each campaign theorem states for a graph, as in
# campaigns.evaluate_theorem.  A budget-skip record does not print it, and
# the checker needs it to judge a graph that a later commit decides.  It
# is checked against every decided record of the reference run.
THEOREM_BOUNDS = {wl.PLANAR: lambda g: min(g.max_degree() + 8, 10)}


def cli(argv: list[str]) -> str:
    import totbond.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        totbond.cli.main(argv)
    return buf.getvalue()


def outcome(rec: dict) -> str:
    if rec["status"] == "skipped":
        return f"skipped:{rec['reason']}"
    return f"{rec['status']}:{rec['b_t']}"


def campaign_reference(workload: str, text: str, exp) -> dict:
    from totbond.domination import gamma_t

    size = len(exp)
    ref = {"outcome": [None] * size, "bound": [None] * size, "gamma_t": [None] * size}
    records = [fields(ln) for ln in text.splitlines() if ln.startswith("RECORD ")]
    theorem_bound = THEOREM_BOUNDS.get(workload)
    for pos, (rec, i) in enumerate(zip(records, exp.index, strict=True)):
        g = exp.graph(pos)
        ref["outcome"][i] = outcome(rec)
        if "bound" in rec:
            ref["bound"][i] = int(rec["bound"])
            if theorem_bound is not None and theorem_bound(g) != ref["bound"][i]:
                raise SystemExit(f"{workload}: THEOREM_BOUNDS disagrees with graph {i}")
        elif ref["outcome"][i] == check.BUDGET_SKIP:
            if theorem_bound is None:
                raise SystemExit(f"{workload}: a budget skip, but no THEOREM_BOUNDS entry")
            ref["bound"][i] = theorem_bound(g)
        ref["gamma_t"][i] = gamma_t(g).value
    return ref


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def frontier_values(exp, known: dict) -> dict[int, int | None]:
    from totbond.domination import gamma_t

    signal.signal(signal.SIGALRM, _alarm)
    out: dict[int, int | None] = {}
    for pos, i in enumerate(exp.index):
        if known.get(i) is not None:
            out[i] = known[i]
            continue
        signal.alarm(FRONTIER_TIMEOUT_S)
        try:
            out[i] = gamma_t(exp.graph(pos)).value
        except _Timeout:
            out[i] = None
        finally:
            signal.alarm(0)
        print(f"frontier graph {i} n={exp.orders[pos]}: {out[i]}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    old = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            old = json.load(fh)
    ref: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        work = {w: wl.Workload(w, wl.FULL, None) for w in wl.WORKLOADS}
        files = {w: work[w].write(0, 0, tmp) for w in wl.WORKLOADS if w != wl.TREES}
        texts = {w: [cli(argv) for _, argv, _ in work[w].calls(files.get(w, {}))]
                 for w in wl.WORKLOADS}

        tree_g6 = [fields(ln)["graph"] for ln in texts[wl.TREES][0].splitlines()
                   if ln.startswith("RECORD ")]
        trees = wl.Expected(tree_g6, list(range(len(tree_g6))), [wl.graph6_order(s) for s in tree_g6])
        files[wl.TREES] = {"campaign": trees}
        ref[wl.TREES] = {"graph6": tree_g6,
                         **campaign_reference(wl.TREES, texts[wl.TREES][0], trees)}
        ref[wl.PLANAR] = {"corpus_sha256": work[wl.PLANAR].digest,
                          **campaign_reference(wl.PLANAR, texts[wl.PLANAR][0],
                                              files[wl.PLANAR]["campaign"])}

        size = len(work[wl.GAMMA].graphs)
        digest = work[wl.GAMMA].digest
        gamma: list = [None] * size
        gf = files[wl.GAMMA]["gamma-t"]
        for ln, i in zip(texts[wl.GAMMA][0].splitlines(), gf.index, strict=True):
            gamma[i] = int(fields(ln)["gamma_t"])
        old_gamma = old.get(wl.GAMMA, {})
        known = (dict(enumerate(old_gamma["gamma_t"]))
                 if old_gamma.get("corpus_sha256") == digest else {})
        gamma_ext = frontier_values(files[wl.GAMMA]["frontier"], known)
        for i, v in gamma_ext.items():
            gamma[i] = v
        scan: list = [None] * size
        wf = files[wl.GAMMA]["witness"]
        pos = dict(zip(wf.graph6, wf.index))
        for i in wf.index:
            scan[i] = {}
        for ln in texts[wl.GAMMA][1].splitlines():
            rec = fields(ln)
            counts = scan[pos[rec["graph"]]]
            counts[rec["rule"]] = counts.get(rec["rule"], 0) + 1
        ref[wl.GAMMA] = {"corpus_sha256": digest, "gamma_t": gamma, "scan": scan}

        # detect records carry no labels once graph= is dropped, so the
        # relabelled later parts serve as well as the first
        det_ref: list = [None] * size
        dis_ref: list = [None] * size
        parts = [(files[wl.DETECT], texts[wl.DETECT])]
        for part in range(1, wl.DETECT_PARTS):
            f = work[wl.DETECT].write(0, part, tmp)
            parts.append((f, [cli(argv) for _, argv, _ in work[wl.DETECT].calls(f)]))
        for f, (det, dis) in parts:
            det, dis = det.splitlines(), dis.splitlines()
            for p, i in enumerate(f["detect"].index):
                det_ref[i] = [tail(ln) for ln in det[2 * p:2 * p + 2]]
                dis_ref[i] = [tail(dis[p])]
        ref[wl.DETECT] = {"corpus_sha256": digest, "detect": det_ref, "discharge": dis_ref}

        problems = self_check(ref, work, files, texts)
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def self_check(ref: dict, work: dict, files: dict, texts: dict) -> list[str]:
    """Run the checker over the reference run's own outputs."""
    checker = check.Checker(ref, ROOT)
    verdicts = []
    for w in (wl.TREES, wl.PLANAR):
        verdicts.append(checker.campaign(w, texts[w][0], files[w]["campaign"]))
    verdicts.append(checker.gamma(texts[wl.GAMMA][0], files[wl.GAMMA]["gamma-t"]))
    verdicts.append(checker.witness(texts[wl.GAMMA][1], files[wl.GAMMA]["witness"]))
    if any(r is None for r in ref[wl.DETECT]["detect"]):
        return ["detect-girth4: a corpus graph has no reference record"]
    return [p for v in verdicts for p in v.problems]


if __name__ == "__main__":
    sys.exit(main())
