"""Checks CLI output against reference answers and replays certificates.

Every graph the CLI was given is checked once per distinct output:

* decided values must equal the reference answers of the seed commit
  (``reference.json``, keyed by corpus index, so they serve relabelled
  seeds);
* every gamma witness must be a total dominating set of the stated size;
* every bondage witness must delete existing edges only, leave no
  isolated vertex, and raise gamma_t above gamma_before;
* every witness-scan verdict is replayed;
* inputs with n <= 7 are cross-checked against the brute-force oracles
  of ``tests/oracles.py``;
* a gamma_t value without a reference value (a frontier graph the
  reference run could not solve) must also be a lower bound: no total
  dominating set one vertex smaller may exist.

A graph the reference left budget-skipped that is now decided passes
when its certificate replays: a digit b_t with its witness, or b_t=inf
by the matching criterion 2*nu(G) <= gamma_t(G) that defines it.  A
``>cap`` verdict there has no certificate and fails; it claims that a
theorem is violated, which needs checking outside the benchmark and a
rebuilt reference.  A graph that is now budget-skipped but was decided
lowers ``judged``; it is not a failure.  A graph with a wrong value, a
failed replay, an error, or no record fails.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import dataclass, field

from totbond.bondage import max_matching_size
from totbond.domination import exists_total_dominating_set, is_total_dominating
from totbond.graphs import Graph, edge_key

ORACLE_MAX_N = 7
BUDGET_SKIP = "skipped:work-budget"
# seconds the checker may spend proving that a gamma_t value without a
# reference value is minimal; past that the graph counts as unsolved
LOWER_BOUND_LIMIT_S = 5.0
GAMMA = "gamma-girth4"
DETECT = "detect-girth4"

# what became of one graph: a decided answer, outside the claim's
# hypothesis (or the rule's domain), or not solved (budget, time, failure)
DECIDED = "decided"
OUT = "out"
UNSOLVED = "unsolved"


@dataclass
class Verdicts:
    """Per graph of one CLI call: its order, what became of it, and problems."""

    orders: list[int] = field(default_factory=list)
    states: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def add(self, n: int, state: str, problem: str | None) -> None:
        self.orders.append(n)
        self.states.append(state if problem is None else UNSOLVED)
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def extra(self, problem: str) -> None:
        """A problem with the output as a whole (extra lines, bad SUMMARY)."""
        self.failed += 1
        self.problems.append(problem)

    def extend(self, other: "Verdicts") -> None:
        self.orders += other.orders
        self.states += other.states
        self.problems += other.problems
        self.failed += other.failed

    @property
    def attempted(self) -> int:
        return len(self.orders)

    @property
    def judged(self) -> int:
        return self.states.count(DECIDED)

    def frontier(self) -> int:
        """Largest n such that no graph of order <= n is left unsolved."""
        bad = [n for n, s in zip(self.orders, self.states) if s == UNSOLVED]
        return min(bad) - 1 if bad else max(self.orders, default=0)


def fields(line: str) -> dict[str, str]:
    out = {"kind": line.split(" ", 1)[0]}
    for tok in line.split(" ")[1:]:
        k, _, v = tok.partition("=")
        out[k] = v
    return out


def tail(line: str) -> str:
    """A record without its graph= field: what is invariant under relabelling."""
    return " ".join(t for t in line.split(" ") if not t.startswith("graph="))


def _edges(text: str) -> list[tuple[int, int]]:
    if text in ("", "-"):
        return []
    return [edge_key(*map(int, e.split("-"))) for e in text.split(",")]


def replay_bondage(g: Graph, witness: str, size: int, gamma_before: int) -> str | None:
    """None when `witness` is a bondage set of `size` edges, else the reason."""
    try:
        b = _edges(witness)
    except (TypeError, ValueError):
        return f"unreadable witness {witness!r}"
    if len(set(b)) != size:
        return f"witness has {len(set(b))} edges, b_t says {size}"
    try:
        h = g.delete_edges(b)
    except ValueError as exc:
        return f"witness does not replay: {exc}"
    if h.has_isolated_vertex():
        return "witness isolates a vertex"
    if exists_total_dominating_set(h, gamma_before):
        return "witness does not raise gamma_t"
    return None


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def is_lower_bound(g: Graph, value: int, limit_s: float) -> bool | None:
    """Whether g has no total dominating set of value - 1 vertices; None
    when deciding that takes longer than limit_s."""
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return not exists_total_dominating_set(g, value - 1)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Checker:
    def __init__(self, reference: dict, root: str) -> None:
        self.ref = reference
        sys.path.insert(0, f"{root}/tests")
        import oracles

        self.oracles = oracles

    # -- campaigns -----------------------------------------------------

    def campaign(self, workload: str, text: str, exp) -> Verdicts:
        """RECORD lines in input order, then one SUMMARY line."""
        ref = self.ref[workload]
        lines = text.splitlines()
        records = [ln for ln in lines if ln.startswith("RECORD ")]
        out = Verdicts()
        for pos, i in enumerate(exp.index):
            if pos >= len(records):
                out.add(exp.orders[pos], UNSOLVED, f"graph {i}: no record")
                continue
            rec = fields(records[pos])
            if rec.get("graph") != exp.graph6[pos]:
                state, problem = UNSOLVED, f"record is for another graph ({rec.get('graph')})"
            else:
                state, problem = self._judge(rec, exp.graph(pos), ref["outcome"][i],
                                             ref["bound"][i], ref["gamma_t"][i])
            out.add(exp.orders[pos], state,
                    None if problem is None else f"graph {i} ({records[pos][:60]}...): {problem}")
        if len(records) > len(exp):
            out.extra(f"{len(records) - len(exp)} records beyond the inputs")
        summary = [ln for ln in lines if ln.startswith("SUMMARY ")]
        if len(summary) != 1 or not self._summary_ok(fields(summary[0]), records):
            out.extra(f"SUMMARY missing or inconsistent with the records: {summary}")
        return out

    @staticmethod
    def _summary_ok(s: dict, records: list[str]) -> bool:
        statuses = [fields(r).get("status") for r in records]
        return (s.get("checked") == str(len(records))
                and s.get("holds") == str(statuses.count("holds"))
                and s.get("violations") == str(statuses.count("violated"))
                and s.get("skipped") == str(statuses.count("skipped")))

    def _judge(self, rec: dict, g: Graph, ref_outcome: str, ref_bound, gamma: int):
        if rec.get("n") != str(g.n) or rec.get("m") != str(g.m):
            return UNSOLVED, "wrong n or m"
        status = rec.get("status")
        if status == "skipped":
            reason = rec.get("reason")
            if reason == "work-budget":
                return UNSOLVED, None
            if ref_outcome != f"skipped:{reason}":
                return UNSOLVED, f"skipped ({reason}), reference says {ref_outcome}"
            return OUT, None
        if ref_outcome.startswith("skipped:") and ref_outcome != BUDGET_SKIP:
            return UNSOLVED, f"judged a graph outside the hypothesis ({ref_outcome})"
        if status not in ("holds", "violated"):
            return UNSOLVED, f"unknown status {status!r}"
        if rec.get("bound") != str(ref_bound):
            return UNSOLVED, f"bound {rec.get('bound')}, reference {ref_bound}"
        b_t = rec.get("b_t", "")
        if not b_t.isdigit():
            # inf and >cap verdicts carry no witness
            if ref_outcome == f"{status}:{b_t}":
                return DECIDED, None
            if ref_outcome != BUDGET_SKIP:
                return UNSOLVED, f"{status}:{b_t}, reference {ref_outcome}"
            if b_t == "inf" and status == "violated":
                if 2 * max_matching_size(g) > gamma:
                    return UNSOLVED, "b_t=inf, but 2*nu(G) > gamma_t(G): a bondage set exists"
                return DECIDED, None
            return UNSOLVED, (f"{status}:{b_t} has no certificate to replay on a graph the "
                              "reference left undecided")
        k = int(b_t)
        if (k <= ref_bound) != (status == "holds"):
            return UNSOLVED, f"status {status} does not follow from b_t={k}, bound={ref_bound}"
        problem = replay_bondage(g, rec.get("witness", ""), k, gamma)
        if problem is not None:
            return UNSOLVED, problem
        # on a graph the reference left undecided the replay is the whole
        # check: it proves b_t <= k, which is what the verdict rests on
        if ref_outcome != BUDGET_SKIP and ref_outcome != f"{status}:{k}":
            return UNSOLVED, f"{status}:{k}, reference {ref_outcome}"
        if g.n <= ORACLE_MAX_N and self.oracles.brute_bondage(g, max_size=k)[0] != k:
            return UNSOLVED, f"the oracle disagrees with b_t={k}"
        return DECIDED, None

    # -- gamma-t ---------------------------------------------------------

    def gamma(self, text: str, exp, partial: bool = False) -> Verdicts:
        """GAMMA lines in input order; a killed frontier run may stop early.

        A graph without a reference value (past what the reference run
        could solve) passes when its witness replays and no smaller total
        dominating set exists.  When the checker cannot decide the latter
        within LOWER_BOUND_LIMIT_S, the graph counts as unsolved.
        """
        ref = self.ref[GAMMA]["gamma_t"]
        lines = text.splitlines()
        out = Verdicts()
        for pos, i in enumerate(exp.index):
            if pos >= len(lines):
                if not partial:
                    out.add(exp.orders[pos], UNSOLVED, f"graph {i}: no record")
                continue
            rec = fields(lines[pos])
            problem = None
            state = DECIDED
            if rec["kind"] != "GAMMA" or rec.get("graph") != exp.graph6[pos]:
                problem = "record is for another graph"
            else:
                g = exp.graph(pos)
                try:
                    value = int(rec["gamma_t"])
                    w = [] if rec["witness"] == "-" else [int(v) for v in rec["witness"].split(",")]
                    dominating = is_total_dominating(g, w)
                except (KeyError, ValueError):
                    value, w, dominating = -1, [], False
                if len(set(w)) != value or not dominating:
                    problem = f"witness {rec.get('witness')} is not a TDS of size {value}"
                elif ref[i] is not None and ref[i] != value:
                    problem = f"gamma_t {value}, reference {ref[i]}"
                elif g.n <= ORACLE_MAX_N and self.oracles.brute_gamma_t(g) != value:
                    problem = f"the oracle disagrees with gamma_t={value}"
                elif ref[i] is None:
                    minimal = is_lower_bound(g, value, LOWER_BOUND_LIMIT_S)
                    if minimal is None:
                        state = UNSOLVED
                    elif not minimal:
                        problem = f"gamma_t {value} is not minimal: a smaller TDS exists"
            out.add(exp.orders[pos], state, None if problem is None else f"graph {i}: {problem}")
        if len(lines) > len(exp):
            out.extra("records beyond the inputs")
        return out

    # -- witness scan ----------------------------------------------------

    def witness(self, text: str, exp) -> Verdicts:
        """WITNESS lines grouped by graph, replayed one by one."""
        ref_gamma = self.ref[GAMMA]["gamma_t"]
        ref_scan = self.ref[GAMMA]["scan"]
        by_graph: dict[str, list[dict]] = {}
        for ln in text.splitlines():
            rec = fields(ln)
            by_graph.setdefault(rec.get("graph", ""), []).append(rec)
        out = Verdicts()
        seen = 0
        for pos, i in enumerate(exp.index):
            recs = by_graph.get(exp.graph6[pos], [])
            seen += len(recs)
            counts: dict[str, int] = {}
            problem = None
            for rec in recs:
                counts[rec.get("rule", "")] = counts.get(rec.get("rule", ""), 0) + 1
                problem = problem or self._replay_report(rec, exp.graph(pos), ref_gamma[i])
            if problem is None and counts != ref_scan[i]:
                problem = f"reports per rule {counts}, reference {ref_scan[i]}"
            out.add(exp.orders[pos], DECIDED, None if problem is None else f"graph {i}: {problem}")
        total = sum(len(v) for v in by_graph.values())
        if seen != total:
            out.extra(f"{total - seen} WITNESS lines for graphs not in the input")
        return out

    @staticmethod
    def _replay_report(rec: dict, g: Graph, gamma: int) -> str | None:
        verdict = rec.get("verdict")
        if verdict == "precondition-unmet":
            return None
        try:
            before = int(rec["gamma_before"])
            b = _edges(rec["edges"])
            h = g.delete_edges(b)
        except (KeyError, TypeError, ValueError) as exc:
            return f"report does not replay: {exc}"
        if before != gamma:
            return f"gamma_before {before}, reference {gamma}"
        if rec.get("observed") != str(len(set(b))):
            return "observed size is not the edge count"
        if verdict == "violates-isolate-condition":
            return None if h.has_isolated_vertex() else "claims an isolate that is not there"
        if h.has_isolated_vertex():
            return "deletion isolates a vertex"
        try:
            after = int(rec["gamma_after"])
        except (KeyError, ValueError):
            return "no gamma_after"
        if verdict == "valid-bondage-set":
            if after <= before or exists_total_dominating_set(h, before):
                return "claims a rise that does not replay"
            if not exists_total_dominating_set(h, after):
                return f"no TDS of size gamma_after={after}"
            return None
        if verdict == "gamma-did-not-increase":
            if after != before or not exists_total_dominating_set(h, before):
                return "claims no rise, but gamma_t rose"
            return None
        return f"unknown verdict {verdict!r}"

    # -- detect and discharge ---------------------------------------------

    def records(self, kind: str, text: str, exp, per_graph: int) -> Verdicts:
        """``per_graph`` lines per input graph, compared to the reference tails."""
        ref = self.ref[DETECT][kind]
        lines = text.splitlines()
        out = Verdicts()
        for pos, i in enumerate(exp.index):
            chunk = lines[pos * per_graph:(pos + 1) * per_graph]
            if len(chunk) < per_graph:
                problem = "no record"
            elif any(fields(ln).get("graph") != exp.graph6[pos] for ln in chunk):
                problem = "record is for another graph"
            elif [tail(ln) for ln in chunk] != ref[i]:
                problem = f"{[tail(ln) for ln in chunk]} != reference {ref[i]}"
            else:
                problem = None
            state = OUT if any("error=" in ln for ln in chunk) else DECIDED
            out.add(exp.orders[pos], state, None if problem is None else f"graph {i}: {problem}")
        if len(lines) > per_graph * len(exp):
            out.extra("records beyond the inputs")
        return out
