"""totbond benchmark: CLI workloads, end-to-end metrics, traced layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload, one report
    python3 bench/run.py --quick ...                  # cut-down inputs
    python3 bench/run.py --selftest                   # quick runs + checker self-test

Each repetition of a workload runs its CLI calls one after another,
each in a fresh interpreter (``bench/child.py``) that calls
``totbond.cli.main`` with ``TOTBOND_JOBS`` removed and ``--jobs 1``
where the verb takes it.  Repetitions continue while at least half of
another one fits in ``--seconds``.  Outputs are checked after the timed section.
With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced repetition, and the tracing overhead from alternating
traced and untraced repetitions.  Everything the run writes goes under
``.bench_out/`` in the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import calibrate
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".bench_out")

# setup_s samples: a few before the first call, then one after every
# CLI call, so they spread over the run; at least SETUP_SAMPLES in all
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES = 7
# how long a frontier child may take to start its interpreter and imports
FRONTIER_STARTUP_S = 10.0
# a frontier graph is killed after this many times the per-graph limit on
# the wall clock: the machine has not been seen to run more than 1.8x
# slower than reference speed
FRONTIER_WALL_FACTOR = 2.0
# a traced run alternates untraced and traced repetitions on the same
# files; two of each, because one pair is within this machine's noise
TRACE_REPS = 4
# a bondage set of the icosahedron that planar-d8 leaves budget-skipped,
# in the corpus labelling: 9 edges, found by a seeded random search
ICOSAHEDRON_WITNESS = ((2, 3), (3, 8), (4, 9), (6, 11), (7, 8), (7, 11), (8, 9), (9, 10),
                       (10, 11))


def die(msg: str, code: int = 2) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TOTBOND_JOBS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


@dataclass
class Call:
    verb: str
    key: str  # the Rep.files entry the output answers to
    text: str
    wall_s: float
    ref_s: float  # wall_s at the reference speed of calibrate.py
    solve_s: float  # median seconds per calibration solve during the call
    maxrss_kb: int
    line_s: list[float]  # seconds per output line, at reference speed
    imports: dict
    spans: dict | None
    problem: str | None


@dataclass
class Rep:
    traced: bool
    files: dict  # key -> workloads.Expected
    calls: list[Call] = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        return sum(c.ref_s for c in self.calls)


class Runner:
    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.env = child_env()
        self.n_calls = 0

    def _spec(self, argv: list[str], trace: bool, stamp: bool, stream: bool) -> tuple[str, dict]:
        self.n_calls += 1
        base = os.path.join(self.workdir, f"call{self.n_calls}")
        spec = {"argv": argv, "src": SRC, "trace": trace, "stamp": stamp,
                "out": None if stream else base + ".out", "spans": base + ".spans.json",
                "result": base + ".result.json"}
        path = base + ".spec.json"
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path, spec

    def call(self, verb: str, argv: list[str], key: str, trace: bool) -> Call:
        path, spec = self._spec(argv, trace, stamp=verb == "gamma-t", stream=False)
        proc = subprocess.run([sys.executable, CHILD, path], env=self.env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            with open(spec["result"]) as fh:
                res = json.load(fh)
            with open(spec["out"], encoding="ascii") as fh:
                text = fh.read()
        except (OSError, ValueError):
            return Call(verb, key, "", 0.0, 0.0, calibrate.REFERENCE_S, 0, [], {}, None,
                        f"{verb}: child failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        spans = None
        if trace:
            with open(spec["spans"]) as fh:
                spans = json.load(fh)
        problem = None
        if res["error"]:
            problem = f"{verb}: exception in cli.main: {res['error']}"
        elif res["rc"] not in (0, None) and verb != "campaign":
            problem = f"{verb}: exit code {res['rc']}"
        return Call(verb, key, text, res["wall_s"], res["ref_s"], res["solve_s"],
                    res["maxrss_kb"], res["line_s"], res["imports"], spans, problem)

    def stream(self, argv: list[str], limit_s: float,
               total_s: float) -> tuple[list[tuple[float, str]], str | None, bool]:
        """Run a gamma-t call whose lines arrive one by one; kill it when one
        graph exceeds limit_s at reference speed, or the call exceeds
        total_s.  Returns the (seconds at reference speed, line) pairs of
        the graphs that finished, a problem if the child died by itself
        with an error, and whether total_s ran out."""
        path, _ = self._spec(argv, False, stamp=True, stream=True)
        proc = subprocess.Popen([sys.executable, CHILD, path], env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        fd = proc.stdout.fileno()
        lines: list[tuple[float, str]] = []
        buf = b""
        start = last = time.perf_counter()
        wait = FRONTIER_STARTUP_S  # until the child's start line
        out_of_time = False
        try:
            while True:
                now = time.perf_counter()
                left_total = total_s + FRONTIER_STARTUP_S - (now - start)
                left = min(wait - (now - last), left_total)
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    out_of_time = left == left_total
                    break
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *done, buf = buf.split(b"\n")
                over = False
                for raw in done:
                    if raw == b"start":
                        continue
                    dt, _, line = raw.decode("ascii").partition(" ")
                    lines.append((float(dt), line))
                    over = over or float(dt) > limit_s
                last = time.perf_counter()
                # the limit is at reference speed; the machine may run
                # slower than that, so wait on the wall clock with room
                wait = FRONTIER_WALL_FACTOR * limit_s + 1.0
                if over:
                    break
        finally:
            exited = proc.poll() is not None
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if exited and proc.returncode != 0:
            return lines, f"frontier gamma-t: child exited with {proc.returncode}", out_of_time
        return lines, None, out_of_time


def measure_setup(env: dict[str, str], samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter to `import totbond` done,
    at the reference speed of the calibration loop run around each sample."""
    out = []
    for _ in range(samples):
        before = calibrate.solve_s()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import totbond"], env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        out.append(calibrate.scale(wall, (before + calibrate.solve_s()) / 2))
    return out


def environment() -> dict:
    """Versions and machine facts recorded with every result."""
    commit = "unknown"  # a benchmark checkout need not be a git repository
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath(ROOT):
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(os.path.join(SRC, "totbond"))
                   for f in fs if f.endswith(".py"))
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    try:
        nx_version = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        nx_version = "missing"
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "networkx": nx_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


@dataclass
class Outcome:
    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    lines: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 reference: dict) -> Outcome:
    import check

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=OUT)
    try:
        try:
            workload = wl.Workload(name, wl.QUICK if quick else wl.FULL, reference)
        except ValueError as exc:
            die(f"{exc}; rebuild it with bench/make_reference.py on a trusted commit", 3)
        runner = Runner(workdir)
        setup = [] if trace else measure_setup(runner.env, SETUP_SAMPLES_FIRST)
        reps: list[Rep] = []
        elapsed = 0.0  # repetitions only, setup samples excluded
        while True:
            k = len(reps)
            t0 = time.perf_counter()
            # a traced run times all its repetitions on the same files
            files = workload.write(seed, 0 if trace else k, workdir)
            rep = Rep(trace and (k + seed) % 2 == 1, files)
            calls = workload.calls(rep.files)
            for verb, argv, key in calls if (k + seed) % 2 == 0 else calls[::-1]:
                rep.calls.append(runner.call(verb, argv, key, rep.traced))
                if not trace:
                    t1 = time.perf_counter()
                    setup += measure_setup(runner.env, 1)
                    t0 += time.perf_counter() - t1
            reps.append(rep)
            elapsed += time.perf_counter() - t0
            if trace:
                if len(reps) == TRACE_REPS:
                    break
            elif elapsed + elapsed / len(reps) / 2 > seconds:
                break  # another repetition would overrun by more than half of one
        if not trace and len(setup) < SETUP_SAMPLES:
            setup += measure_setup(runner.env, SETUP_SAMPLES - len(setup))

        frontier_lines: list[tuple[float, str]] = []
        problems: list[str] = []
        failed = 0
        if name == wl.GAMMA and not trace:
            frontier_lines, problem = gamma_frontier(runner, reps)
            if problem:
                problems.append(problem)
                failed += 1

        t_check = time.perf_counter()
        ck = check.Checker(reference, ROOT)
        first = check.Verdicts()  # the first repetition's graphs
        attempted = 0
        checked: dict[tuple, check.Verdicts] = {}
        for r, rep in enumerate(reps):
            for c in rep.calls:
                if c.problem:
                    problems.append(c.problem)
                    failed += 1
                exp = rep.files[c.key]
                key = (c.verb, tuple(exp.graph6), c.text)
                if key not in checked:
                    checked[key] = check_call(ck, name, c, exp)
                    problems += checked[key].problems
                attempted += checked[key].attempted
                failed += checked[key].failed
                if r == 0:
                    first.extend(checked[key])
        frontier_states: list[str] = []
        if frontier_lines:
            done = reps[0].files["frontier"].prefix(len(frontier_lines))
            v = ck.gamma("\n".join(line for _, line in frontier_lines), done, partial=True)
            attempted += v.attempted
            failed += v.failed
            problems += v.problems
            frontier_states = v.states
        check_s = time.perf_counter() - t_check

        def graphs(rep: Rep) -> int:
            return sum(len(rep.files[key]) for _, _, key in workload.calls(rep.files))

        lines = [f"== {name} seed={seed} quick={int(quick)} trace={int(trace)} "
                 f"reps={len(reps)} graphs/rep={graphs(reps[0])} check_s={check_s:.1f}"]
        for verb, _, _ in workload.calls(reps[0].files):
            calls = [c for rep in reps for c in rep.calls if c.verb == verb and not rep.traced]
            q1, med, q3 = quartiles([c.wall_s for c in calls])
            lines.append(f"  {verb:<14} cli.main median {med:.3f} s  [q1 {q1:.3f}, q3 {q3:.3f}]"
                         f"  n={len(calls)}")
            q1, med, q3 = quartiles([c.ref_s for c in calls])
            speed = calibrate.REFERENCE_S / statistics.median(c.solve_s for c in calls)
            lines.append(f"  {'':<14} at reference speed {med:.3f} s  [q1 {q1:.3f}, q3 {q3:.3f}]"
                         f"  (machine at {speed:.2f} of reference speed)")
        if trace:
            metrics = traced_metrics(reps, graphs(reps[0]), workload.corpus_s, lines)
        else:
            gps = [graphs(rep) / rep.ref_s for rep in reps if rep.ref_s > 0]
            rss = [max(c.maxrss_kb for c in rep.calls) / 1024 for rep in reps]
            frontier = gamma_frontier_n(reps, frontier_lines, frontier_states) \
                if name == wl.GAMMA else first.frontier()
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "graphs_per_s": (statistics.median(gps) if gps else 0.0, "graphs/s"),
                "judged": (first.judged, "count"),
                "frontier_n": (frontier, "vertices"),
                "passed_frac": (max(0.0, 1 - failed / attempted) if attempted else 0.0, "ratio"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
            }
            for label, xs in (("setup_s", setup), ("graphs_per_s", gps), ("peak_rss_mb", rss)):
                q1, med, q3 = quartiles(xs)
                lines.append(f"  {label:<14} median {med:.4g}  [q1 {q1:.4g}, q3 {q3:.4g}]  "
                             f"n={len(xs)}")
            lines.append(f"  judged {first.judged} of {first.attempted} per rep, frontier_n "
                         f"{frontier}, attempted {attempted}, failed {failed}")
        return Outcome(name, metrics, attempted, failed, problems, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_call(ck, name: str, c: Call, exp):
    if name in (wl.TREES, wl.PLANAR):
        return ck.campaign(name, c.text, exp)
    if c.verb == "gamma-t":
        return ck.gamma(c.text, exp)
    if c.verb == "witness":
        return ck.witness(c.text, exp)
    return ck.records(c.verb, c.text, exp, 2 if c.verb == "detect" else 1)


def fastest_gamma_times(reps: list[Rep]) -> tuple[list[int], list[float]]:
    """Order and fastest gamma-t time of each gamma-t input over the run's
    untraced repetitions, in corpus-index order.  A graph is over the
    frontier limit only if it is over in every repetition, so one slow
    moment of the machine does not move the frontier."""
    best: dict[int, float] = {}
    orders: dict[int, int] = {}
    for rep in reps:
        if rep.traced:
            continue
        exp = rep.files["gamma-t"]
        times = next(c for c in rep.calls if c.verb == "gamma-t").line_s
        for pos, i in enumerate(exp.index):
            t = times[pos] if pos < len(times) else math.inf
            best[i] = min(best.get(i, math.inf), t)
            orders[i] = exp.orders[pos]
    return [orders[i] for i in sorted(best)], [best[i] for i in sorted(best)]


def gamma_frontier(runner: Runner, reps: list[Rep]) -> tuple[list[tuple[float, str]], str | None]:
    """Run the frontier graphs past the gamma-t inputs in the first
    repetition's labelling, if every gamma-t input finished inside the
    per-graph limit.  The first graph that does not finish inside the
    limit runs once more, with those after it, in a fresh child, and
    keeps the faster of its two times."""
    _, times = fastest_gamma_times(reps)
    if max(times, default=0) > wl.FRONTIER_LIMIT_S:
        return [], None
    exp = reps[0].files["frontier"]
    start = time.perf_counter()
    lines, problem, out_of_time = runner.stream(["gamma-t", exp.path], wl.FRONTIER_LIMIT_S,
                                                wl.FRONTIER_TOTAL_S)
    stop = next((k for k, (dt, _) in enumerate(lines) if dt > wl.FRONTIER_LIMIT_S), len(lines))
    if problem or out_of_time or stop == len(exp):
        return lines, problem
    retry = exp.path + ".retry"
    with open(retry, "w", encoding="ascii") as fh:
        fh.write("".join(s + "\n" for s in exp.graph6[stop:]))
    left = wl.FRONTIER_TOTAL_S - (time.perf_counter() - start)
    again, problem, _ = runner.stream(["gamma-t", retry], wl.FRONTIER_LIMIT_S, max(left, 0.0))
    if again and stop < len(lines):
        again[0] = (min(again[0][0], lines[stop][0]), again[0][1])
    return lines[:stop] + again, problem


def gamma_frontier_n(reps: list[Rep], frontier_lines: list[tuple[float, str]],
                     frontier_states: list[str]) -> int:
    """Largest n such that every girth4 graph of order <= n finished gamma_t
    inside the per-graph limit (among the gamma-t and frontier inputs);
    a frontier graph whose answer the checker did not accept ends it too."""
    import check

    orders, times = fastest_gamma_times(reps)
    bad = [n for n, t in zip(orders, times) if t > wl.FRONTIER_LIMIT_S]
    if bad:
        return min(bad) - 1
    front = reps[0].files["frontier"].orders
    for n, (dt, _), state in zip(front, frontier_lines, frontier_states):
        if dt > wl.FRONTIER_LIMIT_S or state != check.DECIDED:
            return n - 1
    if len(frontier_lines) < len(front):
        return front[len(frontier_lines)] - 1
    return max(front, default=max(orders))


def traced_metrics(reps: list[Rep], n_graphs: int, corpus_s: float, lines: list[str]) -> dict:
    plain_s = statistics.median(r.ref_s for r in reps if not r.traced)
    traced_s = statistics.median(r.ref_s for r in reps if r.traced)
    overhead = 1 - plain_s / traced_s if traced_s else 0.0
    traced = next(r for r in reps if r.traced)  # spans of the first traced repetition
    totals = tracing.SpanTotals()
    imports: dict[str, list[float]] = {}
    for c in traced.calls:
        if c.spans is not None:
            totals.add(c.spans)
        for k, v in c.imports.items():
            imports.setdefault(k, []).append(v)
    values = tracing.layer_metrics(totals, {k: statistics.mean(v) for k, v in imports.items()},
                                   corpus_s, overhead)
    main_s = sum(totals.self_s.values())
    lines.append(f"  untraced {n_graphs / plain_s:.4g} graphs/s, traced "
                 f"{n_graphs / traced_s:.4g} graphs/s (medians), tracing overhead "
                 f"{overhead:.1%} of traced time")
    lines.append(f"  {'module':<12} {'self_s':>9} {'share':>7} {'calls':>9}")
    for mod, (calls, self_s) in sorted(totals.by_module().items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {mod:<12} {self_s:9.3f} {self_s / main_s:7.1%} {calls:9d}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}


def selftest(reference: dict) -> int:
    """Quick runs of every workload, one traced, then corrupted outputs
    that the checker must reject, and answers on graphs the reference did
    not decide that it must judge by their certificates."""
    import check

    ok = True
    for name in wl.WORKLOADS:
        for trace in (False, True) if name == wl.PLANAR else (False,):
            out = run_workload(name, 1, 1.0, trace, True, reference)
            print("\n".join(out.lines))
            good = out.failed == 0 and not out.problems and out.attempted > 0
            print(f"  selftest {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            for p in out.problems[:5]:
                print(f"    {p}")
            ok = ok and good
    ck = check.Checker(reference, ROOT)
    for label, good in itertools.chain(corruption_cases(ck, reference),
                                       undecided_cases(ck, reference)):
        print(f"  selftest checker {label}: {'ok' if good else 'FAILED'}")
        ok = ok and good
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def corruption_cases(ck, reference: dict):
    """(label, whether the checker flagged it) for each deliberate corruption."""
    import check
    import totbond.cli

    workload = wl.Workload(wl.TREES, wl.QUICK, reference)
    exp = workload.write(0, 0, "")["campaign"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        totbond.cli.main(workload.calls({})[0][1])
    lines = buf.getvalue().splitlines()

    def flagged(new_lines) -> bool:
        return ck.campaign(wl.TREES, "\n".join(new_lines), exp).failed > 0

    yield "flags nothing in the clean output", not flagged(lines)
    pos = next(i for i, ln in enumerate(lines) if " status=holds " in ln)
    rec = check.fields(lines[pos])
    k = int(rec["b_t"])
    wrong = lines[:pos] + [lines[pos].replace(f" b_t={k} ", f" b_t={k + 1} ")] + lines[pos + 1:]
    yield "flags a wrong b_t", flagged(wrong)
    g = exp.graph(pos)
    bad = next(c for c in itertools.combinations(g.edges(), k)
               if check.replay_bondage(g, ",".join(f"{u}-{v}" for u, v in c), k,
                                       reference[wl.TREES]["gamma_t"][pos]) is not None)
    bad_w = ",".join(f"{u}-{v}" for u, v in bad)
    swapped = lines[:pos] + [lines[pos].replace(f"witness={rec['witness']}", f"witness={bad_w}")]
    yield "flags a witness that does not replay", flagged(swapped + lines[pos + 1:])
    yield "flags a dropped record", flagged(lines[:pos] + lines[pos + 1:])


def undecided_cases(ck, reference: dict):
    """(label, whether the checker judged right) for answers on graphs the
    reference did not decide: the planar-d8 budget skip, and a gamma_t
    value without a reference value."""
    import check
    from make_reference import THEOREM_BOUNDS
    from totbond.campaigns import CampaignResult, GraphOutcome
    from totbond.corpus import girth4_corpus, planar_min3_corpus
    from totbond.domination import gamma_t
    from totbond.formats import graph6_bytes

    ref = reference[wl.PLANAR]
    i = ref["outcome"].index(check.BUDGET_SKIP)
    g = planar_min3_corpus()[i]
    g6 = graph6_bytes(g).decode("ascii")
    exp = wl.Expected([g6], [i], [g.n])

    def verdict(status: str, **detail) -> check.Verdicts:
        out = GraphOutcome("thm-planar-d8", g6, g.n, g.m, status,
                           (("bound", THEOREM_BOUNDS[wl.PLANAR](g)), *detail.items()))
        text = "\n".join(CampaignResult("thm-planar-d8", (out,)).records())
        return ck.campaign(wl.PLANAR, text, exp)

    witness = ",".join(f"{u}-{v}" for u, v in ICOSAHEDRON_WITNESS)
    v = verdict("holds", b_t=len(ICOSAHEDRON_WITNESS), witness=witness)
    yield "accepts a replaying b_t on the planar-d8 budget skip", v.failed == 0 and v.judged == 1
    v = verdict("holds", b_t=len(ICOSAHEDRON_WITNESS) - 1, witness=witness)
    yield "flags a witness of the wrong size there", v.failed > 0
    yield "flags b_t=>10 there", verdict("violated", b_t=">10").failed > 0
    yield "flags b_t=inf there", verdict("violated", b_t="inf").failed > 0

    # a girth4 graph past the oracle's reach, its reference value removed
    graphs = girth4_corpus()
    j = next(j for j, h in enumerate(graphs) if check.ORACLE_MAX_N < h.n <= 16)
    h = graphs[j]
    gamma = dict(reference[wl.GAMMA], gamma_t=list(reference[wl.GAMMA]["gamma_t"]))
    gamma["gamma_t"][j] = None
    blind = check.Checker({**reference, wl.GAMMA: gamma}, ROOT)
    h6 = graph6_bytes(h).decode("ascii")
    exp = wl.Expected([h6], [j], [h.n])
    best = sorted(gamma_t(h).witness)
    extra = next(v for v in range(h.n) if v not in best)

    def line(w: list[int]) -> str:
        return (f"GAMMA graph={h6} n={h.n} m={h.m} gamma_t={len(w)} "
                f"witness={','.join(map(str, w))}")

    v = blind.gamma(line(best), exp)
    yield "accepts a minimal gamma_t without a reference value", v.failed == 0 and v.judged == 1
    yield ("flags a non-minimal gamma_t without a reference value",
           blind.gamma(line(sorted(best + [extra])), exp).failed > 0)


def main() -> int:
    ap = argparse.ArgumentParser(description="totbond benchmark (see bench/README.md)")
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="cut-down inputs, seconds per workload")
    ap.add_argument("--selftest", action="store_true",
                    help="quick runs of every workload and a check of the checker")
    args = ap.parse_args()
    # on SIGTERM unwind normally, so running children are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "totbond", "cli.py")):
        die(f"no totbond sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    ref_path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(ref_path):
        die("bench/reference.json is missing")
    with open(ref_path) as fh:
        reference = json.load(fh)
    if args.selftest:
        return selftest(reference)
    if args.workload == "all":
        names = list(wl.WORKLOADS)
        # alternate the order between runs so no workload always goes first
        shift = args.seed % len(names)
        names = names[shift:] + names[:shift]
        if args.seed % 2:
            names.reverse()
    elif args.workload in wl.WORKLOADS:
        names = [args.workload]
    else:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)} or all")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    outcomes = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick, reference)
                for n in names]
    metrics: dict[str, dict] = {}
    for o in outcomes:
        print("\n".join(o.lines))
        for p in o.problems[:10]:
            print(f"  problem: {p}")
        for metric, (value, unit) in o.metrics.items():
            key = metric if len(outcomes) == 1 else f"{o.workload}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {metric:<34} {value!r} {unit}")
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0 and not any(o.problems for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
