"""One CLI call of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC holds the ``totbond.cli.main`` argv, the ``src`` directory to
import from, where to write stdout (``null`` streams each line to the
real stdout after a ``start`` line, prefixed by its seconds since the
previous line, so the parent can kill a run at a per-graph limit),
whether to time each line, whether to trace, and where to write the
result and the spans.  The result records the time of ``cli.main``
alone, on the wall clock and at reference speed (``calibrate.py``; line
times are at reference speed too), the median time per calibration
solve, its exit code, any exception, and ``ru_maxrss`` of this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import calibrate


class LineSink(io.TextIOBase):
    """stdout replacement that can stamp each finished line with its time."""

    def __init__(self, fh, stamp: bool, stream: bool, clock) -> None:
        self.fh = fh
        self.stamp = stamp or stream
        self.stream = stream
        self.clock = clock
        self.times: list[float] = []
        self.last = clock()
        self.buf = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if not self.stamp:
            return self.fh.write(s)
        self.buf += s
        while "\n" in self.buf:
            line, self.buf = self.buf.split("\n", 1)
            now = self.clock()
            dt, self.last = now - self.last, now
            self.times.append(dt)
            if self.stream:
                self.fh.write(f"{dt:.6f} {line}\n")
                self.fh.flush()
            else:
                self.fh.write(line + "\n")
        return len(s)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    imports: dict[str, float] = {}
    t0 = time.perf_counter()
    if spec["trace"]:
        import networkx  # noqa: F401  (timed apart from totbond's own modules)

        imports["networkx"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    import totbond.cli

    imports["totbond"] = time.perf_counter() - t1
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = spec["out"]
    fh = sys.stdout if out is None else open(out, "w", encoding="ascii")
    clock = calibrate.ReferenceClock()
    sink = LineSink(fh, spec["stamp"], out is None, clock.now)
    if out is None:
        # the interpreter is up: the parent's per-graph clock starts now
        fh.write("start\n")
        fh.flush()
    rc: object = 0
    error = None
    clock.start()
    start, ref_start = clock.wall(), clock.now()
    sink.last = ref_start
    try:
        with contextlib.redirect_stdout(sink):
            rc = totbond.cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # reported to the checker as a failed call
        error = traceback.format_exc()
        rc = None
    clock.stop()
    wall, ref = clock.wall() - start, clock.now() - ref_start
    if out is not None:
        fh.close()
    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "ref_s": ref,
        "solve_s": statistics.median(clock.samples),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "line_s": sink.times,
        "imports": imports,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
