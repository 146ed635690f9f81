"""Measured time at a fixed reference speed of the machine.

On the shared 2-vCPU x86-64 host (2.0 GHz) this benchmark was built on,
the same Python code runs up to 1.8x slower for seconds to minutes at a
time while other tenants are busy.  A median over one run cannot remove
swings that outlast the run.  So the benchmark times a fixed piece of
pure-Python work, a solve, next to everything it measures, and scales
the measured time to what it would have been at ``REFERENCE_S`` per
solve: two seconds during which a solve took twice REFERENCE_S count as
one.

A solve is an exact set-cover search over bitmasks on a fixed random
graph, the same kind of work as totbond's solvers.  It uses no totbond
code, so no change to totbond can move it.
"""

from __future__ import annotations

import random
import signal
import time

# seconds per solve on that host when it is not slowed down; it only
# sets the scale of the reported times
REFERENCE_S = 0.00054
# solves per sample: a long one before a timed section, short ones during
START_SOLVES = 56
PROBE_SOLVES = 8
# seconds between samples during a timed section
PERIOD_S = 0.2


def _instance(n: int = 22, degree: int = 3, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for v in range(n):
        for u in rng.sample(range(n), degree):
            if u != v:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


ADJ = _instance()


def _cover(adj: list[int], need: int, k: int) -> bool:
    """Whether k open neighbourhoods of adj cover the vertices in need."""
    if need == 0:
        return True
    if k == 0:
        return False
    v = (need & -need).bit_length() - 1
    for u in range(len(adj)):
        if adj[u] >> v & 1 and _cover(adj, need & ~adj[u], k - 1):
            return True
    return False


def solve_s(solves: int = START_SOLVES) -> float:
    """Seconds per solve now, over `solves` solves."""
    t0 = time.perf_counter()
    for _ in range(solves):
        k = 1
        while not _cover(ADJ, (1 << len(ADJ)) - 1, k):
            k += 1
    return (time.perf_counter() - t0) / solves


def scale(seconds: float, per_solve: float) -> float:
    """`seconds` measured while a solve took `per_solve`, at reference speed."""
    return seconds * REFERENCE_S / per_solve


class ReferenceClock:
    """A clock that runs at reference speed while it is started.

    Every PERIOD_S a SIGALRM handler takes a short sample, and the wall
    time since the previous sample is scaled by that previous sample.
    The time spent sampling is left out of both clocks.
    """

    def __init__(self) -> None:
        self.per_solve = solve_s()
        self.samples = [self.per_solve]
        self.ref = 0.0  # reference seconds up to self.mark
        self.sampling = 0.0  # wall seconds spent in samples
        self.mark = time.perf_counter()

    def now(self) -> float:
        return self.ref + scale(time.perf_counter() - self.mark, self.per_solve)

    def wall(self) -> float:
        """Wall seconds, sampling left out."""
        return time.perf_counter() - self.sampling

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.ref += scale(t - self.mark, self.per_solve)
        self.per_solve = solve_s(PROBE_SOLVES)
        self.samples.append(self.per_solve)
        self.mark = time.perf_counter()
        self.sampling += self.mark - t

    def start(self) -> None:
        self.mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
