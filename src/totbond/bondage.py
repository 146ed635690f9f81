"""Total bondage computation with certificates.

Deleting edges can only raise the total domination number, so b_t(G) is
found by sweeping edge subsets in increasing size.  Subsets are visited
in colexicographic order within each size; a subset is skipped when the
deletion would isolate a vertex.  Finiteness is decided up front by the
matching criterion 2*nu(G) > gamma_t(G): among isolate-free spanning
subgraphs the total domination number is maximized by edge-minimal
ones, which are star forests, and a star forest with c components has
gamma_t = 2c; the largest such c equals nu(G).  When the criterion
fails no edge deletion can push gamma_t above its ceiling, so b_t is
infinite.  The criterion is validated exhaustively at small orders by
the test suite before anything relies on it.  Any matching bounds nu
from below, so the blossom phase runs only when the greedy seed
matching does not already show 2*nu > gamma_t.

The sweep walks colex order depth first.  For each largest edge in
ascending order come the subsets of the edges below it, so a node -- a
fixed set U of the largest chosen edges, with j edges still to pick
below index hi -- holds C(hi, j) consecutive subsets of the sweep.  A
node is skipped whole, its C(hi, j) subsets still counted as examined,
when G - U already has an isolated vertex, or when some pooled minimum
total dominating set D survives U and no j further deletions below hi
can kill it.  D is killed when some vertex v loses all of its D-edges;
edge indices grow with the neighbor (edges are in lexicographic order),
so v's largest remaining D-neighbor says whether all of v's D-edges lie
below hi, and their number is what killing v costs.  With one edge left
(j = 1) only the edges that kill every surviving pooled set are tried,
each at its own place in the sweep.  The exact cover search, which
`gamma_t` shares, runs only when no pooled set survives.  It returns a
minimum total dominating set of G - U, which has at least gamma_t(G)
vertices since it dominates G too.  A cover of gamma_t(G) vertices
joins the pool; a larger one finishes a bondage set B, and its size is
the certificate's gamma_after = gamma_t(G - B), so no second solve of
G - B is needed.

Each node carries the kill mask of every pooled set D that survives its
U: the edges whose deletion strips some vertex of its last D-edge.  A
level computes the masks once, with U empty.  Deleting edges takes no kill
edge away (a vertex with one D-edge keeps it, or D dies), so the mask of
D in the child that deletes (u, v) is the node's mask plus the kill
edges that u and v gain, and D is passed over when it loses every
D-neighbour of u or of v.  A set pooled after a node's masks were made
gets its mask under the node's U when a child first needs it.  A mask
edge below hi kills D with one deletion, so the skip test counts D's
D-neighbours only when the mask has none.  A node with two edges left
rules on each child before it deletes the child's edge: the edges below
(u, v) that all the child's masks share are the child's last edges to
try.  When there are none the child is skipped, and a visited child's
last-edge step starts from them.  Level 1 has no parent node and takes
its mask from gamma_t's witness.

A skipped block holds no bondage set and a tried edge is the only kind
that can finish one, so the walk meets bondage sets in the order the
plain sweep does and returns the same first witness.  work_budget counts
the same subsets: a skip that runs past it stops the search at the level
the plain sweep would stop at, with the same cap.  The pool is the
surviving-set cache of the implicit hitting set method (Moreno-Centeno
and Karp, Oper. Res. 61(2), 2013), kept under the plain sweep's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .domination import _exists_cover, gamma_t
from .graphs import Edge, Graph, _bits

INFINITE_CRITERION = "2*max_matching <= gamma_t"

# staged search never looks past max degree + 9 edges unless told to:
# deep enough for every bound this package checks, with headroom
DEFAULT_CAP_SLACK = 9


@dataclass(frozen=True)
class BondageStats:
    """What one bondage search did.

    examined counts the subsets of the sweep order ruled on, whether one
    by one or inside a skipped block (the work budget when that ran
    out); exact_calls counts exact cover solves; skipped_subtrees counts
    blocks ruled out without a visit.
    """

    examined: int
    exact_calls: int
    skipped_subtrees: int


@dataclass(frozen=True)
class BondageCertificate:
    """Outcome of a total bondage computation.

    status is "finite" (witness holds a minimum bondage edge set),
    "infinite" (no bondage set exists; criterion names the reason), or
    "unknown-above-cap" (all subsets of size <= cap were exhausted or
    the work budget ran out; cap is the last fully searched size).
    """

    status: str
    b_t: int | None
    witness: frozenset[Edge] | None
    gamma_before: int
    gamma_after: int | None
    cap: int | None = None
    criterion: str | None = None
    stats: BondageStats | None = field(default=None, compare=False)

    def value(self) -> float:
        if self.status == "finite":
            return self.b_t
        if self.status == "infinite":
            return float("inf")
        raise ValueError(f"bondage undecided up to cap {self.cap}")


def _greedy_matching(g: Graph) -> list[int]:
    """A maximal matching: each free vertex in turn takes its lowest free
    neighbour.  match[v] is v's partner, or -1."""
    match = [-1] * g.n
    free = (1 << g.n) - 1
    for u, a in enumerate(g.adj):
        a &= free
        if free >> u & 1 and a:
            v = (a & -a).bit_length() - 1
            match[u] = v
            match[v] = u
            free ^= 1 << u | 1 << v
    return match


def max_matching_size(g: Graph) -> int:
    """Maximum matching size, general graphs (blossom contraction)."""
    n = g.n
    adj = [list(_bits(a)) for a in g.adj]
    match = _greedy_matching(g)  # greedy seed, halves the augmentation count

    parent = [-1] * n
    base = list(range(n))
    inq = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, inb: list[bool]) -> None:
        while base[v] != b:
            inb[base[v]] = True
            inb[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            inq[i] = False
        inq[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                if base[u] == base[v] or match[u] == v:
                    continue
                if v == root or (match[v] != -1 and parent[match[v]] != -1):
                    # odd cycle: contract the blossom up to the lca
                    b = lca(u, v)
                    inb = [False] * n
                    mark_path(u, b, v, inb)
                    mark_path(v, b, u, inb)
                    for i in range(n):
                        if inb[base[i]]:
                            base[i] = b
                            if not inq[i]:
                                inq[i] = True
                                queue.append(i)
                elif parent[v] == -1:
                    parent[v] = u
                    if match[v] == -1:
                        return v
                    inq[match[v]] = True
                    queue.append(match[v])
        return -1

    size = sum(1 for u in range(n) if match[u] != -1) // 2
    for u in range(n):
        if match[u] == -1:
            v = find_augmenting(u)
            if v != -1:
                size += 1
                while v != -1:  # flip matched/unmatched along the path
                    pv = parent[v]
                    nxt = match[pv]
                    match[v] = pv
                    match[pv] = v
                    v = nxt
    return size


class _OutOfBudget(Exception):
    """The work budget ran out inside the level being swept."""


class _Sweep:
    """Depth-first walk over the colex order of edge subsets.

    The walk holds U, the largest edges chosen so far, as deletions in
    `adj`/`deg`, with their indices in `chosen`.  A node (U, j, hi) stands
    for the C(hi, j) consecutive subsets that add j edges below hi to U.
    `pool` holds minimum TDSs as vertex masks.  The pool, as the level's
    root, and each node on the path with two or more edges left keep, in
    `stack`, the list of pooled sets that survive their U, and a set the
    exact solver finds joins every list on the path (it survives every U
    there, since deleting fewer edges keeps it dominating).  Such a node
    also gets a dict of those sets' kill masks under its U.  One loop over
    its surviving sets makes a child's masks; for a child with one edge
    left it ANDs them instead, below the child's edge, and stops at the
    first empty result, since that child tries no last edge.
    """

    def __init__(
        self, g: Graph, edges: tuple[Edge, ...], gv: int, tds: frozenset[int], work_budget: int | None
    ):
        n = g.n
        self.n = n
        self.edges = edges
        self.adj = list(g.adj)
        self.deg = list(g.degrees())
        self.gv = gv
        self.budget = work_budget
        ebit = [0] * (n * n)  # 1 << (index of edge {u, v}) at u*n+v and v*n+u
        for i, (u, v) in enumerate(edges):
            ebit[u * n + v] = ebit[v * n + u] = 1 << i
        self.ebit = ebit
        self.pool = [sum(1 << v for v in tds)]
        self.stack: list[list[int]] = []
        self.chosen: list[int] = []
        self.examined = 0
        self.exact_calls = 0
        self.skipped = 0
        self.gamma_after: int | None = None  # gamma_t(G - B) of the bondage set B found

    def level(self, k: int) -> frozenset[Edge] | None:
        """The first bondage set of size k in colex order, else None.

        Raises _OutOfBudget when the budget ends before that set, or
        before the level's end when it holds none.
        """
        pool, hi = self.pool, len(self.edges)
        self.stack.append(pool)
        if k == 1:
            # only gamma_t's witness D is pooled yet, and D less any vertex
            # x is no TDS, so some vertex has x as its one D-neighbour and
            # the mask is never 0
            found = self._last_edge(hi, self._kills(pool[0]))
        else:
            found = self._inner(k, hi, pool, {d: self._kills(d) for d in pool})
        self.stack.pop()
        return found

    def stats(self) -> BondageStats:
        return BondageStats(self.examined, self.exact_calls, self.skipped)

    def _inner(self, j: int, hi: int, alive: list[int], masks: dict[int, int]) -> frozenset[Edge] | None:
        # `alive` is never empty: U is isolate-free and smaller than the
        # level, so the sweep of size |U| left a pooled set alive in U (a
        # tried last edge pools its cover; an untried edge or a skipped
        # block leaves one alive).  `masks` holds each one's kill mask
        # under U; a set pooled after it was made gets its mask on demand
        below = (1 << hi) - 1
        for d in alive:
            # a kill edge below hi kills d with one deletion
            if not masks[d] & below and not self._killable(d, j, hi):
                return self._skip(comb(hi, j))
        n, adj, deg, edges, ebit = self.n, self.adj, self.deg, self.edges, self.ebit
        for top in range(j - 1, hi):
            u, v = edges[top]
            if deg[u] == 1 or deg[v] == 1:  # every subset below isolates u or v
                self._skip(comb(top, j - 1))
                continue
            # the child's pooled sets and their masks: this node's mask plus
            # the kill edges that u and v gain.  A set pooled since this
            # node's masks were made gets its own here, before (u, v) is
            # deleted.  A last-edge child needs only the edges below top
            # that all its masks share (rest, which shrinks only then), and
            # is skipped when none are left
            au = adj[u] ^ (1 << v)
            av = adj[v] ^ (1 << u)
            child: dict[int, int] = {}
            rest = (1 << top) - 1
            for d in alive:
                ru = au & d
                rv = av & d
                if ru and rv:
                    kills = masks.get(d)
                    if kills is None:
                        kills = masks[d] = self._kills(d)
                    if not ru & (ru - 1):
                        kills |= ebit[u * n + ru.bit_length() - 1]
                    if not rv & (rv - 1):
                        kills |= ebit[v * n + rv.bit_length() - 1]
                    if j > 2:
                        child[d] = kills
                        continue
                    rest &= kills
                    if not rest:
                        break
            if not rest:
                self._skip(top)
                continue
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            deg[u] -= 1
            deg[v] -= 1
            self.chosen.append(top)
            if j == 2:
                found = self._last_edge(top, rest)
            else:
                survivors = list(child)
                self.stack.append(survivors)
                found = self._inner(j - 1, top, survivors, child)
                self.stack.pop()
            self.chosen.pop()
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            deg[u] += 1
            deg[v] += 1
            if found is not None:
                return found
        return None

    def _killable(self, d: int, j: int, hi: int) -> bool:
        # some vertex can lose all of its D-edges to j deletions below hi:
        # edge indices grow with the neighbor, so its largest D-neighbor
        # says whether all of them lie below hi
        n, ebit, below = self.n, self.ebit, 1 << hi
        for v, a in enumerate(self.adj):
            r = a & d
            if r.bit_count() <= j and ebit[v * n + r.bit_length() - 1] < below:
                return True
        return False

    def _kills(self, d: int) -> int:
        """Mask of the edges whose deletion strips a vertex of its last D-edge."""
        n, ebit = self.n, self.ebit
        out = 0
        for v, a in enumerate(self.adj):
            r = a & d
            if not r & (r - 1):
                out |= ebit[v * n + r.bit_length() - 1]
        return out

    def _last_edge(self, hi: int, rest: int) -> frozenset[Edge] | None:
        # only an edge in `rest`, the edges below hi that kill every
        # surviving TDS, can finish a bondage set
        adj, deg, edges = self.adj, self.deg, self.edges
        base = self.examined
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            self._advance(base + x + 1)
            u, v = edges[x]
            if deg[u] == 1 or deg[v] == 1:
                continue
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            cover = self._solve()
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if len(cover) > self.gv:
                self.gamma_after = len(cover)
                return frozenset(edges[i] for i in (*self.chosen, x))
            rest &= self._kills(self._add(cover))
        self._advance(base + hi)
        return None

    def _skip(self, size: int) -> None:
        self.skipped += 1
        self._advance(self.examined + size)

    def _advance(self, examined: int) -> None:
        """Move past the first `examined` subsets of the sweep, or stop
        at the budget's end."""
        if self.budget is not None and examined > self.budget:
            self.examined = self.budget
            raise _OutOfBudget
        self.examined = examined

    def _solve(self) -> list[int]:
        # a minimum TDS of G - U: none is smaller than gamma_t(G), since
        # every TDS of G - U also dominates G
        self.exact_calls += 1
        return _exists_cover(self.adj, self.n, self.gv)

    def _add(self, cover: list[int]) -> int:
        d = sum(1 << v for v in cover)
        for alive in self.stack:
            alive.append(d)
        return d


def bondage(g: Graph, cap: int | None = None, work_budget: int | None = None) -> BondageCertificate:
    """Compute b_t(g) by staged subset search, up to cap edge deletions.

    cap defaults to min(m, max_degree + 9).  work_budget, if given,
    limits the number of candidate subsets examined, counting those in
    skipped blocks; exhausting it yields an unknown-above-cap
    certificate whose cap is the last fully completed size.
    """
    for name, value in (("cap", cap), ("work_budget", work_budget)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    before = gamma_t(g)  # raises on isolated vertices
    gv = before.value
    # the greedy seed is a matching too: once its matched vertices (twice
    # its size) outnumber gamma_t, the blossom phase has nothing to decide
    matched = g.n - _greedy_matching(g).count(-1)
    if matched <= gv and 2 * max_matching_size(g) <= gv:
        return BondageCertificate(
            "infinite", None, None, gv, None, criterion=INFINITE_CRITERION,
            stats=BondageStats(0, 0, 0),
        )
    edges = g.edges()
    m = len(edges)
    if cap is None:
        cap_eff = min(m, g.max_degree() + DEFAULT_CAP_SLACK)
    else:
        cap_eff = min(cap, m)
    sweep = _Sweep(g, edges, gv, before.witness, work_budget)
    for k in range(1, cap_eff + 1):
        try:
            witness = sweep.level(k)
        except _OutOfBudget:
            return BondageCertificate(
                "unknown-above-cap", None, None, gv, None, cap=k - 1,
                stats=sweep.stats(),
            )
        if witness is not None:
            return BondageCertificate(
                "finite", k, witness, gv, sweep.gamma_after, stats=sweep.stats()
            )
    return BondageCertificate(
        "unknown-above-cap", None, None, gv, None, cap=cap_eff, stats=sweep.stats()
    )
