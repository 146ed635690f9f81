"""Named graph families with fixed, documented labelings.

Paths and cycles are labeled along the walk.  Complete multipartite parts
are contiguous blocks in nonincreasing size order.  Subdivided stars put
the center at 0 and then each leg's vertices consecutively outward.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 along the path."""
    if n < 1:
        raise ValueError("paths need at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1 along the cycle."""
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    """K_n."""
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph; parts are contiguous, largest first."""
    sizes = sorted((int(s) for s in sizes), reverse=True)
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = []
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            edges.extend((u, v) for u in bounds[i] for v in bounds[j])
    return Graph.from_edges(start, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite((a, b))


def star(leaves: int) -> Graph:
    """K_{1,leaves}: leaves 0..leaves-1, center leaves (the larger part comes first)."""
    if leaves < 1:
        raise ValueError("stars need at least one leaf")
    return complete_multipartite((leaves, 1))


def subdivided_star(leg_subdivisions) -> Graph:
    """A star with leg i subdivided leg_subdivisions[i] times.

    Center is vertex 0; leg i contributes leg_subdivisions[i] internal
    vertices and then its leaf, labeled consecutively.  (3, 0, 0) is the
    7-vertex tree obtained from K_{1,3} by subdividing one edge 3 times.
    """
    legs = [int(s) for s in leg_subdivisions]
    if len(legs) < 1 or any(s < 0 for s in legs):
        raise ValueError("need nonnegative subdivision counts")
    edges = []
    nxt = 1
    for s in legs:
        prev = 0
        for _ in range(s + 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


# tag: (parameter count, None for any; builder over the parameters)
_BUILDERS = {
    "path": (1, path),
    "cycle": (1, cycle),
    "complete": (1, complete),
    "complete-bipartite": (2, complete_bipartite),
    "complete-multipartite": (None, lambda *p: complete_multipartite(p)),
    "star": (1, star),
    "subdivided-star": (None, lambda *p: subdivided_star(p)),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: tag plus integer parameters."""

    tag: str
    params: tuple[int, ...]

    def build(self) -> Graph:
        if self.tag not in _BUILDERS:
            raise ValueError(f"unknown family {self.tag!r}")
        count, builder = _BUILDERS[self.tag]
        if count is not None and len(self.params) != count:
            noun = "parameter" if count == 1 else "parameters"
            raise ValueError(f"{self.tag} takes {count} {noun}, got {len(self.params)}")
        return builder(*self.params)

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse 'tag:p1,p2,...' into a FamilySpec."""
        tag, _, rest = text.partition(":")
        tag = tag.strip()
        params = tuple(int(x) for x in rest.split(",") if x.strip()) if rest else ()
        return FamilySpec(tag, params)
