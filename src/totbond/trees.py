"""Exhaustive generation of non-isomorphic trees.

Rooted trees on n vertices are generated as canonical level sequences in
reverse-lexicographic order (Beyer & Hedetniemi, SIAM J. Comput. 9(4),
1980); the successor rule is constant-time amortized.

Free trees are read off the rooted ones by a lemma.  The canonical
sequence of a tree rooted at r begins 1, 2, ..., ecc(r) + 1, because the
deepest child subtree sorts first; so among the rootings of one free
tree the lex-largest, which the generator visits first, is rooted at a
peripheral vertex: a leaf, with height equal to the diameter.
`enumerate_trees` therefore walks only the sequences with a leaf root
(one 2), in the generator's own order, drops every one whose diameter
exceeds its height, and keys the survivors by their canonical form at the
centre.  Each dropped sequence is a later rooting of a tree already
seen, so the same sequences come out, in the same order and with the same
vertex labels, as when every rooted tree is canonized.  (Wright,
Richmond, Odlyzko & McKay, SIAM J. Comput. 15(2), 1986, generate free
trees with no key at all, but in another order and labelling.)  The
count of sequences walked still grows about 3x per vertex, so the order
stays capped.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph

MAX_TREE_ORDER = 16


def rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """Yield the level sequences of all rooted trees on n vertices.

    A level sequence lists vertex depths (root = 1) in preorder.  The
    first sequence is the path [1, 2, ..., n]; each successor is formed
    by finding the last entry p with L[p] > 2 and repeating the block
    that starts at the last earlier position q with L[q] == L[p] - 1.
    The star [1, 2, 2, ..., 2] is last.
    """
    if n < 1:
        return
    if n == 1:
        yield [1]
        return
    seq = list(range(1, n + 1))
    while True:
        yield seq[:]
        p = n - 1
        while p >= 0 and seq[p] <= 2:
            p -= 1
        if p < 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        period = p - q
        for i in range(p, n):
            seq[i] = seq[i - period]


def _parents(seq) -> list[int]:
    """Parent of each vertex of a preorder level sequence; the root's is -1.

    Vertex i is the i-th entry; its parent is the most recent vertex one
    level up.  The root must be first and depths may only grow by 1.
    """
    if not seq or seq[0] != 1:
        raise ValueError("level sequence must start at level 1")
    parent = [-1]
    stack = [0]  # stack[d-1] = current ancestor at depth d
    for i in range(1, len(seq)):
        d = seq[i]
        if d < 2 or d > len(stack) + 1:
            raise ValueError(f"level {d} at position {i} breaks preorder")
        del stack[d - 1 :]
        parent.append(stack[-1])
        stack.append(i)
    return parent


def _tree(parent: list[int]) -> Graph:
    masks = [0] * len(parent)
    for v in range(1, len(parent)):
        p = parent[v]
        masks[v] |= 1 << p
        masks[p] |= 1 << v
    return Graph._trusted(len(parent), tuple(masks))


def tree_from_level_sequence(seq) -> Graph:
    """Build the tree a preorder level sequence describes (see `_parents`)."""
    return _tree(_parents(seq))


def _ahu_code(adj: list[list[int]], root: int) -> str:
    """Canonical parenthesis string of the tree rooted at root."""

    def code(v: int, parent: int) -> str:
        subs = sorted(code(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return code(root, -1)


def _diameter_at_most(parent: list[int], h: int) -> bool:
    """Whether no path in the tree is longer than h edges.

    Reverse preorder finishes every child before its parent, so
    below[p] is the longest downward path from p among the children
    seen so far.
    """
    below = [0] * len(parent)
    for v in range(len(parent) - 1, 0, -1):
        p = parent[v]
        down = below[v] + 1
        if below[p] + down > h:
            return False
        if down > below[p]:
            below[p] = down
    return True


def check_tree_order(n: int) -> None:
    """Raise ValueError unless `enumerate_trees` takes order n."""
    if n < 1:
        raise ValueError("tree order must be at least 1")
    if n > MAX_TREE_ORDER:
        raise ValueError(f"tree enumeration capped at n = {MAX_TREE_ORDER}")


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Yield one representative of every isomorphism class of trees on n vertices.

    Deterministic order: first appearance in rooted level-sequence order,
    each tree labelled by the preorder of that first sequence.
    """
    check_tree_order(n)
    if n <= 2:
        yield tree_from_level_sequence(range(1, n + 1))
        return
    seen: set[str] = set()
    for rest in rooted_level_sequences(n - 1):
        # a leaf root over the rooted tree `rest`; the first branch
        # 0, 1, ..., h is the deepest path
        parent = _parents([1] + [x + 1 for x in rest])
        h = max(rest)
        if not _diameter_at_most(parent, h):
            continue
        adj: list[list[int]] = [[] for _ in parent]
        for v in range(1, n):
            adj[v].append(parent[v])
            adj[parent[v]].append(v)
        # the centre or centres of a diametral path 0..h
        key = min(_ahu_code(adj, c) for c in {h // 2, (h + 1) // 2})
        if key not in seen:
            seen.add(key)
            yield _tree(parent)
