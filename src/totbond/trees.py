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
(one 2), in the generator's own order (`_leaf_rooted`).  That walk keeps
the sequence and its parent array and updates both in place: the
successor's repeated block copies its parents along with its levels, so
no parent array is rebuilt.  It drops every sequence whose diameter
exceeds its height, and keys the survivors at the centre of their first
branch, which is a diametral path: one bottom-up pass over the parent
array, with no adjacency lists and no recursion (`_centre_key`).  Each
dropped sequence is a later rooting of a tree already seen, so the same
sequences come out, in the same order and with the same vertex labels,
as when every rooted tree is canonized.  (Wright,
Richmond, Odlyzko & McKay, SIAM J. Comput. 15(2), 1986, generate free
trees with no key at all, but in another order and labelling.)  The
count of sequences walked still grows about 3x per vertex, so the order
stays capped.  The reference that canonizes every rooted tree, with the
full rooted generator and the checked level-sequence reader, lives in
the test oracles, so it checks this walk without sharing its successor.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph

MAX_TREE_ORDER = 16


def _leaf_rooted(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (seq, parent) for every n-vertex level sequence with one 2.

    These are the leaf-rooted trees, [1] + [x + 1 for x in rest] for each
    rooted level sequence `rest` on n - 1 vertices, in the generator's
    order: from the path [1, 2, ..., n] to a star under a leaf.  A level
    sequence lists vertex depths (root = 1) in preorder, and parent[i] is
    vertex i's parent, -1 for the root.  Both lists are updated in place.

    The successor finds the last p with seq[p] > 3 and repeats the block
    that starts at its parent q = parent[p], the last earlier vertex one
    level up.  A copied vertex's parent inside the block moves with it,
    by one period; one before the block is shared.
    """
    seq = list(range(1, n + 1))
    parent = list(range(-1, n - 1))
    while True:
        yield seq, parent
        p = n - 1
        while p >= 0 and seq[p] <= 3:
            p -= 1
        if p < 0:
            return
        q = parent[p]
        period = p - q
        for i in range(p, n):
            seq[i] = seq[i - period]
            up = parent[i - period]
            parent[i] = up if up < q else up + period


def _tree(parent: list[int]) -> Graph:
    masks = [0] * len(parent)
    for v in range(1, len(parent)):
        p = parent[v]
        masks[v] |= 1 << p
        masks[p] |= 1 << v
    return Graph._trusted(len(parent), tuple(masks))


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


def _centre_key(parent: list[int], h: int) -> str:
    """Canonical key of a leaf-rooted tree whose diameter is its height h.

    The first branch 0, 1, ..., h is a diametral path, so its middle
    vertex c = h // 2 is the centre, and c + 1 the second centre when h
    is odd.  Reverse preorder gives every vertex off the path 0..c its
    parenthesis code (Aho, Hopcroft & Ullman): its sorted child codes in
    one pair of brackets.  The walk up the path then re-roots 1..c
    toward c, with the root 0 as a leaf.  Two centres split the tree at
    their edge into two halves, and the key is the sorted pair of them.
    """
    c = h // 2
    kids: list[list[str]] = [[] for _ in parent]
    top = ""
    for v in range(len(parent) - 1, c, -1):
        code = "(" + "".join(sorted(kids[v])) + ")"
        if v == c + 1 and h & 1:
            top = code
        else:
            kids[parent[v]].append(code)
    code = "()"
    for v in range(1, c + 1):
        kids[v].append(code)
        code = "(" + "".join(sorted(kids[v])) + ")"
    return "".join(sorted((code, top)))  # top is empty when h is even


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
    seen: set[str] = set()
    for seq, parent in _leaf_rooted(n):
        # the first branch 0, 1, ..., h is the deepest path
        h = max(seq) - 1
        if not _diameter_at_most(parent, h):
            continue
        key = _centre_key(parent, h)
        if key not in seen:
            seen.add(key)
            yield _tree(parent)
