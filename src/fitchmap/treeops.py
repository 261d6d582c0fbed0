"""Pure tree algorithms: ancestry, lca, paths, restriction with label
inheritance, display testing, contraction and triple extraction.

Every walk here relies on the canonical form of LabeledTree.  The span of
a vertex v is an interval [lo, hi) of leaf positions, and v's subtree is
the ids from v to the last leaf of its span, parents first.  So the lca
of a leaf set is the lowest ancestor of any one of its leaves whose span
covers the set's smallest and largest position (_cover); and for a leaf
subset Y, a set A within Y is a cluster of the tree restricted to Y
exactly when the span of lca(A) holds no leaf of Y outside A.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from .core import (
    NO_EVENT,
    Label,
    LabeledTree,
    LabelConflict,
    LeafSetNotContained,
    OuterEdge,
    RootedTriple,
    SameLeaf,
    TooFewLeaves,
    TripleSet,
    UnknownEdge,
    UnknownLeaf,
)


class TreePath:
    """A vertex path along tree edges; consecutive vertices are adjacent."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("path repeats a vertex")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, name, value):
        raise AttributeError("TreePath is immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(zip(vs, vs[1:]))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, TreePath):
            return NotImplemented
        return self.vertices == other.vertices

    def __repr__(self):
        return f"TreePath({list(self.vertices)})"


def _cover(tree: LabeledTree, v: int, lo: int, hi: int) -> int:
    """The lowest ancestor-or-self of v whose span covers positions [lo, hi)."""
    span, parent = tree._span, tree._parent
    while span[v][0] > lo or span[v][1] < hi:
        v = parent[v]
    return v


def lca(tree: LabeledTree, names: Iterable[str]) -> int:
    """Least common ancestor of a non-empty set of leaves; lca({x}) = x."""
    vs = [tree.vertex_of(nm) for nm in names]
    if not vs:
        raise UnknownLeaf("lca of an empty leaf set is undefined")
    at = [tree._span[v][0] for v in vs]
    return _cover(tree, vs[0], min(at), max(at) + 1)


def path_lca_to(tree: LabeledTree, x: str, y: str) -> TreePath:
    """The unique path from lca(x, y) down to the leaf y."""
    if x == y:
        raise SameLeaf(f"need two distinct leaves, got {x!r} twice")
    top = lca(tree, (x, y))
    walk = [tree.vertex_of(y)]
    while walk[-1] != top:
        walk.append(tree.parent(walk[-1]))
    walk.reverse()
    return TreePath(walk)


def restrict(tree: LabeledTree, names: Iterable[str]) -> LabeledTree:
    """Restriction to a leaf subset with label inheritance.

    Topologically: keep the paths connecting the chosen leaves and suppress
    the resulting degree-2 vertices.  A restricted edge inherits the event
    symbol found on its suppressed path, or NO_EVENT when the path carries
    none; two distinct symbols on one suppressed path are a LabelConflict
    (such a tree explains no map).
    """
    keep_names = set(names)
    vs = [tree.vertex_of(nm) for nm in keep_names]
    if len(vs) < 2:
        raise TooFewLeaves("restriction needs at least 2 leaves")

    # a chosen leaf counts 2, every other vertex the number of its children
    # that hold a chosen leaf; a vertex is kept when it counts 2 or more
    parent = tree._parent
    bearing = [0] * tree.n_vertices
    for v in vs:
        bearing[v] = 2
    for v in range(tree.n_vertices - 1, 0, -1):
        if bearing[v]:
            bearing[parent[v]] += 1

    # per vertex, the new id of its nearest kept ancestor-or-self and the
    # symbol on the suppressed path below that one; top's subtree is the
    # ids from top to the last leaf of its span, parents first
    top = lca(tree, keep_names)
    parents: list[Optional[int]] = [None]
    labels: list[Optional[Label]] = [None]
    new_names: dict[int, str] = {}
    carry = {top: (0, NO_EVENT)}
    for v in range(top + 1, tree._leafv[tree._span[top][1] - 1] + 1):
        if not bearing[v]:
            continue
        at, sym = carry[parent[v]]
        lab = tree._labels[v]
        if lab is not NO_EVENT:
            if sym is not NO_EVENT and sym != lab:
                witness, symbols = min(tree.subtree_leaves(v)), sorted((sym, lab))
                raise LabelConflict(
                    f"suppressed path into subtree at {witness!r} carries symbols {symbols}",
                    witness=witness,
                    symbols=symbols,
                )
            sym = lab
        if bearing[v] >= 2:
            carry[v] = (len(parents), NO_EVENT)
            parents.append(at)
            labels.append(sym)
            if tree._names[v] is not None:
                new_names[len(parents) - 1] = tree._names[v]
        else:
            carry[v] = (at, sym)
    return LabeledTree(parents, labels, new_names)


def displays(big: LabeledTree, small: LabeledTree) -> bool:
    """True iff small <= big topologically (labels ignored).

    Equivalent to: every cluster of small is a cluster of big restricted to
    small's leaf set, i.e. small arises from that restriction by edge
    contractions.  A cluster is one exactly when the span of its lca in big
    holds no other leaf of small.
    """
    small_names = frozenset(small.leaf_names)
    if not small_names <= set(big.leaf_names):
        raise LeafSetNotContained(
            "the small tree has leaves outside the big tree's leaf set"
        )
    span = big._span
    # small's leaves as big's leaf positions, sorted, to count the leaves
    # of small that a span of big holds
    at = sorted(span[big.vertex_of(nm)][0] for nm in small_names)
    # bottom-up, each vertex's lca in big is walked up from its first
    # child's; the walks of clusters that pass share no edge of big, so the
    # loop is linear up to the first cluster that fails
    up = [0] * small.n_vertices
    for u in range(small.n_vertices - 1, -1, -1):
        kids = small._children[u]
        if not kids:
            up[u] = big.vertex_of(small._names[u])
            continue
        lo = min(span[up[c]][0] for c in kids)
        hi = max(span[up[c]][1] for c in kids)
        up[u] = v = _cover(big, up[kids[0]], lo, hi)
        lo, hi = span[v]
        if bisect_left(at, hi) - bisect_left(at, lo) != small._span[u][1] - small._span[u][0]:
            return False
    return True


def triples_of(tree: LabeledTree) -> TripleSet:
    """All rooted triples displayed by the tree.

    ab|c is displayed iff lca(a, b) lies strictly below lca(a, b, c), that
    is iff c lies outside span(lca(a, b)).  For leaf positions i < j, the
    lcas of (i, j) for growing j are walked up from leaf i.
    """
    names, n, span = tree.leaf_names, tree.n_leaves, tree._span
    out = []
    for i, v in enumerate(tree._leafv):
        for j in range(i + 1, n):
            v = _cover(tree, v, i, j + 1)
            lo, hi = span[v]
            a, b = names[i], names[j]
            out.extend(RootedTriple(a, b, c) for c in names[:lo])
            out.extend(RootedTriple(a, b, c) for c in names[hi:])
    return TripleSet(out)


def contract_edge(tree: LabeledTree, edge: tuple[int, int]) -> LabeledTree:
    """Contract an inner edge, merging its endpoints; labels elsewhere kept."""
    u, v = edge
    if not (0 <= v < tree.n_vertices) or tree.parent(v) != u:
        raise UnknownEdge(f"({u}, {v}) is not an edge of the tree")
    if tree.is_leaf(v):
        raise OuterEdge("outer edges cannot be contracted (a leaf would vanish)")

    # in canonical preorder u < v: v's children move to u, and every id
    # above v shifts down by one
    keep = [w for w in range(tree.n_vertices) if w != v]
    parents: list[Optional[int]] = [None]
    for w in keep[1:]:
        p = tree.parent(w)
        parents.append(u if p == v else p - (p > v))
    labels = [tree.label(w) for w in keep]
    names = {i: tree.name(w) for i, w in enumerate(keep) if tree.is_leaf(w)}
    return LabeledTree(parents, labels, names)
