"""Pure tree algorithms: ancestry, lca, paths, restriction with label
inheritance, display testing, contraction and triple extraction."""

from __future__ import annotations

from itertools import combinations
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
    TreeBuilder,
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


def lca_vertices(tree: LabeledTree, u: int, v: int) -> int:
    """Least common ancestor of two vertices by depth walking."""
    while u != v:
        if tree.depth(u) >= tree.depth(v):
            u = tree.parent(u)
        else:
            v = tree.parent(v)
    return u


def lca(tree: LabeledTree, names: Iterable[str]) -> int:
    """Least common ancestor of a non-empty set of leaves; lca({x}) = x."""
    vs = [tree.vertex_of(nm) for nm in names]
    if not vs:
        raise UnknownLeaf("lca of an empty leaf set is undefined")
    acc = vs[0]
    for v in vs[1:]:
        acc = lca_vertices(tree, acc, v)
    return acc


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

    # number of children branches holding selected leaves, per vertex
    bearing = [0] * tree.n_vertices
    selected = [False] * tree.n_vertices
    for v in vs:
        selected[v] = True
    for v in range(tree.n_vertices - 1, 0, -1):
        if selected[v] or bearing[v] > 0:
            bearing[tree.parent(v)] += 1

    top = lca(tree, keep_names)
    builder = TreeBuilder()
    new_root = builder.root()

    # walk down from each kept vertex, suppressing single-branch chains
    def descend(old_v: int, new_parent: int) -> None:
        stack = [(c, new_parent, ()) for c in reversed(tree.children(old_v))]
        while stack:
            v, at, events = stack.pop()
            if not selected[v] and bearing[v] == 0:
                continue
            lab = tree.label(v)
            if lab is not NO_EVENT and lab not in events:
                events = events + (lab,)
            if len(events) > 1:
                raise LabelConflict(
                    "suppressed path into subtree at "
                    f"{min(tree.subtree_leaves(v))!r} carries symbols "
                    f"{sorted(events)}",
                    witness=min(tree.subtree_leaves(v)),
                    symbols=sorted(events),
                )
            kept = selected[v] or bearing[v] >= 2
            if kept:
                new_label: Label = events[0] if events else NO_EVENT
                nv = builder.child(at, new_label, tree.name(v) if selected[v] else None)
                for c in reversed(tree.children(v)):
                    stack.append((c, nv, ()))
            else:
                for c in reversed(tree.children(v)):
                    stack.append((c, at, events))

    descend(top, new_root)
    return builder.freeze()


def _restricted_clusters(tree: LabeledTree, names: frozenset) -> set:
    """Clusters of the label-free restriction tree|names (no tree built)."""
    out = set()
    for c in tree.clusters():
        cut = c & names
        if cut:
            out.add(cut)
    return out


def displays(big: LabeledTree, small: LabeledTree) -> bool:
    """True iff small <= big topologically (labels ignored).

    Equivalent to: every cluster of small is a cluster of big restricted to
    small's leaf set, i.e. small arises from that restriction by edge
    contractions.
    """
    small_names = frozenset(small.leaf_names)
    if not small_names <= set(big.leaf_names):
        raise LeafSetNotContained(
            "the small tree has leaves outside the big tree's leaf set"
        )
    return small.clusters() <= _restricted_clusters(big, small_names)


def triples_of(tree: LabeledTree) -> TripleSet:
    """All rooted triples displayed by the tree.

    ab|c is displayed iff lca(a,b) lies strictly below lca(a,b,c); the
    overall lca of a triple is the shallowest of its three pairwise lcas,
    and at most one pairwise lca is strictly deeper.
    """
    names = tree.leaf_names
    pair_lca: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(names)), 2):
        pair_lca[(i, j)] = lca_vertices(tree, tree.leaf_vertices[i], tree.leaf_vertices[j])
    out = []
    for i, j, k in combinations(range(len(names)), 3):
        dij = tree.depth(pair_lca[(i, j)])
        dik = tree.depth(pair_lca[(i, k)])
        djk = tree.depth(pair_lca[(j, k)])
        dtop = min(dij, dik, djk)
        if dij > dtop:
            out.append(RootedTriple(names[i], names[j], names[k]))
        elif dik > dtop:
            out.append(RootedTriple(names[i], names[k], names[j]))
        elif djk > dtop:
            out.append(RootedTriple(names[j], names[k], names[i]))
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
