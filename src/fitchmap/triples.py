"""Rooted-triple machinery: informative-triple extraction, BUILD
consistency, distinguishing edges, and a brute-force closure for small
leaf sets.

The informative patterns are derived by enumeration: a labeled 3-vertex
digraph is informative when exactly one labeled binary triple (and no
star) evaluates to it, so every explaining tree must display that triple.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    LabeledTree,
    RootedTriple,
    TooFewLeaves,
    TreeBuilder,
    TripleSet,
    UnknownEdge,
    UnknownLeaf,
)
from .evaluate import evaluate
# abstract 3-vertex digraphs are encoded as the 6-tuple of labels of the
# ordered pairs _PAIR_ORDER, over the role alphabet {"A", "B"} plus NO_EVENT
from .simple_fitch import _TRIAD_PAIRS as _PAIR_ORDER
from .treeops import lca, triples_of
from . import oracle


class Inconsistent(FitchError):
    """No tree displays the given triples; carries one stuck leaf set."""

    def __init__(self, component: Iterable[str]):
        comp = frozenset(component)
        super().__init__(
            "triples are inconsistent: the leaf set {"
            + ", ".join(sorted(comp))
            + "} cannot be split"
        )
        self.component = comp


class InconsistentInput(FitchError):
    """Closure of an inconsistent triple set was requested."""


def _role_normalize(enc: tuple) -> tuple:
    """Rename event symbols to roles A, B by first appearance in the fixed
    pair order; NO_EVENT stays put."""
    roles: dict[str, str] = {}
    out = []
    for lab in enc:
        if lab is NO_EVENT:
            out.append(NO_EVENT)
        else:
            if lab not in roles:
                roles[lab] = "AB"[len(roles)]
            out.append(roles[lab])
    return tuple(out)


def _permute_enc(enc: tuple, perm: Sequence[int]) -> tuple:
    by_pair = {p: lab for p, lab in zip(_PAIR_ORDER, enc)}
    return tuple(by_pair[(perm.index(i), perm.index(j))] for i, j in _PAIR_ORDER)


class InformativePatternTable:
    """Lookup from labeled 3-vertex digraphs to the unique triple forced.

    patterns holds one (encoding, positions, tree) representative per
    isomorphism class; the tree is the unique labeled binary explainer.
    """

    __slots__ = ("patterns", "_lookup")

    def __init__(self, patterns: tuple, lookup: dict):
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "_lookup", lookup)

    def __setattr__(self, name, value):
        raise AttributeError("InformativePatternTable is immutable")

    def __len__(self) -> int:
        return len(self.patterns)

    def match(self, enc: tuple) -> Optional[tuple[int, int, int]]:
        """Positions (i, j, k) meaning triple ij|k, or None."""
        if len({lab for lab in enc if lab is not NO_EVENT}) > 2:
            return None
        return self._lookup.get(_role_normalize(enc))


@lru_cache(maxsize=1)
def derive_informative_patterns() -> InformativePatternTable:
    """Enumerate every consistent two-role labeling of the 3-leaf shapes,
    evaluate them, and keep the digraphs realized by exactly one labeled
    binary triple and by no star."""
    names = ("p", "q", "r")
    star = LabeledTree.build(tuple((nm, NO_EVENT) for nm in names))
    binaries = {}
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        spec = (
            (((names[i], NO_EVENT), (names[j], NO_EVENT)), NO_EVENT),
            (names[k], NO_EVENT),
        )
        binaries[(i, j, k)] = LabeledTree.build(spec)

    def enc_of(fm: FitchMap) -> tuple:
        return tuple(fm.label(names[i], names[j]) for i, j in _PAIR_ORDER)

    explainers: dict[tuple, list] = {}
    for topo, positions in [(star, None)] + [(t, p) for p, t in binaries.items()]:
        for labeled in oracle.enumerate_consistent_labelings(topo, ("A", "B")):
            enc = enc_of(evaluate(labeled))
            explainers.setdefault(enc, []).append((positions, labeled))

    def sort_key(enc: tuple) -> tuple:
        return tuple("-" if lab is NO_EVENT else lab for lab in enc)

    classes: dict[tuple, tuple] = {}  # canonical key -> (enc, positions, tree)
    lookup: dict[tuple, tuple[int, int, int]] = {}
    for enc, found in explainers.items():
        if len(found) != 1 or found[0][0] is None:
            continue
        positions, labeled = found[0]
        keys = []
        for perm in permutations(range(3)):
            key = _role_normalize(_permute_enc(enc, perm))
            value = (perm[positions[0]], perm[positions[1]], perm[positions[2]])
            prev = lookup.get(key)
            if prev is not None and frozenset(prev[:2]) != frozenset(value[:2]):
                raise AssertionError("pattern table is ambiguous")
            lookup[key] = value
            keys.append(key)
        classes.setdefault(min(keys, key=sort_key), (enc, positions, labeled))
    patterns = tuple(sorted(classes.values(), key=lambda p: sort_key(p[0])))
    return InformativePatternTable(patterns, lookup)


def informative_triples(fmap: FitchMap) -> TripleSet:
    """Triples forced by 3-vertex induced subgraphs with a unique explainer."""
    table = derive_informative_patterns()
    rows = [fmap._row(i) for i in range(fmap.n)]
    leaves = fmap.leaves
    out = []
    for idx in combinations(range(fmap.n), 3):
        enc = tuple(
            fmap.decode(rows[idx[i]][idx[j]]) for i, j in _PAIR_ORDER
        )
        hit = table.match(enc)
        if hit is not None:
            i, j, k = hit
            out.append(RootedTriple(leaves[idx[i]], leaves[idx[j]], leaves[idx[k]]))
    return TripleSet(out)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def aho_build(triples: TripleSet, leaves: Iterable[str]) -> LabeledTree:
    """BUILD: a topology displaying all triples, or Inconsistent.

    Labels on the returned tree are placeholders (all NO_EVENT); only the
    topology is meaningful.
    """
    universe = frozenset(leaves)
    if len(universe) < 2:
        raise TooFewLeaves("BUILD needs at least 2 leaves")
    if not triples.leaves <= universe:
        raise UnknownLeaf("triples mention leaves outside the given leaf set")

    builder = TreeBuilder()
    inside = [t for t in sorted(triples) if t.leaves <= universe]
    stack: list[tuple[int, frozenset, list[RootedTriple]]] = [
        (builder.root(), universe, inside)
    ]
    while stack:
        at, members, rs = stack.pop()
        uf = _UnionFind(members)
        for t in rs:
            uf.union(t.a, t.b)
        comps: dict[str, set] = {}
        for nm in members:
            comps.setdefault(uf.find(nm), set()).add(nm)
        if len(comps) == 1:
            raise Inconsistent(members)
        for comp in sorted(comps.values(), key=min):
            if len(comp) == 1:
                builder.child(at, NO_EVENT, name=next(iter(comp)))
            else:
                sub = [t for t in rs if t.leaves <= comp]
                stack.append((builder.child(at, NO_EVENT), frozenset(comp), sub))
    return builder.freeze()


# ---------------------------------------------------------------------------
# closure over exhaustively enumerated small trees
# ---------------------------------------------------------------------------

_CLOSURE_MAX_LEAVES = 7


@lru_cache(maxsize=8)
def _indexed_triple_sets(k: int) -> tuple[int, ...]:
    """For every topology on k index leaves: its displayed triples (i, j, c),
    i < j, as one int with bit (i * k + j) * k + c each, which the garbage
    collector does not track, unlike a set of tuples."""
    names = tuple(str(i) for i in range(k))
    return tuple(
        sum({1 << (int(t.a) * k + int(t.b)) * k + int(t.c) for t in triples_of(topo)})
        for topo in oracle.enumerate_topologies(names)
    )


def closure_small(
    triples: TripleSet, leaves: Optional[Iterable[str]] = None
) -> TripleSet:
    """cl(R): the triples displayed by every tree that displays R,
    computed by exhausting all topologies on the leaf universe."""
    universe = sorted(frozenset(leaves) if leaves is not None else triples.leaves)
    if not triples.leaves <= set(universe):
        raise UnknownLeaf("closure universe does not contain all triple leaves")
    k = len(universe)
    if k > _CLOSURE_MAX_LEAVES:
        raise oracle.TooManyLeaves(
            f"closure is exhaustive and capped at {_CLOSURE_MAX_LEAVES} leaves, got {k}"
        )
    if k < 2:
        return TripleSet()

    pos = {nm: i for i, nm in enumerate(universe)}
    want = sum({
        1 << (min(pos[t.a], pos[t.b]) * k + max(pos[t.a], pos[t.b])) * k + pos[t.c]
        for t in triples
    })
    meet: Optional[int] = None
    for rt in _indexed_triple_sets(k):
        if want & ~rt == 0:
            meet = rt if meet is None else meet & rt
            if not meet:
                # a displayer exists and the intersection cannot grow back
                break
    if meet is None:
        raise InconsistentInput("no tree displays the given triples")
    return TripleSet(
        RootedTriple(universe[bit // k // k], universe[bit // k % k], universe[bit % k])
        for bit in range(meet.bit_length()) if meet >> bit & 1
    )


def identifies(triples: TripleSet, tree: LabeledTree) -> bool:
    """True iff cl(R) over the tree's leaf set equals the tree's triples."""
    return closure_small(triples, tree.leaf_names) == triples_of(tree)


def distinguishes(triple: RootedTriple, tree: LabeledTree, edge: tuple[int, int]) -> bool:
    """True iff lca(a, b) is the edge's lower end and lca(a, b, c) its top."""
    u, v = edge
    if not (0 <= v < tree.n_vertices) or tree.parent(v) != u:
        raise UnknownEdge(f"({u}, {v}) is not an edge of the tree")
    for nm in (triple.a, triple.b, triple.c):
        tree.vertex_of(nm)
    return (
        lca(tree, (triple.a, triple.b)) == v
        and lca(tree, (triple.a, triple.b, triple.c)) == u
    )
