"""Single-symbol machinery: recognition of simple Fitch digraphs and
construction of their unique least-resolved {symbol, NO_EVENT}-labeled trees.

Two independent recognizers are provided.  The constructive one builds the
least-resolved tree in one pass over the complemented in-neighbourhoods
C[y] = V minus in(y), which form a laminar family exactly on simple Fitch
digraphs (Geiss et al., J. Math. Biol. 2018; Hellmuth and Seemann,
J. Math. Biol. 2019), and certifies its output by re-evaluation; the
same walk over several classes, given as member masks with the in-masks
that FitchMap._in_masks reads off the map, builds the generalized tree.
The triad scanner looks for a 3-subset inducing one of the forbidden
3-vertex digraphs of a machine-derived table.  It walks vertex pairs over
bitmask rows, one bitmask expression per pair covering every third vertex,
and returns the first forbidden triad in index order.  The two recognizers'
equivalence is established exhaustively in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .core import (
    NO_EVENT,
    FitchError,
    LabeledTree,
    check_token,
)
from .evaluate import evaluate


class NotFitch(FitchError):
    """The digraph is not explained by any single-symbol labeled tree."""


class SeveralSymbols(FitchError):
    """A tree handed to the single-symbol checker carries several symbols."""


class Digraph:
    """Irreflexive digraph on named vertices, with bitmask adjacency."""

    __slots__ = ("vertices", "_index", "_out", "_in")

    def __init__(self, vertices: Iterable[str], arcs: Iterable[tuple[str, str]]):
        vs = tuple(vertices)
        index = {}
        for nm in vs:
            check_token(nm, "vertex name")
            if nm in index:
                raise ValueError(f"duplicate vertex {nm!r}")
            index[nm] = len(index)
        out = [0] * len(vs)
        in_ = [0] * len(vs)
        for x, y in arcs:
            if x not in index or y not in index:
                raise ValueError(f"arc ({x!r}, {y!r}) leaves the vertex set")
            if x == y:
                raise ValueError(f"reflexive arc on {x!r}")
            i, j = index[x], index[y]
            out[i] |= 1 << j
            in_[j] |= 1 << i
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", in_)

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    @classmethod
    def _from_masks(cls, vertices: tuple[str, ...], out: list[int], in_: list[int]) -> "Digraph":
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "_index", {nm: i for i, nm in enumerate(vertices)})
        object.__setattr__(g, "_out", out)
        object.__setattr__(g, "_in", in_)
        return g

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def arcs(self) -> frozenset:
        vs = self.vertices
        return frozenset(
            (vs[i], vs[j])
            for i, row in enumerate(self._out)
            for j in _bits(row)
        )

    def induced(self, names: Iterable[str]) -> "Digraph":
        vs = tuple(names)
        for nm in vs:
            if nm not in self._index:
                raise ValueError(f"vertex {nm!r} is not in the digraph")
        if len(set(vs)) != len(vs):
            raise ValueError("induced() got a repeated vertex")
        keep = [self._index[nm] for nm in vs]
        return Digraph._from_masks(vs, *_gather(self._in, self.n, keep))

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.arcs == other.arcs

    def __repr__(self):
        return f"<Digraph {list(self.vertices)} arcs={sorted(self.arcs)}>"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(in_: Sequence[int], n: int, idx: Sequence[int]) -> tuple[list[int], list[int]]:
    """Out- and in-masks of the sub-digraph on the vertices idx, bit a
    standing for idx[a], of the digraph on n vertices with in-masks in_.
    The bits of idx, reversed, are picked from each formatted in-mask of
    idx, reversed, into one k x k "0"/"1" string, read by int(..., 2) per
    row (an in-mask) and column (an out-mask)."""
    k = len(idx)
    if not k:
        return [], []
    pick = itemgetter(*[n - 1 - i for i in reversed(idx)])
    width = f"0{n}b"
    mat = "".join(["".join(pick(format(in_[j], width))) for j in reversed(idx)])
    out = [int(mat[c::k], 2) for c in range(k - 1, -1, -1)]
    ins = [int(mat[r:r + k], 2) for r in range(k * k - k, -1, -k)]
    return out, ins


# arc slots of a 3-vertex digraph, in encoding order
_TRIAD_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_TRIAD_SLOT = {p: i for i, p in enumerate(_TRIAD_PAIRS)}


def _triad_mask(arcs: Iterable[tuple[int, int]]) -> int:
    m = 0
    for p in arcs:
        m |= 1 << _TRIAD_SLOT[p]
    return m


@lru_cache(maxsize=1)
def _canonical_triad() -> tuple[int, ...]:
    """canonical[mask] = minimal mask over the 6 vertex relabelings."""
    canon = []
    for mask in range(64):
        best = 63
        for perm in permutations(range(3)):
            img = _triad_mask(
                (perm[a], perm[b]) for a, b in _TRIAD_PAIRS if mask >> _TRIAD_SLOT[(a, b)] & 1
            )
            best = min(best, img)
        canon.append(best)
    return tuple(canon)


def _three_leaf_trees() -> list[LabeledTree]:
    """The four unlabeled 3-leaf phylogenetic shapes on leaves a, b, c."""
    specs = [
        (("a", NO_EVENT), ("b", NO_EVENT), ("c", NO_EVENT)),
        (((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT), ("c", NO_EVENT)),
        (((("a", NO_EVENT), ("c", NO_EVENT)), NO_EVENT), ("b", NO_EVENT)),
        (((("b", NO_EVENT), ("c", NO_EVENT)), NO_EVENT), ("a", NO_EVENT)),
    ]
    return [LabeledTree.build(s) for s in specs]


class ForbiddenTriadTable:
    """The 3-vertex digraphs not realizable by any single-symbol tree."""

    __slots__ = ("canonical_masks", "_is_forbidden")

    def __init__(self, canonical_masks: frozenset):
        object.__setattr__(self, "canonical_masks", canonical_masks)
        canon = _canonical_triad()
        object.__setattr__(
            self, "_is_forbidden", tuple(canon[m] in canonical_masks for m in range(64))
        )

    def __setattr__(self, name, value):
        raise AttributeError("ForbiddenTriadTable is immutable")

    def __len__(self) -> int:
        return len(self.canonical_masks)


@lru_cache(maxsize=1)
def derive_forbidden_table() -> ForbiddenTriadTable:
    """Derive the forbidden-triad table by exhausting all single-symbol
    labelings of the four 3-leaf tree shapes and complementing."""
    realizable = set()
    for shape in _three_leaf_trees():
        n_edges = shape.n_vertices - 1
        for bits in product((NO_EVENT, "1"), repeat=n_edges):
            labels = [None] + list(bits)
            fm = evaluate(shape.with_labels(labels))
            # leaves are a, b, c; positions in sorted order
            mask = _triad_mask(
                (i, j)
                for i, j in _TRIAD_PAIRS
                if fm.label("abc"[i], "abc"[j]) is not NO_EVENT
            )
            realizable.add(mask)
    canon = _canonical_triad()
    forbidden = frozenset(canon[m] for m in range(64) if m not in realizable)
    return ForbiddenTriadTable(forbidden)


@lru_cache(maxsize=1)
def _pair_kernel() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The forbidden table regrouped for a scan over vertex pairs i < j.

    How a vertex v meets a third vertex k is its quad q = (v->k) | (k->v) << 1.
    Entry [ab][qj] lists the quads qi of i that make (i, j, k) forbidden,
    where ab = (i->j) | (j->i) << 1 and qj is the quad of j.
    """
    forbids = derive_forbidden_table()._is_forbidden

    def forbidden(ab: int, qi: int, qj: int) -> bool:
        # triad vertices 0, 1, 2 are i, j, k
        bits = {
            (0, 1): ab & 1, (1, 0): ab >> 1,
            (0, 2): qi & 1, (2, 0): qi >> 1,
            (1, 2): qj & 1, (2, 1): qj >> 1,
        }
        return forbids[_triad_mask(p for p, bit in bits.items() if bit)]

    return tuple(
        tuple(tuple(qi for qi in range(4) if forbidden(ab, qi, qj)) for qj in range(4))
        for ab in range(4)
    )


def find_forbidden_triad(g: Digraph) -> Optional[tuple[str, str, str]]:
    """First 3-subset (by vertex order) inducing a forbidden digraph.

    The scan walks vertex pairs i < j, not triples.  Each vertex's arc rows
    are split into its four quad masks, one bit per third vertex k, and one
    bitmask expression per pair yields every k > j that completes a
    forbidden triad; the lowest such k is the first in index order.
    """
    kernel = _pair_kernel()
    n = g.n
    full = (1 << n) - 1
    out, in_ = g._out, g._in
    quads = [(full & ~(ov | iv), ov & ~iv, iv & ~ov, ov & iv) for ov, iv in zip(out, in_)]
    for i in range(n - 2):
        own = quads[i]
        # a vertex's quads are disjoint, so their sum is their union
        table = [[sum(own[qi] for qi in qis) for qis in row] for row in kernel]
        oi, ii = out[i], in_[i]
        for j in range(i + 1, n - 1):
            p = table[(oi >> j & 1) | (ii >> j & 1) << 1]
            q = quads[j]
            hits = (p[0] & q[0] | p[1] & q[1] | p[2] & q[2] | p[3] & q[3]) >> (j + 1)
            if hits:
                vs = g.vertices
                return (vs[i], vs[j], vs[j + (hits & -hits).bit_length()])
    return None


def is_simple_fitch(g: Digraph) -> bool:
    """Triad-scan recognizer; digraphs with at most 2 vertices always pass."""
    return find_forbidden_triad(g) is None


def _names(vs: Sequence[str], mask: int) -> str:
    return "{" + ", ".join(vs[v] for v in _bits(mask)) + "}"


def _cluster_tree(vs: Sequence[str], classes: Sequence[tuple[str, int]], in_: Sequence[int]) -> LabeledTree:
    """The least-resolved tree on the leaves `vs`, bit y of every mask
    standing for vs[y].  `classes` lists the symbol classes in walk order
    as (symbol, member mask) pairs, in_[y] is the mask of the leaves with
    an arc into y, and the leaves in no class are the NO_EVENT leaves.
    NotFitch exactly when some class digraph (the arcs within a class) is
    not simple Fitch, carrying the first such class's ``symbol`` and
    ``members`` mask.

    Leaf y of class X_m has the cluster C[y] = X_m minus in(y), a NO_EVENT
    leaf C[y] = X, the whole leaf set.  The tree has a vertex for X and for
    each distinct C[y]; the edge above C[y] carries y's symbol, and each y
    is a NO_EVENT leaf below C[y], or the leaf itself when C[y] = {y}.  The
    walk takes the classes in order, each class's clusters in ascending
    size, and X last.  Each cluster adopts the earlier maximal clusters at
    its lowest uncovered bits, which must lie inside it, and the bits left
    over must be exactly its owners, the y with that C[y].
    """
    full = (1 << len(vs)) - 1
    loose = full
    owners: dict[int, int] = {}
    # clusters sort by (class, size); X, owned by a class only when that
    # class holds every leaf, comes last
    rank: dict[int, tuple[int, int]] = {}
    for i, (_, members) in enumerate(classes):
        loose &= ~members
        for y in _bits(members):
            c = members & ~in_[y]
            owners[c] = owners.get(c, 0) | 1 << y
            rank.setdefault(c, (i, c.bit_count()))
    # the NO_EVENT leaves own X
    owners[full] = owners.get(full, 0) | loose
    rank.setdefault(full, (len(classes), 0))
    parents: list[Optional[int]] = []
    labels: list = []
    names: dict[int, str] = {}
    # earlier maximal clusters by their lowest bit, as (cluster, tree vertex)
    tops: dict[int, tuple[int, int]] = {}
    try:
        for c in sorted(owners, key=rank.__getitem__):
            i = rank[c][0]
            at = len(parents)
            rest = left = c
            while rest:
                low = rest & -rest
                top = tops.pop(low, None)
                if top is None:
                    rest ^= low
                elif top[0] & ~c:
                    raise NotFitch(f"clusters {_names(vs, top[0])} and {_names(vs, c)} overlap")
                else:
                    parents[top[1]] = at
                    rest ^= top[0]
                    left ^= top[0]
            if left != owners[c]:
                raise NotFitch(f"cluster {_names(vs, c)} is C[y] of {_names(vs, owners[c])},"
                               f" but {_names(vs, left)} lie in no smaller cluster")
            parents.append(None)
            labels.append(None if c == full else classes[i][0])
            if c & (c - 1):
                for y in _bits(left):
                    names[len(parents)] = vs[y]
                    parents.append(at)
                    labels.append(NO_EVENT)
            else:
                names[at] = vs[c.bit_length() - 1]
            tops[c & -c] = (c, at)
    except NotFitch as exc:
        exc.symbol, exc.members = classes[i]
        raise
    return LabeledTree(parents, labels, names)


def _decompose(g: Digraph, symbol: str) -> LabeledTree:
    """The least-resolved tree of g (at least 2 vertices), its event edges
    carrying symbol: the cluster walk with g as its only class.  NotFitch
    exactly when g is not simple Fitch, carrying ``digraph`` g."""
    try:
        return _cluster_tree(g.vertices, [(symbol, (1 << g.n) - 1)], g._in)
    except NotFitch as exc:
        exc.digraph = g
        raise


def least_resolved_simple(g: Digraph, symbol: str = "1") -> LabeledTree:
    """Build the unique least-resolved single-symbol tree explaining g.

    NotFitch is raised exactly when g is not simple Fitch.  The built tree
    is also re-evaluated against g, so a wrong tree can never be returned.
    """
    check_token(symbol, "symbol")
    if g.n == 0:
        raise ValueError("digraph must have at least one vertex")
    if g.n == 1:
        return LabeledTree.single_leaf(g.vertices[0])

    tree = _decompose(g, symbol)
    fm = evaluate(tree)
    perm = [fm._index[nm] for nm in g.vertices]
    if _gather(fm._in_masks(), fm.n, perm)[0] != g._out:
        raise NotFitch("constructed tree does not evaluate back to the digraph")
    return tree


def _structurally_least_resolved(tree: LabeledTree) -> bool:
    """No inner NO_EVENT edge, and every non-root inner vertex carries an
    outer NO_EVENT edge."""
    for _, v in tree.inner_edges():
        if tree.label(v) is NO_EVENT:
            return False
    for v in range(1, tree.n_vertices):
        if tree.is_inner(v):
            if not any(
                tree.is_leaf(c) and tree.label(c) is NO_EVENT for c in tree.children(v)
            ):
                return False
    return True


def is_least_resolved_simple(tree: LabeledTree) -> bool:
    """Structural least-resolvedness test for single-symbol trees."""
    symbols = tree.event_symbols()
    if len(symbols) > 1:
        raise SeveralSymbols(
            f"expected at most one event symbol, found {list(symbols)}"
        )
    return _structurally_least_resolved(tree)
