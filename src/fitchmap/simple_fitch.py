"""Single-symbol machinery: recognition of simple Fitch digraphs and
construction of their unique least-resolved {symbol, NO_EVENT}-labeled trees.

Two independent recognizers are provided.  The constructive one builds the
least-resolved tree by a recursive source/component decomposition and
certifies its own output by re-evaluation; the triad scanner looks for a
3-subset inducing one of the forbidden 3-vertex digraphs of a
machine-derived table.  It walks vertex pairs over bitmask rows, one
bitmask expression per pair covering every third vertex, and returns the
first forbidden triad in index order.  The two recognizers' equivalence
is established exhaustively in the test suite.
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
    TreeBuilder,
    check_token,
)
from .evaluate import evaluate


class NotFitch(FitchError):
    """The digraph is not explained by any single-symbol labeled tree."""


class AlphabetTooLarge(FitchError):
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

    @classmethod
    def _from_code_rows(cls, names: Sequence[str], rows: list[list[int]], idx: list[int]) -> "Digraph":
        """Digraph on names[i], i in idx (at least two), with arc a->b where
        rows[idx[a]][idx[b]] > 0; rows holds -1 on its diagonal.  The submatrix, axes
        reversed, is one "0"/"1" byte string read by int(..., 2) per row and column."""
        vs = tuple(map(names.__getitem__, idx))
        k = len(idx)
        pick = itemgetter(*reversed(idx))
        mat = b"".join([bytes(map((0).__lt__, pick(rows[i]))) for i in reversed(idx)])
        mat = mat.translate(bytes.maketrans(b"\x00\x01", b"01"))
        out = [int(mat[r:r + k], 2) for r in range(k * k - k, -1, -k)]
        in_ = [int(mat[c::k], 2) for c in range(k - 1, -1, -1)]
        return cls._from_masks(vs, out, in_)

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
        keep = [self._index[nm] for nm in names]
        vs = tuple(self.vertices[i] for i in keep)
        sub = Digraph(vs, ())
        out = list(sub._out)
        in_ = list(sub._in)
        for a, gi in enumerate(keep):
            row = self._out[gi]
            for b, gj in enumerate(keep):
                if a != b and row >> gj & 1:
                    out[a] |= 1 << b
                    in_[b] |= 1 << a
        return Digraph._from_masks(vs, out, in_)

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


def _sim_components(g: Digraph, members: int) -> list[int]:
    """Connected components (as bitmasks) of the relation x ~ y defined by
    'not both arcs xy and yx present', restricted to the member set."""
    both = [g._out[v] & g._in[v] for v in range(g.n)]
    comps = []
    remaining = members
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        comp = low
        frontier = low
        while frontier:
            vbit = frontier & -frontier
            frontier ^= vbit
            v = vbit.bit_length() - 1
            moved = remaining & ~both[v]
            if moved:
                remaining &= both[v]
                comp |= moved
                frontier |= moved
        comps.append(comp)
    return comps


def _decompose(g: Digraph, symbol: str) -> LabeledTree:
    """Unverified recursive decomposition of g (at least 2 vertices).

    Vertices without incoming arcs become NO_EVENT leaf children of the
    local root; the rest splits into components of the 'not doubly linked'
    relation, each hung below a symbol edge (singletons as leaves, larger
    components recursively).  A structural dead end raises NotFitch; on a
    digraph that is not simple Fitch the tree may also just be wrong.
    """
    builder = TreeBuilder()
    vs = g.vertices
    stack: list[tuple[int, int, bool]] = [(builder.root(), (1 << g.n) - 1, True)]
    while stack:
        at, members, is_root = stack.pop()
        sources = [v for v in _bits(members) if g._in[v] & members == 0]
        if not is_root and not sources:
            raise NotFitch(
                "component {"
                + ", ".join(vs[v] for v in _bits(members))
                + "} has no vertex of in-degree 0"
            )
        zmask = 0
        for v in sources:
            zmask |= 1 << v
        rest = members ^ zmask
        comps = _sim_components(g, rest)
        if is_root and not sources and len(comps) == 1 and rest.bit_count() >= 2:
            raise NotFitch("all vertices are pairwise linked into one root component")
        for v in sources:
            builder.child(at, NO_EVENT, name=vs[v])
        for comp in comps:
            if comp & (comp - 1) == 0:
                builder.child(at, symbol, name=vs[comp.bit_length() - 1])
            else:
                stack.append((builder.child(at, symbol), comp, False))
    return builder.freeze()


def least_resolved_simple(g: Digraph, symbol: str = "1") -> LabeledTree:
    """Build the unique least-resolved single-symbol tree explaining g.

    The decomposition's tree is re-evaluated against g, so a wrong tree can
    never be returned; any structural dead end or mismatch raises NotFitch.
    """
    check_token(symbol, "symbol")
    if g.n == 0:
        raise ValueError("digraph must have at least one vertex")
    if g.n == 1:
        return LabeledTree.single_leaf(g.vertices[0])

    tree = _decompose(g, symbol)
    fm = evaluate(tree)
    perm = [fm._index[nm] for nm in g.vertices]
    if Digraph._from_code_rows(fm.leaves, fm._rows, perm)._out != g._out:
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
        raise AlphabetTooLarge(
            f"expected at most one event symbol, found {list(symbols)}"
        )
    return _structurally_least_resolved(tree)
