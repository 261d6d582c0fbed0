"""Value types shared by the whole package.

Maps on ordered leaf pairs (FitchMap), edge-labeled rooted trees
(LabeledTree), the per-symbol leaf classes (QuasiPartition) and rooted
triples.  Every type is immutable after construction and the constructors
validate all structural invariants, so the algorithms never re-check them.
FitchMap's constructor always validates; only FitchMap._from_codes takes
a ready code array unchecked, which the package's builders
(make_fitch_map, read_map, evaluate) write from checked input.

Trees are stored in canonical form: vertices are renumbered in preorder
with the children of every vertex ordered by the smallest leaf name in
their subtree.  Two equal trees therefore have identical arrays, which
makes equality, hashing and topology comparison trivial.  In preorder a
child's id is larger than its parent's, so tree walks are loops over the
vertex ids: top-down in id order, bottom-up in reverse, with no stack.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from sys import byteorder
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class FitchError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidToken(FitchError):
    """A symbol or leaf name violates the lexical rules."""


class ReservedToken(InvalidToken):
    """A symbol or leaf name collides with a serialization reserve."""


class TooFewLeaves(FitchError):
    pass


class DuplicateLeaf(FitchError):
    pass


class MissingEntry(FitchError):
    pass


class ReflexiveEntry(FitchError):
    pass


class UnknownLeaf(FitchError):
    pass


class SameLeaf(FitchError):
    pass


class NonPhylogenetic(FitchError):
    pass


class DuplicateLeafName(FitchError):
    pass


class LeafSetMismatch(FitchError):
    pass


class LeafSetNotContained(FitchError):
    pass


class OuterEdge(FitchError):
    pass


class UnknownEdge(FitchError):
    pass


class LabelConflict(FitchError):
    """Two distinct event symbols on a path that must carry at most one.

    Carries a witness: for pair conflicts the ordered pair (x, y) whose
    connecting path mixes the two symbols; for suppressed-path conflicts a
    textual description of the path.
    """

    def __init__(self, message: str, *, witness=None, symbols=()):
        super().__init__(message)
        self.witness = witness
        self.symbols = tuple(symbols)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class NoEvent:
    """Singleton label of edges on which no event happened (serialized '-')."""

    __slots__ = ()
    _instance: Optional["NoEvent"] = None

    def __new__(cls) -> "NoEvent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_EVENT"

    def __reduce__(self):
        return (NoEvent, ())


NO_EVENT = NoEvent()

#: An edge/pair label: an event symbol (plain string) or NO_EVENT.
Label = Union[str, NoEvent]

_RESERVED_TOKENS = frozenset({"-", "."})
# structural characters of the .fm / .lnw / triples file formats
_FORBIDDEN_CHARS = frozenset("():,;|")


def check_token(token: str, role: str = "symbol") -> str:
    """Validate a symbol or leaf-name token; returns it unchanged."""
    if not isinstance(token, str) or not token:
        raise InvalidToken(f"{role} must be a non-empty string, got {token!r}")
    if token in _RESERVED_TOKENS:
        raise ReservedToken(f"{role} {token!r} is reserved for serialization")
    for ch in token:
        if ch.isspace() or ch in _FORBIDDEN_CHARS:
            raise InvalidToken(f"{role} {token!r} contains forbidden character {ch!r}")
    return token


def _check_edge_labels(labels: Sequence[Optional[Label]], root: int) -> None:
    """Every label but the root's is NO_EVENT or a valid symbol."""
    checked = set()  # each distinct symbol is checked once
    for v, lab in enumerate(labels):
        if v != root and lab is not NO_EVENT:
            if not isinstance(lab, str):
                raise InvalidToken(f"edge label must be a symbol or NO_EVENT, got {lab!r}")
            if lab not in checked:
                checked.add(check_token(lab, "edge label"))


def label_token(label: Label) -> str:
    """Serialized form of a label: the symbol itself, or '-' for NO_EVENT."""
    return "-" if label is NO_EVENT else label


# ---------------------------------------------------------------------------
# rooted triples
# ---------------------------------------------------------------------------

class RootedTriple:
    """The rooted triple ab|c; {a, b} is unordered, so ab|c == ba|c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: str, b: str, c: str):
        if len({a, b, c}) != 3:
            raise SameLeaf(f"triple leaves must be pairwise distinct: {a}, {b}, {c}")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("RootedTriple is immutable")

    def __eq__(self, other):
        if not isinstance(other, RootedTriple):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __lt__(self, other):
        return (self.a, self.b, self.c) < (other.a, other.b, other.c)

    def __repr__(self):
        return f"{self.a}{self.b}|{self.c}"

    @property
    def leaves(self) -> frozenset:
        return frozenset((self.a, self.b, self.c))


class TripleSet:
    """An immutable set of rooted triples together with its leaf universe."""

    __slots__ = ("triples", "leaves")

    def __init__(self, triples: Iterable[RootedTriple] = ()):
        ts = frozenset(triples)
        for t in ts:
            if not isinstance(t, RootedTriple):
                raise TypeError(f"not a RootedTriple: {t!r}")
        object.__setattr__(self, "triples", ts)
        universe = set()
        for t in ts:
            universe |= t.leaves
        object.__setattr__(self, "leaves", frozenset(universe))

    def __setattr__(self, name, value):
        raise AttributeError("TripleSet is immutable")

    def __iter__(self) -> Iterator[RootedTriple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t) -> bool:
        return t in self.triples

    def __eq__(self, other):
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self):
        return hash(self.triples)

    def __le__(self, other: "TripleSet") -> bool:
        return self.triples <= other.triples

    def __repr__(self):
        inner = ", ".join(repr(t) for t in sorted(self.triples))
        return f"TripleSet({{{inner}}})"


# ---------------------------------------------------------------------------
# labeled trees
# ---------------------------------------------------------------------------

class LabeledTree:
    """Rooted phylogenetic tree with an edge label on every edge.

    The edge above vertex v carries label(v); the root (vertex 0 after
    canonicalization) has no edge and label(root) is None.  Leaf positions
    follow the canonical preorder, and span(v) gives the half-open interval
    of leaf positions below v.
    """

    __slots__ = (
        "_parent", "_children", "_labels", "_names",
        "_name2v", "_depth", "_span", "_leafv",
    )

    def __init__(
        self,
        parents: Sequence[Optional[int]],
        labels: Sequence[Optional[Label]],
        names: Mapping[int, str],
        *,
        _allow_single: bool = False,
    ):
        n = len(parents)
        if len(labels) != n:
            raise ValueError("parents and labels must have equal length")
        roots = [v for v, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise NonPhylogenetic(f"tree must have exactly one root, found {len(roots)}")
        root = roots[0]

        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                continue
            if not (0 <= p < n):
                raise NonPhylogenetic(f"vertex {v} has out-of-range parent {p}")
            children[p].append(v)

        # each vertex has one parent, so the vertices this misses lie on a cycle
        order = [root]
        for v in order:
            order.extend(children[v])
        if len(order) != n:
            raise NonPhylogenetic("tree is disconnected")

        leaves = [v for v in range(n) if not children[v]]
        if set(names) != set(leaves):
            raise NonPhylogenetic("leaf_name must be a bijection on the leaf vertices")
        seen_names = set()
        for v in leaves:
            nm = check_token(names[v], "leaf name")
            if nm in seen_names:
                raise DuplicateLeafName(f"duplicate leaf name {nm!r}")
            seen_names.add(nm)

        if n == 1:
            if not _allow_single:
                raise NonPhylogenetic("a phylogenetic tree needs at least two leaves")
        else:
            for v in range(n):
                if children[v] and len(children[v]) < 2:
                    kind = "root" if v == root else "inner vertex"
                    raise NonPhylogenetic(f"{kind} has a single child (degree-2 vertex)")
            _check_edge_labels(labels, root)

        # canonical order: children sorted by smallest leaf name in subtree
        minleaf: list[str] = [""] * n
        for v in reversed(order):
            kids = children[v]
            if kids:
                kids.sort(key=minleaf.__getitem__)
                minleaf[v] = minleaf[kids[0]]
            else:
                minleaf[v] = names[v]

        # the input's vertices in canonical preorder; vertex pre[i] becomes i
        pre: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            pre.append(v)
            stack.extend(reversed(children[v]))
        new_of = [0] * n
        for i, v in enumerate(pre):
            new_of[v] = i

        new_parent = [-1] + [new_of[parents[v]] for v in pre[1:]]
        new_children = [tuple([new_of[c] for c in children[v]]) for v in pre]
        new_names = tuple(map(names.get, pre))
        leafv = [v for v in range(n) if not new_children[v]]
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[new_parent[v]] + 1
        # a leaf spans its own position; an inner vertex, its first
        # child's start to its last child's end
        span: list = [None] * n
        for pos, v in enumerate(leafv):
            span[v] = (pos, pos + 1)
        for v in range(n - 1, -1, -1):
            kids = new_children[v]
            if kids:
                span[v] = (span[kids[0]][0], span[kids[-1]][1])

        object.__setattr__(self, "_parent", tuple(new_parent))
        object.__setattr__(self, "_children", tuple(new_children))
        object.__setattr__(self, "_labels", (None, *[labels[v] for v in pre[1:]]))
        object.__setattr__(self, "_names", new_names)
        object.__setattr__(self, "_name2v", {new_names[v]: v for v in leafv})
        object.__setattr__(self, "_depth", tuple(depth))
        object.__setattr__(self, "_span", tuple(span))
        object.__setattr__(self, "_leafv", tuple(leafv))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledTree is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(cls, spec) -> "LabeledTree":
        """Build a tree from a nested spec.

        A spec is either a leaf name (str) or a sequence of (child_spec,
        label) pairs describing the children of an inner vertex.
        """
        parents: list[Optional[int]] = []
        labels: list[Optional[Label]] = []
        names: dict[int, str] = {}
        # vertices are numbered in the order they are popped, i.e. preorder
        stack = [(spec, None, None)]
        while stack:
            node, parent, label = stack.pop()
            vid = len(parents)
            parents.append(parent)
            labels.append(label)
            if isinstance(node, str):
                names[vid] = node
            else:
                stack.extend((child, vid, lab) for child, lab in reversed(node))
        return cls(parents, labels, names)

    @classmethod
    def single_leaf(cls, name: str) -> "LabeledTree":
        """Degenerate one-leaf tree; not phylogenetic, for internal plumbing."""
        return cls([None], [None], {0: name}, _allow_single=True)

    def with_labels(self, labels: Sequence[Optional[Label]]) -> "LabeledTree":
        """Clone with new edge labels, which are validated as the
        constructor validates them; the topology is not re-checked.

        Canonical vertex order only depends on leaf names, so relabeling
        preserves it.
        """
        if len(labels) != len(self._parent):
            raise ValueError("label sequence has wrong length")
        lab = list(labels)
        lab[0] = None
        _check_edge_labels(lab, 0)
        new = object.__new__(LabeledTree)
        for slot in self.__slots__:
            object.__setattr__(new, slot, getattr(self, slot))
        object.__setattr__(new, "_labels", tuple(lab))
        return new

    # -- basic accessors -----------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    @property
    def n_vertices(self) -> int:
        return len(self._parent)

    @property
    def n_leaves(self) -> int:
        return len(self._leafv)

    @property
    def is_phylogenetic(self) -> bool:
        return self.n_leaves >= 2

    @property
    def leaf_names(self) -> tuple[str, ...]:
        """Leaf names in canonical (preorder) position order."""
        return tuple(self._names[v] for v in self._leafv)

    @property
    def leaf_vertices(self) -> tuple[int, ...]:
        return self._leafv

    def parent(self, v: int) -> Optional[int]:
        p = self._parent[v]
        return None if p < 0 else p

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def label(self, v: int) -> Optional[Label]:
        """Label of the edge above v (None for the root)."""
        return self._labels[v]

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def is_inner(self, v: int) -> bool:
        return bool(self._children[v])

    def name(self, v: int) -> Optional[str]:
        return self._names[v]

    def vertex_of(self, name: str) -> int:
        try:
            return self._name2v[name]
        except KeyError:
            raise UnknownLeaf(f"no leaf named {name!r}") from None

    def depth(self, v: int) -> int:
        return self._depth[v]

    def span(self, v: int) -> tuple[int, int]:
        """Half-open interval of leaf positions below v."""
        return self._span[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (parent, child), children in canonical order."""
        for v in range(1, self.n_vertices):
            yield self._parent[v], v

    def inner_edges(self) -> Iterator[tuple[int, int]]:
        for v in range(1, self.n_vertices):
            if self._children[v]:
                yield self._parent[v], v

    def event_symbols(self) -> tuple[str, ...]:
        """Sorted distinct non-NO_EVENT labels occurring on the edges."""
        return tuple(sorted({l for l in self._labels[1:] if l is not NO_EVENT}))

    def subtree_leaves(self, v: int) -> tuple[str, ...]:
        lo, hi = self._span[v]
        return tuple(self._names[u] for u in self._leafv[lo:hi])

    def clusters(self) -> frozenset:
        """Leaf-name sets of every subtree (including singletons and X)."""
        return frozenset(frozenset(self.subtree_leaves(v)) for v in range(self.n_vertices))

    # -- comparison ----------------------------------------------------------

    def topology_key(self):
        """Canonical label-free form; equal keys mean equal topologies."""
        # children have larger ids, so a reverse loop meets them first
        done: list = list(self._names)
        for v in range(len(done) - 1, -1, -1):
            kids = self._children[v]
            if kids:
                done[v] = tuple([done[c] for c in kids])
        return done[0]

    def same_topology(self, other: "LabeledTree") -> bool:
        """Equal topology_key()s; in canonical form that is equal parent
        arrays and equal leaf names."""
        return self._parent == other._parent and self._names == other._names

    def __eq__(self, other):
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return (
            self._parent == other._parent
            and self._labels == other._labels
            and self._names == other._names
        )

    def __hash__(self):
        return hash((self._parent, self._labels, self._names))

    def _text(self) -> str:
        """Canonical serialized form of the rooted-tree body (no ';')."""
        # children have larger ids, so a reverse loop meets them first
        done: list = list(self._names)
        labels = self._labels
        for v in range(len(done) - 1, -1, -1):
            kids = self._children[v]
            if kids:
                parts = [f"{done[c]}:{label_token(labels[c])}" for c in kids]
                done[v] = "(" + ",".join(parts) + ")"
                # drop the children's texts: the live ones are disjoint
                # subtrees, so a deep chain holds O(n) characters at once
                for c in kids:
                    done[c] = None
        return done[0]

    def __repr__(self):
        return f"<LabeledTree {self._text()};>"


class TreeBuilder:
    """Mutable helper assembling a LabeledTree bottom-up."""

    def __init__(self):
        self._parents: list[Optional[int]] = []
        self._labels: list[Optional[Label]] = []
        self._names: dict[int, str] = {}

    def root(self) -> int:
        if self._parents:
            raise ValueError("root already created")
        self._parents.append(None)
        self._labels.append(None)
        return 0

    def child(self, parent: int, label: Label, name: Optional[str] = None) -> int:
        vid = len(self._parents)
        self._parents.append(parent)
        self._labels.append(label)
        if name is not None:
            self._names[vid] = name
        return vid

    def graft_children(self, at: int, tree: LabeledTree) -> None:
        """Attach copies of tree's root children below `at` (roots identified)."""
        mapping = {tree.root: at}
        for p, v in tree.edges():
            mapping[v] = self.child(mapping[p], tree.label(v), tree.name(v))

    def freeze(self) -> LabeledTree:
        return LabeledTree(self._parents, self._labels, self._names)


# ---------------------------------------------------------------------------
# maps on ordered leaf pairs
# ---------------------------------------------------------------------------

def _code_array(size: int) -> array:
    """An empty code array for an alphabet of `size` symbols: the smallest
    signed typecode that holds every code from -1 to size."""
    for typecode in "bhi":
        if size < 1 << 8 * array(typecode).itemsize - 1:
            return array(typecode)
    return array("q")


def _item(codes: array, code: int) -> bytes:
    """The bytes of one code as an item of the code array `codes`; a row
    built as the join of its items goes in with one frombytes."""
    return code.to_bytes(codes.itemsize, byteorder, signed=True)


@lru_cache(maxsize=256)
def _equal_to(byte: int) -> bytes:
    """Translate table taking `byte` to b"1" and every other byte to b"0"."""
    return b"0" * byte + b"1" + b"0" * (255 - byte)


def _leaf_index(leaves: tuple) -> dict[str, int]:
    """Each leaf's position; TooFewLeaves, InvalidToken or DuplicateLeaf
    when the leaves cannot name a map."""
    if len(leaves) < 2:
        raise TooFewLeaves(f"a map needs at least 2 leaves, got {len(leaves)}")
    index: dict[str, int] = {}
    for nm in leaves:
        check_token(nm, "leaf name")
        if nm in index:
            raise DuplicateLeaf(f"duplicate leaf {nm!r}")
        index[nm] = len(index)
    return index


def _list_codes(n: int, alphabet: tuple, rows) -> array:
    """The code array of list rows, checked: n rows of n codes, -1 exactly
    on the diagonal and 0 to len(alphabet) elsewhere, over an alphabet of
    distinct valid symbols that all occur.  Each row is checked in C."""
    k = len(alphabet)
    for s in alphabet:
        check_token(s, "symbol")
    if len(set(alphabet)) < k:
        raise ValueError(f"alphabet {list(alphabet)} repeats a symbol")
    rows = list(rows)
    if len(rows) != n:
        raise ValueError(f"a map on {n} leaves needs {n} rows, got {len(rows)}")
    codes = _code_array(k)
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n or row[i] != -1 or row.count(-1) != 1 or min(row) < -1 or max(row) > k:
            raise ValueError(f"row {i} must hold {n} codes: -1 at {i} only, 0 to {k} elsewhere")
        codes.fromlist(row)
    unused = set(range(1, k + 1)).difference(codes)
    if unused:
        raise ValueError(f"symbol {alphabet[min(unused) - 1]!r} occurs in no entry")
    return codes


class FitchMap:
    """A total map from ordered distinct leaf pairs to labels.

    The entries live in one flat row-major code array of n * n items, of
    the smallest signed typecode that holds the largest code: 0 is
    NO_EVENT, code i >= 1 is alphabet[i-1], and the diagonal holds -1.  The
    alphabet is always exactly the set of symbols that occur (surjectivity).
    Only this class reads the array; the rest of the package calls _row,
    _rows_bytes, _in_masks, _lowest_in_codes and _eq_masks, and gathers
    every digraph on a subset of the leaves from the in-masks
    (simple_fitch._gather).  The column scans run in C: one strided slice
    gathers a d-byte piece of every row, read from row n-1 up to row 0,
    where d is the largest of 8, 4, 2 and 1 that divides a row's bytes;
    byte k of every entry of a column in those pieces is one sequential
    stride-d slice, and translating it to "0"/"1" gives a mask with bit y
    for row y through int(..., 2).  The gather is wide because a stride of
    a power of two maps a column onto a few cache sets.  Only _eq_masks,
    and io's byte writer, which calls _rows_bytes for one-byte codes only,
    see the code width.

    The constructor validates its row lists; the package's builders,
    which check their own input, hand over a ready array through
    _from_codes.
    """

    __slots__ = ("leaves", "alphabet", "_index", "_codes", "_labels")

    def __init__(self, leaves: Sequence[str], alphabet: Sequence[str], rows):
        """rows: the code matrix as n row sequences of n codes, validated
        with the leaves and the alphabet; a flat array is not a row list."""
        leaves, alphabet = tuple(leaves), tuple(alphabet)
        _leaf_index(leaves)
        self._keep(leaves, alphabet, _list_codes(len(leaves), alphabet, rows))

    @classmethod
    def _from_codes(cls, leaves: tuple, alphabet: tuple, codes: array) -> "FitchMap":
        """The map on a ready code array from _code_array(len(alphabet)),
        kept unchecked: the package's builders validate their input."""
        fmap = object.__new__(cls)
        fmap._keep(leaves, alphabet, codes)
        return fmap

    def _keep(self, leaves: tuple, alphabet: tuple, codes: array) -> None:
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(leaves)})
        object.__setattr__(self, "_codes", codes)
        # decoding table: labels[code], and labels[-1] is the diagonal's None
        object.__setattr__(self, "_labels", (NO_EVENT, *alphabet, None))

    def __setattr__(self, name, value):
        raise AttributeError("FitchMap is immutable")

    @property
    def n(self) -> int:
        return len(self.leaves)

    def decode(self, code: int) -> Optional[Label]:
        """The label of a code; None for the diagonal's -1."""
        return self._labels[code]

    def _row(self, i: int) -> array:
        """Row i's codes, -1 at i, as a new array of the map's typecode."""
        n = self.n
        return self._codes[i * n:i * n + n]

    def _rows_bytes(self, i: int, j: int) -> bytes:
        """The bytes of rows i to j - 1 of the code array, in order."""
        n = self.n
        return memoryview(self._codes)[i * n:j * n].tobytes()

    def _eq_masks(self, targets: Sequence[int]) -> list[int]:
        """Per column x, in map order, the mask of the rows y whose entry
        (y, x) is targets[x]: the AND over the entry's bytes of one
        translated byte plane each.

        The array's bytes are read as d-byte pieces, d the largest of 8, 4,
        2 and 1 that divides a row's bytes, so that d / itemsize columns
        share one strided gather of n pieces, rows n-1 down to 0.  A byte
        slice per column would stride by a row, and at a power-of-two n
        every entry of a column falls into the same few cache sets.  Byte
        plane b of column k in a gathered chunk is the sequential slice
        chunk[k * itemsize + b::d]."""
        codes = self._codes
        n, size = self.n, codes.itemsize
        row = n * size
        d = min(8, row & -row)
        per, step = d // size, row // d  # columns per piece, pieces per row
        last = (n - 1) * step  # the first piece of row n-1
        planes: dict[int, list] = {}  # target -> its (byte plane, table) pairs
        masks = []
        with memoryview(codes).cast("B").cast("BHIQ"[d.bit_length() - 1]) as pieces:
            for x, target in enumerate(targets):
                group, k = divmod(x, per)
                if not k:
                    chunk = pieces[last + group::-step].tobytes()
                pairs = planes.get(target)
                if pairs is None:
                    pairs = planes[target] = [
                        (b, _equal_to(byte)) for b, byte in enumerate(_item(codes, target))
                    ]
                mask = -1
                for b, table in pairs:
                    mask &= int(chunk[k * size + b::d].translate(table), 2)
                masks.append(mask)
        return masks

    def _in_masks(self) -> list[int]:
        """Per column x, in map order, the mask of the rows y whose entry
        (y, x) is a symbol, i.e. neither 0 nor the diagonal."""
        full = (1 << self.n) - 1
        return [full ^ 1 << x ^ zero for x, zero in enumerate(self._eq_masks([0] * self.n))]

    def _lowest_in_codes(self, ins: Sequence[int]) -> list[int]:
        """Per column x, in map order, the code of its lowest in-arc, the
        row at the lowest bit of the in-mask ins[x]; 0 for no in-arc."""
        n, codes = self.n, self._codes
        return [codes[((m & -m).bit_length() - 1) * n + x] if m else 0 for x, m in enumerate(ins)]

    def label(self, x: str, y: str) -> Label:
        try:
            at = self._index[x] * self.n + self._index[y]
        except KeyError as e:
            raise UnknownLeaf(f"no leaf named {e.args[0]!r}") from None
        if x == y:
            raise ReflexiveEntry(f"the map is not defined on ({x}, {x})")
        return self._labels[self._codes[at]]

    def pairs(self) -> Iterator[tuple[tuple[str, str], Label]]:
        leaves, labels = self.leaves, self._labels
        for i, x in enumerate(leaves):
            for y, lab in zip(leaves, map(labels.__getitem__, self._row(i))):
                if lab is not None:
                    yield (x, y), lab

    def event_arcs(self) -> frozenset:
        """Ordered pairs whose label is an event symbol."""
        leaves, n = self.leaves, self.n
        return frozenset(
            (leaves[p // n], leaves[p % n]) for p, code in enumerate(self._codes) if code > 0
        )

    @property
    def otimes_free(self) -> bool:
        return 0 not in self._codes

    def encoding(self, order: Optional[Sequence[str]] = None) -> tuple:
        """Entry matrix as nested label tuples in the given leaf order."""
        decode = self._labels.__getitem__
        if order is None:
            return tuple(tuple(map(decode, self._row(i))) for i in range(self.n))
        try:
            perm = [self._index[nm] for nm in order]
        except KeyError as e:
            raise UnknownLeaf(f"no leaf named {e.args[0]!r}") from None
        return tuple(tuple(map(decode, map(self._row(i).__getitem__, perm))) for i in perm)

    def __eq__(self, other):
        if not isinstance(other, FitchMap):
            return NotImplemented
        if set(self.leaves) != set(other.leaves):
            return False
        order = sorted(self.leaves)
        return self.encoding(order) == other.encoding(order)

    def __repr__(self):
        return f"<FitchMap on {self.n} leaves, alphabet {list(self.alphabet)}>"


def make_fitch_map(
    leaves: Sequence[str],
    entries: Mapping[tuple[str, str], Label],
) -> FitchMap:
    """Validate and build a FitchMap; the alphabet is normalized to the
    symbols that actually occur."""
    leaves = tuple(leaves)
    index = _leaf_index(leaves)
    n = len(leaves)
    symbols = set()
    for (x, y), lab in entries.items():
        if x not in index or y not in index:
            missing = x if x not in index else y
            raise UnknownLeaf(f"entry mentions unknown leaf {missing!r}")
        if x == y:
            raise ReflexiveEntry(f"entry on reflexive pair ({x}, {x})")
        if lab is not NO_EVENT:
            if not isinstance(lab, str):
                raise InvalidToken(f"label must be a symbol or NO_EVENT, got {lab!r}")
            symbols.add(lab)
    for s in symbols:
        check_token(s, "symbol")

    alphabet = tuple(sorted(symbols))
    codes = _code_array(len(alphabet))
    item = {lab: _item(codes, c) for c, lab in enumerate((NO_EVENT, *alphabet))}
    diagonal = _item(codes, -1)
    for i, x in enumerate(leaves):
        row = [diagonal] * n
        for j, y in enumerate(leaves):
            if i == j:
                continue
            try:
                lab = entries[(x, y)]
            except KeyError:
                raise MissingEntry(f"no entry for ordered pair ({x}, {y})") from None
            row[j] = item[lab]
        codes.frombytes(b"".join(row))
    return FitchMap._from_codes(leaves, alphabet, codes)


# ---------------------------------------------------------------------------
# quasi-partition of the leaf set
# ---------------------------------------------------------------------------

class QuasiPartition:
    """Leaf classes keyed by label: one class per symbol plus the NO_EVENT
    class; pairwise disjoint, covering, with at most one empty member."""

    __slots__ = ("classes", "_class_of")

    def __init__(self, classes: Mapping[Label, Iterable[str]]):
        cls = {lab: frozenset(members) for lab, members in classes.items()}
        if NO_EVENT not in cls:
            raise ValueError("quasi-partition must include the NO_EVENT class")
        class_of: dict[str, Label] = {}
        empties = 0
        for lab, members in cls.items():
            if not members:
                empties += 1
            for nm in members:
                if nm in class_of:
                    raise ValueError(f"leaf {nm!r} appears in two classes")
                class_of[nm] = lab
        if empties > 1:
            raise ValueError("more than one empty class")
        object.__setattr__(self, "classes", cls)
        object.__setattr__(self, "_class_of", class_of)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPartition is immutable")

    def members(self, label: Label) -> frozenset:
        return self.classes[label]

    def class_of(self, name: str) -> Label:
        try:
            return self._class_of[name]
        except KeyError:
            raise UnknownLeaf(f"no leaf named {name!r}") from None

    @property
    def universe(self) -> frozenset:
        return frozenset(self._class_of)

    def __eq__(self, other):
        if not isinstance(other, QuasiPartition):
            return NotImplemented
        return self.classes == other.classes

    def __repr__(self):
        parts = ", ".join(
            f"{label_token(lab)}:{sorted(m)}" for lab, m in sorted(
                self.classes.items(), key=lambda kv: label_token(kv[0])
            )
        )
        return f"<QuasiPartition {parts}>"
