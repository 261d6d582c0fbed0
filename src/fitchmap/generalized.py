"""Recognition of tree-like maps and assembly of their least-resolved trees.

A map is tree-like iff (T1) every leaf has at most one distinct incoming
event symbol, so the per-symbol classes quasi-partition the leaf set,
(T2) each class digraph is a simple Fitch graph, (T3) arcs into a class
member from outside the class carry the class symbol, and (T4) members of
the NO_EVENT class have only NO_EVENT in-arcs.  The least-resolved tree
is one laminar hierarchy of clusters: besides the root X, each inner
vertex is the cluster C[y] = X_m minus in(y) of a leaf y in a class X_m,
and the edge above it carries m.  assemble() builds it in one cluster
walk over every class.

recognize() scans the map's columns once, in C, for each leaf's in-mask;
the code at a leaf's lowest in-arc is its class when T1 holds.  One cluster
walk takes these classes in alphabet order, as member masks in the map's
leaf order, and explains() certifies the tree once; by the characterization
theorem this passes exactly on tree-like maps.  Only a failure runs the
diagnostics, on one scan of the entries equal to each column's class code:
T1, else T2 from the walk's failing class (only its digraph is built, to
name the triad), else the arcs entering a class from outside, T3 or T4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    Label,
    LabeledTree,
    QuasiPartition,
    label_token,
)
from .evaluate import _root_paths, explains
from .simple_fitch import Digraph, NotFitch, _bits, _cluster_tree, _gather, _structurally_least_resolved, find_forbidden_triad
from .simple_fitch import least_resolved_simple  # unused here; perfbench/spans.py wraps it, else --trace 1 hits AttributeError


class NotOtimesFree(FitchError):
    """recognize_no_otimes() got a map with a NO_EVENT entry."""


@dataclass(frozen=True)
class AlphabetTooLarge:
    size: int
    limit: int
    kind = "alphabet-too-large"

    def describe(self) -> str:
        return f"{self.size} symbols cannot fit on a tree with {self.limit} edges at most"

    def witness_json(self) -> dict:
        return {"symbols": self.size, "limit": self.limit}


@dataclass(frozen=True)
class T1Violation:
    leaf: str
    symbols: tuple[str, ...]
    kind = "T1"

    def describe(self) -> str:
        return f"leaf {self.leaf!r} has incoming arcs with distinct symbols {list(self.symbols)}"

    def witness_json(self) -> dict:
        return {"leaf": self.leaf, "symbols": list(self.symbols)}


@dataclass(frozen=True)
class T2Violation:
    symbol: str
    triad: Optional[tuple[str, str, str]]
    kind = "T2"

    def describe(self) -> str:
        where = f" (forbidden triad {list(self.triad)})" if self.triad else ""
        return f"class of symbol {self.symbol!r} is not a simple Fitch graph{where}"

    def witness_json(self) -> dict:
        return {"symbol": self.symbol, "triad": list(self.triad) if self.triad else None}


@dataclass(frozen=True)
class T3Violation:
    x: str
    y: str
    expected: str
    found: Label
    kind = "T3"

    def describe(self) -> str:
        return (
            f"arc ({self.y!r}, {self.x!r}) into the {self.expected!r}-class "
            f"carries {label_token(self.found)!r} instead of {self.expected!r}"
        )

    def witness_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "expected": self.expected,
            "found": label_token(self.found),
        }


@dataclass(frozen=True)
class T4Violation:
    x: str
    y: str
    found: str
    kind = "T4"

    def describe(self) -> str:
        return (
            f"leaf {self.x!r} is in the no-event class but arc "
            f"({self.y!r}, {self.x!r}) carries {self.found!r}"
        )

    def witness_json(self) -> dict:
        return {"x": self.x, "y": self.y, "found": self.found}


Violation = Union[AlphabetTooLarge, T1Violation, T2Violation, T3Violation, T4Violation]


@dataclass(frozen=True)
class RecognitionReport:
    """Either a least-resolved explaining tree or one refutation witness."""

    tree: Optional[LabeledTree]
    reason: Optional[Violation]

    def __post_init__(self):
        if (self.tree is None) == (self.reason is None):
            raise ValueError("report must carry exactly one of tree / reason")

    @property
    def tree_like(self) -> bool:
        return self.tree is not None

    def to_json(self) -> dict:
        out = {
            "v": 1,
            "verdict": "tree-like" if self.tree_like else "not-tree-like",
            "reason": None if self.tree_like else self.reason.kind,
            "witness": None if self.tree_like else self.reason.witness_json(),
        }
        return out


def _t1_violation(fmap: FitchMap, ins: list[int], eq: list[int]) -> Optional[T1Violation]:
    """The first leaf, in map order, with an in-arc (a bit of ins[x]) that
    does not carry its lowest in-arc's code (eq[x] masks the rows that do)."""
    for leaf, m, e in zip(fmap.leaves, ins, eq):
        if m & ~e:
            shown = {fmap.label(y, leaf) for y in fmap.leaves if y != leaf} - {NO_EVENT}
            return T1Violation(leaf=leaf, symbols=tuple(sorted(shown)))
    return None


def compute_classes(fmap: FitchMap) -> Union[QuasiPartition, T1Violation]:
    """Sort leaves into per-symbol classes by their incoming event symbols.

    A leaf with two distinct incoming symbols belongs to no class, which is
    exactly a T1 failure; the first such leaf (in map order) is returned.
    """
    ins = fmap._in_masks()
    codes = fmap._lowest_in_codes(ins)
    t1 = _t1_violation(fmap, ins, fmap._eq_masks(codes))
    if t1 is not None:
        return t1
    classes: dict[Label, list[str]] = {lab: [] for lab in (NO_EVENT, *fmap.alphabet)}
    for leaf, c in zip(fmap.leaves, codes):
        classes[fmap.decode(c)].append(leaf)
    return QuasiPartition(classes)


def _class_codes(fmap: FitchMap, classes: QuasiPartition) -> list[int]:
    """Each leaf's class code, 0 for NO_EVENT; ValueError when the classes
    name a symbol or a leaf that the map lacks."""
    code = {s: i + 1 for i, s in enumerate(fmap.alphabet)}
    code[NO_EVENT] = 0
    for lab in classes.classes:
        if lab not in code:
            raise ValueError(f"class symbol {lab!r} is not in the map's alphabet")
    extra = classes.universe.difference(fmap.leaves)
    if extra:
        raise ValueError(f"leaf {min(extra)!r} of the classes is not in the map")
    return [code[classes.class_of(nm)] for nm in fmap.leaves]


def _class_masks(fmap: FitchMap, codes: list[int]) -> list[int]:
    """Per class code, the mask of its members, bit i for leaf i of the map."""
    masks = [0] * (len(fmap.alphabet) + 1)
    for i, c in enumerate(codes):
        masks[c] |= 1 << i
    return masks


def _outside_arcs(fmap: FitchMap, codes: list[int], eq: list[int]) -> Optional[Union[T3Violation, T4Violation]]:
    """First arc (y, x) that enters x from outside x's class but does not
    carry x's class code codes[x] (eq[x] masks the rows that do): T3 for a
    symbol class, T4 for a NO_EVENT leaf, a class of its own.  Order: symbol
    classes in alphabet order, the NO_EVENT class last, then x, then y."""
    members = _class_masks(fmap, codes)
    full = (1 << fmap.n) - 1
    misses = [(full ^ (members[c] if c else 1 << x)) & ~e for x, (c, e) in enumerate(zip(codes, eq))]
    bad = [x for x, miss in enumerate(misses) if miss]
    if not bad:
        return None
    x = min(bad, key=lambda x: (codes[x] == 0, codes[x], x))
    y = (misses[x] & -misses[x]).bit_length() - 1
    leaves = fmap.leaves
    found = fmap.label(leaves[y], leaves[x])
    if codes[x] == 0:
        return T4Violation(leaves[x], leaves[y], found)
    return T3Violation(leaves[x], leaves[y], fmap.alphabet[codes[x] - 1], found)


def check_conditions(fmap: FitchMap, classes: QuasiPartition) -> Optional[Violation]:
    """Check T2, T3, T4 in order and return the first violation found: the
    first class assemble() finds not simple Fitch, else the outside-arc scan.

    T1 is certified by compute_classes; T4 is implied by the class
    computation but re-checked as defense in depth.
    """
    try:
        assemble(fmap, classes)
    except NotFitch as exc:
        return T2Violation(exc.symbol, find_forbidden_triad(exc.digraph))
    codes = _class_codes(fmap, classes)
    return _outside_arcs(fmap, codes, fmap._eq_masks(codes))


def _walk(fmap: FitchMap, members: list[int], ins: list[int]) -> LabeledTree:
    """The cluster walk over the class member masks, in alphabet order."""
    return _cluster_tree(fmap.leaves, list(zip(fmap.alphabet, members[1:])), ins)


def _class_digraph(fmap: FitchMap, members: int, ins: list[int]) -> Digraph:
    """The digraph of one class, the arcs among the leaves of a member mask,
    gathered from the map's in-masks ins."""
    idx = list(_bits(members))
    return Digraph._from_masks(tuple(map(fmap.leaves.__getitem__, idx)), *_gather(ins, fmap.n, idx))


def assemble(fmap: FitchMap, classes: QuasiPartition) -> LabeledTree:
    """Assemble the least-resolved tree for a map satisfying T1 to T4.

    One cluster walk over the symbol classes, in alphabet order, builds the
    whole tree from the class member masks and the map's in-masks, all in
    the map's own leaf order; no class digraph is built on the way.
    NotFitch is raised exactly when a class digraph is not simple Fitch,
    and carries the first such class's ``symbol`` and ``digraph``, built
    then; on a map that breaks T3 or T4 the tree fails to explain it.
    """
    members = _class_masks(fmap, _class_codes(fmap, classes))
    ins = fmap._in_masks()
    try:
        return _walk(fmap, members, ins)
    except NotFitch as exc:
        exc.digraph = _class_digraph(fmap, exc.members, ins)
        raise


def recognize(fmap: FitchMap) -> RecognitionReport:
    """Decide tree-likeness; on success the report carries the unique
    least-resolved explaining tree, certified by explains(), otherwise the
    violation witness that compute_classes() and check_conditions() name.
    The walk takes each leaf's class from its lowest in-arc, exact under
    T1; a certified tree has one symbol per column, so T1 holds.  Only a
    failed walk or certificate scans the columns again, once, to name T1,
    then T2 from the walk's failing class, then T3 or T4."""
    limit = 2 * fmap.n - 2
    if len(fmap.alphabet) > limit:
        return RecognitionReport(None, AlphabetTooLarge(len(fmap.alphabet), limit))
    ins = fmap._in_masks()
    codes = fmap._lowest_in_codes(ins)
    failed = None
    try:
        tree = _walk(fmap, _class_masks(fmap, codes), ins)
        if explains(tree, fmap):
            return RecognitionReport(tree, None)
    except NotFitch as exc:
        failed = exc
    eq = fmap._eq_masks(codes)
    reason = _t1_violation(fmap, ins, eq)
    if reason is None and failed is not None:
        reason = T2Violation(failed.symbol, find_forbidden_triad(_class_digraph(fmap, failed.members, ins)))
    return RecognitionReport(None, reason or _outside_arcs(fmap, codes, eq))


def recognize_no_otimes(fmap: FitchMap) -> RecognitionReport:
    """recognize() for maps without NO_EVENT entries, kept for API
    compatibility."""
    if not fmap.otimes_free:
        raise NotOtimesFree("map contains a NO_EVENT entry")
    return recognize(fmap)


def is_least_resolved_general(tree: LabeledTree) -> bool:
    """Structural least-resolvedness: no inner NO_EVENT edge, and every
    non-root inner vertex meets an outer NO_EVENT edge.  Raises
    LabelConflict for trees that explain no map at all."""
    _root_paths(tree, tree.event_symbols())
    return _structurally_least_resolved(tree)
