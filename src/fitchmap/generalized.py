"""Recognition of tree-like maps and assembly of their least-resolved trees.

A map is tree-like iff (T1) every leaf has at most one distinct incoming
event symbol, so the per-symbol classes quasi-partition the leaf set,
(T2) each class digraph is a simple Fitch graph, (T3) arcs into a class
member from outside the class carry the class symbol, and (T4) members of
the NO_EVENT class have only NO_EVENT in-arcs.  The assembled tree hangs
each class's least-resolved subtree under the root, below an extra
symbol edge exactly when the subtree is a single leaf or its root meets a
NO_EVENT edge.

recognize() walks the symbol classes once, in alphabet order, building and
decomposing each class digraph once: the first class that is not simple
Fitch is the T2 witness, named from that walk's own digraph.  Otherwise the
assembled tree is certified once with explains(); by the characterization
theorem this passes exactly on tree-like maps, so the scan of arcs entering
a class from outside runs only after a failed certificate, to name T3 or T4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Union

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    Label,
    LabeledTree,
    QuasiPartition,
    TreeBuilder,
    label_token,
)
from .evaluate import evaluate, explains
from .simple_fitch import Digraph, NotFitch, _decompose, _structurally_least_resolved, find_forbidden_triad
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


def compute_classes(fmap: FitchMap) -> Union[QuasiPartition, T1Violation]:
    """Sort leaves into per-symbol classes by their incoming event symbols.

    A leaf with two distinct incoming symbols belongs to no class, which is
    exactly a T1 failure; the first such leaf (in map order) is returned.
    """
    rows = fmap._rows
    classes: dict[Label, list[str]] = {NO_EVENT: []}
    for s in fmap.alphabet:
        classes[s] = []
    for j, col in enumerate(zip(*rows)):
        seen = set(col)
        seen.discard(0)
        seen.discard(-1)
        if len(seen) > 1:
            return T1Violation(
                leaf=fmap.leaves[j],
                symbols=tuple(sorted(fmap.alphabet[c - 1] for c in seen)),
            )
        label = fmap.decode(seen.pop()) if seen else NO_EVENT
        classes[label].append(fmap.leaves[j])
    return QuasiPartition(classes)


def _class_codes(fmap: FitchMap, classes: QuasiPartition) -> list[int]:
    code = {s: i + 1 for i, s in enumerate(fmap.alphabet)}
    out = []
    for nm in fmap.leaves:
        lab = classes.class_of(nm)
        out.append(0 if lab is NO_EVENT else code[lab])
    return out


def _outside_arcs(fmap: FitchMap, classes: QuasiPartition) -> Optional[Union[T3Violation, T4Violation]]:
    """First arc (y, x) that enters x from outside x's class but does not
    carry x's class code: T3 for a symbol class, T4 for a NO_EVENT leaf,
    which is a class of its own.  Order: symbol classes in alphabet order,
    the NO_EVENT class last, then x, then y.  Columns are checked by C-level
    counts; only the failing column named is searched for y."""
    codes = _class_codes(fmap, classes)
    n, rows = fmap.n, fmap._rows
    outside: dict[int, bytes] = {}
    bad = []
    for x, col in enumerate(zip(*rows)):
        c = codes[x]
        if c not in outside:
            # every other leaf is outside a NO_EVENT leaf's class; the -1
            # diagonal is then the one entry of the column that is not 0
            outside[c] = bytes(map(c.__ne__, codes)) if c else b"\1" * n
        seen = list(compress(col, outside[c]))
        if seen.count(c) != len(seen) - (c == 0):
            bad.append(x)
    if not bad:
        return None
    x = min(bad, key=lambda x: (codes[x] == 0, codes[x], x))
    c = codes[x]
    y = next(y for y in range(n) if y != x and (c == 0 or codes[y] != c) and rows[y][x] != c)
    found = fmap.decode(rows[y][x])
    if c == 0:
        return T4Violation(fmap.leaves[x], fmap.leaves[y], found)
    return T3Violation(fmap.leaves[x], fmap.leaves[y], fmap.alphabet[c - 1], found)


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
    return _outside_arcs(fmap, classes)


def assemble(fmap: FitchMap, classes: QuasiPartition) -> LabeledTree:
    """Assemble the least-resolved tree for a map satisfying T1 to T4.

    One walk over the symbol classes, in alphabet order, builds and
    decomposes each class digraph once.  NotFitch is raised exactly when a
    class digraph is not simple Fitch, and carries that class's ``symbol``
    and ``digraph``; on a map that breaks T3 or T4 the tree fails to explain
    it.  A class of one leaf hangs that leaf, an empty class nothing.  When
    one symbol class holds every leaf, its tree already is the answer:
    hanging it below an extra root edge would leave that root with a single
    child, and contracting the edge lands back on the class tree.
    """
    members: list[list[int]] = [[] for _ in range(len(fmap.alphabet) + 1)]
    for i, c in enumerate(_class_codes(fmap, classes)):
        members[c].append(i)
    builder = TreeBuilder()
    rho = builder.root()
    for m, idx in zip(fmap.alphabet, members[1:]):
        if len(idx) < 2:
            for i in idx:
                builder.child(rho, m, name=fmap.leaves[i])
            continue
        g = Digraph._from_code_rows(fmap.leaves, fmap._rows, idx)
        try:
            t_m = _decompose(g, m)
        except NotFitch as exc:
            exc.symbol, exc.digraph = m, g
            raise
        if len(idx) == fmap.n:
            return t_m
        if any(t_m.label(c) is NO_EVENT for c in t_m.children(t_m.root)):
            builder.graft_children(builder.child(rho, m), t_m)
        else:
            builder.graft_children(rho, t_m)
    for i in members[0]:
        builder.child(rho, NO_EVENT, name=fmap.leaves[i])
    return builder.freeze()


def recognize(fmap: FitchMap) -> RecognitionReport:
    """Decide tree-likeness; on success the report carries the unique
    least-resolved explaining tree, certified by explains(), otherwise the
    violation witness that check_conditions() names.  T2 is named from
    assemble()'s own class walk; the outside-arc scan for T3 and T4 runs
    only after a failed certificate."""
    limit = 2 * fmap.n - 2
    if len(fmap.alphabet) > limit:
        return RecognitionReport(None, AlphabetTooLarge(len(fmap.alphabet), limit))
    classes = compute_classes(fmap)
    if isinstance(classes, T1Violation):
        return RecognitionReport(None, classes)
    try:
        tree = assemble(fmap, classes)
    except NotFitch as exc:
        return RecognitionReport(None, T2Violation(exc.symbol, find_forbidden_triad(exc.digraph)))
    if explains(tree, fmap):
        return RecognitionReport(tree, None)
    return RecognitionReport(None, _outside_arcs(fmap, classes))


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
    evaluate(tree)
    return _structurally_least_resolved(tree)
