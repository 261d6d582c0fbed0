"""Recognition of tree-like maps and assembly of their least-resolved trees.

A map is tree-like iff (T1) every leaf has at most one distinct incoming
event symbol, so the per-symbol classes quasi-partition the leaf set,
(T2) each class digraph is a simple Fitch graph, (T3) arcs into a class
member from outside the class carry the class symbol, and (T4) members of
the NO_EVENT class have only NO_EVENT in-arcs.  The assembled tree hangs
each class's least-resolved subtree under the root, below an extra
symbol edge exactly when the subtree is a single leaf or its root meets a
NO_EVENT edge.

recognize() assembles that tree once and certifies it once with explains();
by the characterization theorem this passes exactly on tree-like maps, so
the T2/T3 diagnostics of check_conditions() run only to name a witness.
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
    TreeBuilder,
    label_token,
)
from .evaluate import evaluate, explains
from .simple_fitch import Digraph, NotFitch, _decompose, _structurally_least_resolved, find_forbidden_triad, least_resolved_simple


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


def _class_digraph(fmap: FitchMap, member_idx: list[int]) -> Digraph:
    return Digraph._from_code_rows(fmap.leaves, fmap._rows, member_idx)


def _check_t3(fmap: FitchMap, codes: list[int]) -> Optional[T3Violation]:
    rows = fmap._rows
    leaves = fmap.leaves
    for mcode, m in enumerate(fmap.alphabet, start=1):
        for x in range(fmap.n):
            if codes[x] != mcode:
                continue
            for y in range(fmap.n):
                if y == x or codes[y] == mcode:
                    continue
                if rows[y][x] != mcode:
                    return T3Violation(
                        x=leaves[x], y=leaves[y], expected=m, found=fmap.decode(rows[y][x])
                    )
    return None


def _check_t4(fmap: FitchMap, codes: list[int]) -> Optional[T4Violation]:
    rows = fmap._rows
    leaves = fmap.leaves
    for x in range(fmap.n):
        if codes[x] != 0:
            continue
        for y in range(fmap.n):
            if y != x and rows[y][x] != 0:
                return T4Violation(x=leaves[x], y=leaves[y], found=fmap.decode(rows[y][x]))
    return None


def check_conditions(fmap: FitchMap, classes: QuasiPartition) -> Optional[Violation]:
    """Check T2, T3, T4 in order and return the first violation found.

    T1 is certified by compute_classes; T4 is implied by the class
    computation but re-checked as defense in depth.
    """
    codes = _class_codes(fmap, classes)
    for mcode, m in enumerate(fmap.alphabet, start=1):
        member_idx = [i for i in range(fmap.n) if codes[i] == mcode]
        if len(member_idx) < 2:
            continue
        g = _class_digraph(fmap, member_idx)
        try:
            least_resolved_simple(g, symbol=m)
        except NotFitch:
            return T2Violation(symbol=m, triad=find_forbidden_triad(g))
    v3 = _check_t3(fmap, codes)
    if v3 is not None:
        return v3
    return _check_t4(fmap, codes)


def assemble(fmap: FitchMap, classes: QuasiPartition) -> LabeledTree:
    """Assemble the least-resolved tree for a map satisfying T1 to T4.

    The tree is not verified: on other maps it may fail to explain the map,
    or NotFitch is raised at a structural dead end.  When the whole leaf set
    is one symbol class, the class tree already is the answer: hanging it
    below an extra root edge would leave that root with a single child, and
    contracting the edge lands back on the class tree itself.
    """
    codes = _class_codes(fmap, classes)
    no_event_idx = [i for i in range(fmap.n) if codes[i] == 0]

    if len(fmap.alphabet) == 1 and not no_event_idx:
        return _decompose(_class_digraph(fmap, list(range(fmap.n))), fmap.alphabet[0])

    builder = TreeBuilder()
    rho = builder.root()
    for mcode, m in enumerate(fmap.alphabet, start=1):
        member_idx = [i for i in range(fmap.n) if codes[i] == mcode]
        if len(member_idx) == 1:
            builder.child(rho, m, name=fmap.leaves[member_idx[0]])
            continue
        t_m = _decompose(_class_digraph(fmap, member_idx), m)
        root_meets_no_event = any(
            t_m.label(c) is NO_EVENT for c in t_m.children(t_m.root)
        )
        if root_meets_no_event:
            builder.graft_children(builder.child(rho, m), t_m)
        else:
            builder.graft_children(rho, t_m)
    for i in no_event_idx:
        builder.child(rho, NO_EVENT, name=fmap.leaves[i])
    return builder.freeze()


def recognize(fmap: FitchMap) -> RecognitionReport:
    """Decide tree-likeness; on success the report carries the unique
    least-resolved explaining tree, certified by explains(), otherwise the
    violation witness that check_conditions() names."""
    limit = 2 * fmap.n - 2
    if len(fmap.alphabet) > limit:
        return RecognitionReport(None, AlphabetTooLarge(len(fmap.alphabet), limit))
    classes = compute_classes(fmap)
    if isinstance(classes, T1Violation):
        return RecognitionReport(None, classes)
    try:
        tree = assemble(fmap, classes)
    except NotFitch:
        pass
    else:
        if explains(tree, fmap):
            return RecognitionReport(tree, None)
    return RecognitionReport(None, check_conditions(fmap, classes))


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
