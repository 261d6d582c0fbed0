"""Seeded benchmark inputs and the output checks that do not use the recognizer.

Tree-like instances hang one random single-symbol subtree per symbol below
the root, each grown by ``oracle.random_tree_like_instance``.  Class sizes
follow a fixed halving profile (n/2, n/4, ..., at least 1 leaf each), so
every seed sees the same class-size mix: the unconstrained generator puts
37% to 98% of the leaves into one class, and recognition cost grows with
the sum of squared class sizes, which moved one n=2048 map's cost by 2.7x
between seeds.  Leaf names are shuffled, so classes interleave in leaf
order as they do in the unconstrained generator.

Not-tree-like instances plant exactly one violation in such a map; the
planted kind is asserted here from the map entries alone.
"""

from __future__ import annotations

import importlib
import random

from fitchmap import (
    NO_EVENT,
    LabeledTree,
    evaluate,
    is_least_resolved_general,
    make_fitch_map,
    oracle,
)
from fitchmap.treeops import path_lca_to

# the package re-exports the function under the module's name; explains is
# looked up on the module at call time so a traced run can time it
evaluate_mod = importlib.import_module("fitchmap.evaluate")

N_SYMBOLS = 8
# a T2 flip is kept only when every forbidden triad it creates lies within
# this many class members of the end of leaf order, so a scan in index
# order pays for nearly the whole class
LATE_WINDOW = 16


class CheckFailed(Exception):
    """An output disagrees with an independent check."""


def class_sizes(n: int) -> list[int]:
    """n/2, n/4, ... leaves per symbol, at least one each; the largest class
    gives up leaves when the tail would not fit."""
    sizes = [max(1, n >> i) for i in range(1, N_SYMBOLS + 1)]
    sizes[0] -= max(0, sum(sizes) - n)
    return sizes


def profiled_tree(rng: random.Random, n: int, sizes: list[int]) -> LabeledTree:
    """Root with one symbol edge per class subtree; the leaves left over hang
    below the root on no-event edges."""
    width = len(str(n))
    names = [f"L{i:0{width}d}" for i in range(1, n + 1)]
    rng.shuffle(names)
    parents: list = [None]
    labels: list = [None]
    leaf_names: dict[int, str] = {}
    for m, k in enumerate(sizes, start=1):
        symbol = str(m)
        hub = len(parents)
        parents.append(0)
        labels.append(symbol)
        if k == 1:
            leaf_names[hub] = names.pop()
            continue
        sub, _ = oracle.random_tree_like_instance(rng.randrange(1 << 30), k, 1)
        # subtree vertex v becomes hub + v, so its root is the hub
        for v in range(1, sub.n_vertices):
            parents.append(hub + sub.parent(v))
            labels.append(NO_EVENT if sub.label(v) is NO_EVENT else symbol)
            if sub.is_leaf(v):
                leaf_names[hub + v] = names.pop()
    while names:
        parents.append(0)
        labels.append(NO_EVENT)
        leaf_names[len(parents) - 1] = names.pop()
    return LabeledTree(parents, labels, leaf_names)


def tree_like_map(rng: random.Random, n: int):
    return evaluate(profiled_tree(rng, n, class_sizes(n)))


def _token(label) -> str:
    return "-" if label is NO_EVENT else label


def map_text(fmap) -> str:
    """The .fm text of a map, written here rather than by ``io.write_map``
    so that the inputs do not depend on the code under test."""
    lines = ["#fitchmap v1", "\t".join(fmap.leaves)]
    for row in fmap.encoding():
        lines.append("\t".join("." if lab is None else _token(lab) for lab in row))
    return "\n".join(lines) + "\n"


def tree_text(tree: LabeledTree) -> str:
    """Labeled Newick of a tree, children in stored order, built bottom-up
    so deep trees need no recursion."""
    done: dict[int, str] = {}
    stack = [(tree.root, False)]
    while stack:
        v, expanded = stack.pop()
        kids = tree.children(v)
        if not kids:
            done[v] = tree.name(v)
        elif expanded:
            done[v] = "(" + ",".join(f"{done.pop(c)}:{_token(tree.label(c))}" for c in kids) + ")"
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in kids)
    return done[tree.root] + ";\n"


# ---------------------------------------------------------------------------
# planted violations
# ---------------------------------------------------------------------------

def in_symbols(fmap, y: str) -> set:
    """Distinct event symbols on the arcs into leaf y."""
    labels = (fmap.label(x, y) for x in fmap.leaves if x != y)
    return {lab for lab in labels if lab is not NO_EVENT}


def _with_entry(fmap, pair, label):
    entries = dict(fmap.pairs())
    entries[pair] = label
    return make_fitch_map(fmap.leaves, entries)


def _members(fmap, symbol: str) -> list[str]:
    return [y for y in fmap.leaves if symbol in in_symbols(fmap, y)]


class TriadOracle:
    """Is a 3-leaf sub-map tree-like?  Decided by brute force, memoized on
    the six labels, so it never consults the recognizer."""

    def __init__(self):
        self._memo: dict[tuple, bool] = {}

    def forbidden(self, label, triad) -> bool:
        """``label(a, b)`` gives the entry of each ordered pair."""
        pairs = [(a, b) for a in triad for b in triad if a != b]
        key = tuple(label(a, b) for a, b in pairs)
        if key not in self._memo:
            sub = make_fitch_map(triad, dict(zip(pairs, key)))
            self._memo[key] = oracle.brute_force_tree_like(sub) is None
        return self._memo[key]


def plant_t2(rng: random.Random, n: int, triads: TriadOracle):
    """Single-symbol map with the arc between two of the last eight class
    members flipped.

    All leaves but n/16 sit below one symbol edge, so the class is fixed at
    15n/16 leaves and keeps every member after the flip.  A triad that the
    flip makes forbidden must contain both flipped leaves, so scanning the
    third leaf over the class finds them all.
    """
    while True:
        tree = profiled_tree(rng, n, [n - n // 16])
        fmap = evaluate(tree)
        members = _members(fmap, "1")
        late = members[-LATE_WINDOW:]
        for _ in range(32):
            x, y = rng.sample(late[-8:], 2)
            flipped = NO_EVENT if fmap.label(x, y) == "1" else "1"

            def label(a, b):
                return flipped if (a, b) == (x, y) else fmap.label(a, b)

            bad = [z for z in members if z not in (x, y) and triads.forbidden(label, (x, y, z))]
            if bad and all(z in late for z in bad):
                return _with_entry(fmap, (x, y), flipped), "T2"


def plant_t1(rng: random.Random, n: int):
    """Relabel one arc into a late member of the largest class."""
    fmap = tree_like_map(rng, n)
    y = _members(fmap, "1")[-1]
    sources = [x for x in fmap.leaves if x != y and fmap.label(x, y) == "1"]
    cand = _with_entry(fmap, (rng.choice(sources), y), "2")
    bad = [v for v in cand.leaves if len(in_symbols(cand, v)) > 1]
    if bad != [y]:
        raise AssertionError(f"planted T1 at {y!r} but found {bad}")
    return cand, "T1"


def plant_t3(rng: random.Random, n: int):
    """Drop the symbol from one arc entering the largest class from outside."""
    fmap = tree_like_map(rng, n)
    x = _members(fmap, "1")[-1]
    outside = [y for y in fmap.leaves if y != x and "1" not in in_symbols(fmap, y)]
    y = rng.choice(outside)
    if fmap.label(y, x) != "1":
        raise AssertionError(f"arc ({y!r}, {x!r}) into the class does not carry '1'")
    cand = _with_entry(fmap, (y, x), NO_EVENT)
    if in_symbols(cand, x) != {"1"}:
        raise AssertionError(f"planted T3 moved {x!r} out of its class")
    return cand, "T3"


# ---------------------------------------------------------------------------
# independent output checks
# ---------------------------------------------------------------------------

def check_tree(tree, fmap) -> None:
    """A positive verdict's tree must explain the map and be least resolved."""
    if not evaluate_mod.explains(tree, fmap):
        raise CheckFailed("returned tree does not explain the map")
    if not is_least_resolved_general(tree):
        raise CheckFailed("returned tree is not least resolved")


def check_witness(report, fmap, planted: str, triads: TriadOracle) -> None:
    """A not-tree-like verdict must name the planted kind, and its witness
    must hold when read directly from the map."""
    if report.tree_like:
        raise CheckFailed(f"planted {planted} map reported tree-like")
    reason = report.reason
    if reason.kind != planted:
        raise CheckFailed(f"planted {planted}, reported {reason.kind}")
    if reason.kind == "T2":
        if reason.triad is None or not triads.forbidden(fmap.label, reason.triad):
            raise CheckFailed(f"T2 witness {reason.triad} is tree-like by brute force")
    elif reason.kind == "T1":
        if len(reason.symbols) < 2 or in_symbols(fmap, reason.leaf) != set(reason.symbols):
            raise CheckFailed(f"T1 witness {reason.leaf!r} does not see {reason.symbols}")
    else:
        found = fmap.label(reason.y, reason.x)
        if (found != reason.found or found == reason.expected
                or in_symbols(fmap, reason.x) != {reason.expected}
                or reason.expected in in_symbols(fmap, reason.y)):
            raise CheckFailed(f"T3 witness ({reason.x!r}, {reason.y!r}) does not hold")


def path_label(tree: LabeledTree, x: str, y: str) -> str:
    """Token of the event on the path from lca(x, y) down to y, by a label walk."""
    path = path_lca_to(tree, x, y).vertices
    symbols = {tree.label(v) for v in path[1:]} - {NO_EVENT}
    if len(symbols) > 1:
        raise CheckFailed(f"path to {y!r} carries {sorted(symbols)}")
    return symbols.pop() if symbols else "-"


def check_map_text(text: str, tree: LabeledTree, rng: random.Random, samples: int) -> None:
    """Compare sampled cells of a written .fm text against label walks."""
    lines = text.split("\n")
    names = lines[1].split("\t") if len(lines) > 1 else []
    n = tree.n_leaves
    if lines[0] != "#fitchmap v1" or sorted(names) != sorted(tree.leaf_names) \
            or len(lines) != n + 3 or lines[-1] != "":
        raise CheckFailed("written map has the wrong header, leaf line or row count")
    for _ in range(samples):
        i, j = rng.sample(range(n), 2)
        cell = lines[i + 2].split("\t")[j]
        want = path_label(tree, names[i], names[j])
        if cell != want:
            raise CheckFailed(f"cell ({names[i]}, {names[j]}) is {cell!r}, label walk gives {want!r}")
