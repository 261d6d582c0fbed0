"""Brute-force ground truth at desk scale.

Exhaustive enumeration of tree topologies and consistent labelings,
per-map explainer search, a seeded random instance generator, a bulk
forward enumeration of every tree-like map on a tiny leaf set, and a
witness checker.  All of it is independent of the recognition pipeline.
"""

from __future__ import annotations

import random
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    Label,
    LabeledTree,
    TooFewLeaves,
)
from .evaluate import evaluate
from .simple_fitch import _TRIAD_PAIRS, _triad_mask, derive_forbidden_table


class TooManyLeaves(FitchError):
    """Exhaustive enumeration was asked for more leaves than it can afford."""


class BudgetExceeded(FitchError):
    """A brute-force search would leave desk scale; refusing to sample."""


_MAX_ENUM_LEAVES = 7


# ---------------------------------------------------------------------------
# topology enumeration
# ---------------------------------------------------------------------------

def _set_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """All partitions of a set, each exactly once (first element anchored)."""
    if len(items) == 1:
        yield ((items[0],),)
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + ((head,) + block,) + part[i + 1:]
        yield ((head,),) + part


def _topo_specs(leaves: tuple, memo: dict) -> tuple:
    """LabeledTree.build specs of every phylogenetic topology on the
    leaves, every edge NO_EVENT.

    A spec is a leaf name or a tuple of (child spec, NO_EVENT) pairs; the
    children leaf sets of the root range over all partitions with at least
    two blocks, so every topology arises exactly once.  `memo` lives for one
    enumeration: kept, 7 leaves' 216,000 specs would slow every collection.
    """
    if len(leaves) == 1:
        return (leaves[0],)
    if leaves in memo:
        return memo[leaves]
    out = []
    for part in _set_partitions(leaves):
        if len(part) < 2:
            continue
        block_specs = [_topo_specs(tuple(sorted(b)), memo) for b in part]
        choice = [0] * len(part)
        while True:
            out.append(tuple((block_specs[i][choice[i]], NO_EVENT) for i in range(len(part))))
            for i in range(len(part) - 1, -1, -1):
                choice[i] += 1
                if choice[i] < len(block_specs[i]):
                    break
                choice[i] = 0
            else:
                break
    return memo.setdefault(leaves, tuple(out))


def count_topologies(n: int) -> int:
    """Number of rooted phylogenetic topologies on n labeled leaves, by a
    recurrence independent of the enumerator: T(m) sums, over the size k of
    the first leaf's tree, C(m-1, k-1) T(k) F(m-k), where F counts the
    forests on the other leaves, F(0) = F(1) = 1 and F(m) = 2 T(m) for
    m >= 2, as a forest of two or more trees is a root's children."""
    if n < 1:
        raise TooFewLeaves("need at least one leaf")
    trees = [0, 1]
    for m in range(2, n + 1):
        forests = [1, 1] + [2 * t for t in trees[2:m]]
        trees.append(sum(comb(m - 1, k - 1) * trees[k] * forests[m - k] for k in range(1, m)))
    return trees[n]


def _spec_size(spec) -> int:
    if isinstance(spec, str):
        return 1
    return 1 + sum(_spec_size(c) for c, _ in spec)


def enumerate_topologies(leaves: Iterable[str]) -> Iterator[LabeledTree]:
    """Every phylogenetic topology on the leaf set, each exactly once.

    Deterministic order, least-resolved shapes first (ascending vertex
    count), so searches taking the first hit find a minimum-vertex tree.
    """
    names = tuple(sorted(leaves))
    if len(names) < 2:
        raise TooFewLeaves("need at least 2 leaves")
    if len(names) > _MAX_ENUM_LEAVES:
        raise TooManyLeaves(
            f"topology enumeration is capped at {_MAX_ENUM_LEAVES} leaves, got {len(names)}"
        )
    for spec in sorted(_topo_specs(names, {}), key=_spec_size):
        yield LabeledTree.build(spec)


# ---------------------------------------------------------------------------
# consistent labelings
# ---------------------------------------------------------------------------

def enumerate_consistent_labelings(
    topology: LabeledTree, alphabet: Sequence[str]
) -> Iterator[LabeledTree]:
    """Every label-consistent edge labeling of the topology.

    Root-down state machine: below an uncommitted edge a label may stay
    NO_EVENT or commit to any symbol; below a committed edge only NO_EVENT
    or the same symbol may follow.  Inconsistent labelings are never
    produced.  The choices are counted like an odometer over the vertex
    ids in canonical preorder, parents before children, the last vertex
    turning fastest and NO_EVENT first.
    """
    n = topology.n_vertices
    labels: list[Optional[Label]] = [None] * n
    state: list[Optional[str]] = [None] * n
    used = [0] * n  # how many of its symbol choices each vertex has taken
    alphabet = tuple(alphabet)
    v = 1
    while True:
        # every vertex from v on restarts at NO_EVENT under its parent's state
        for u in range(v, n):
            labels[u], state[u], used[u] = NO_EVENT, state[topology.parent(u)], 0
        yield topology.with_labels(labels)
        # advance the last vertex that still has a symbol choice
        for v in range(n - 1, 0, -1):
            s = state[topology.parent(v)]
            choices = alphabet if s is None else (s,)
            if used[v] < len(choices):
                labels[v] = state[v] = choices[used[v]]
                used[v] += 1
                break
        else:
            return
        v += 1


# ---------------------------------------------------------------------------
# per-map explainer search and bulk forward enumeration
# ---------------------------------------------------------------------------

_BRUTE_MAX_LEAVES = 5
_BRUTE_MAX_SYMBOLS = 2


def brute_force_tree_like(fmap: FitchMap) -> Optional[LabeledTree]:
    """Search all topologies x consistent labelings for the first explainer
    (in canonical enumeration order); None when the map is not tree-like."""
    if fmap.n > _BRUTE_MAX_LEAVES or len(fmap.alphabet) > _BRUTE_MAX_SYMBOLS:
        raise BudgetExceeded(
            f"brute force is capped at {_BRUTE_MAX_LEAVES} leaves and "
            f"{_BRUTE_MAX_SYMBOLS} symbols"
        )
    target = fmap.encoding(sorted(fmap.leaves))
    order = sorted(fmap.leaves)
    for topo in enumerate_topologies(fmap.leaves):
        for tree in enumerate_consistent_labelings(topo, fmap.alphabet):
            if evaluate(tree).encoding(order) == target:
                return tree
    return None


def all_explainers(
    leaves: Sequence[str], alphabet: Sequence[str]
) -> dict[tuple, list[LabeledTree]]:
    """Forward enumeration: every tree-like map on the leaves (encoded in
    sorted leaf order) together with all of its explaining trees.

    This is the same search space as brute_force_tree_like, enumerated
    once from the tree side; the two are cross-checked in the tests.
    """
    if len(leaves) > _BRUTE_MAX_LEAVES or len(alphabet) > _BRUTE_MAX_SYMBOLS:
        raise BudgetExceeded("bulk enumeration is capped at brute-force scale")
    order = sorted(leaves)
    out: dict[tuple, list[LabeledTree]] = {}
    for topo in enumerate_topologies(leaves):
        for tree in enumerate_consistent_labelings(topo, alphabet):
            enc = evaluate(tree).encoding(order)
            out.setdefault(enc, []).append(tree)
    return out


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def random_tree_like_instance(
    seed: int, n_leaves: int, n_symbols: int
) -> tuple[LabeledTree, FitchMap]:
    """Deterministic random tree plus the map it explains.

    Topology growth: start from a two-leaf star and attach each further
    leaf either under an existing inner vertex (widening it) or onto a
    subdivided edge (resolving it), chosen by the seeded rng.  Labels come
    from the same consistency state machine as the exhaustive enumerator,
    so the evaluation never conflicts.  Identical arguments give bit
    identical results.
    """
    if n_leaves < 2:
        raise TooFewLeaves("need at least 2 leaves")
    if n_symbols < 0:
        raise ValueError("symbol count must be non-negative")
    rng = random.Random(seed)
    width = len(str(n_leaves))
    names = [f"L{i:0{width}d}" for i in range(1, n_leaves + 1)]

    parents: list[Optional[int]] = [None, 0, 0]
    kinds = ["inner", "leaf", "leaf"]
    inner_ids = [0]
    # an edge is identified by its child vertex
    edge_ids = [1, 2]
    for _ in range(n_leaves - 2):
        if rng.random() < 0.5:
            # subdivide a random edge, hang the new leaf off the new vertex
            c = edge_ids[rng.randrange(len(edge_ids))]
            w = len(parents)
            parents.append(parents[c])
            kinds.append("inner")
            parents[c] = w
            leaf = len(parents)
            parents.append(w)
            kinds.append("leaf")
            inner_ids.append(w)
            edge_ids.extend((w, leaf))
        else:
            v = inner_ids[rng.randrange(len(inner_ids))]
            leaf = len(parents)
            parents.append(v)
            kinds.append("leaf")
            edge_ids.append(leaf)

    leaf_vertices = [v for v, k in enumerate(kinds) if k == "leaf"]
    assert len(leaf_vertices) == n_leaves
    vertex_name = {v: names[i] for i, v in enumerate(leaf_vertices)}

    # subdividing gives some vertices higher-indexed parents, so label
    # root-down along the actual tree order
    children: list[list[int]] = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p is not None:
            children[p].append(v)
    alphabet = [str(i) for i in range(1, n_symbols + 1)]
    labels: list[Optional[Label]] = [None] * len(parents)
    state: dict[int, Optional[str]] = {0: None}
    stack = list(reversed(children[0]))
    while stack:
        v = stack.pop()
        parent_state = state[parents[v]]
        if parent_state is None:
            if alphabet and rng.random() < 0.5:
                m = alphabet[rng.randrange(len(alphabet))]
                labels[v] = m
                state[v] = m
            else:
                labels[v] = NO_EVENT
                state[v] = None
        else:
            labels[v] = parent_state if rng.random() < 0.5 else NO_EVENT
            state[v] = parent_state
        stack.extend(reversed(children[v]))

    tree = LabeledTree(parents, labels, vertex_name)
    return tree, evaluate(tree)


# ---------------------------------------------------------------------------
# witnesses of negative verdicts
# ---------------------------------------------------------------------------

def witness_holds(fmap: FitchMap, violation) -> bool:
    """True iff a "not tree-like" witness holds on the map entries alone,
    with no recognizer code; a leaf "takes" m when its column shows {m}.

    alphabet-too-large: more than 2n - 2 symbols.  T1: the leaf's column
    shows exactly the listed symbols, at least two.  T2: the triad's leaves
    take the symbol and their 3-leaf digraph is in derive_forbidden_table().
    T3: x takes m, y does not, and entry (y, x) is found, which is not m.
    T4: x shows no symbol and entry (y, x) is the symbol found, which no
    map satisfies: check_conditions() names T4 only for forged classes.
    """
    index = fmap._index

    def shown(x: str) -> set:
        return {fmap.label(y, x) for y in fmap.leaves if y != x} - {NO_EVENT}

    def entry(y: str, x: str) -> Optional[Label]:
        return fmap.label(y, x) if x != y and x in index and y in index else None

    kind = violation.kind
    if kind == "alphabet-too-large":
        return violation.size == len(fmap.alphabet) > violation.limit == 2 * fmap.n - 2
    if kind == "T1":
        symbols = violation.symbols
        return violation.leaf in index and len(symbols) >= 2 and sorted(symbols) == sorted(shown(violation.leaf))
    if kind == "T2":
        triad = violation.triad
        if triad is None or len(set(triad)) != 3 or not all(x in index for x in triad):
            return False
        if any(shown(x) != {violation.symbol} for x in triad):
            return False
        arcs = (p for p in _TRIAD_PAIRS if entry(triad[p[0]], triad[p[1]]) is not NO_EVENT)
        return derive_forbidden_table()._is_forbidden[_triad_mask(arcs)]
    if kind == "T3":
        x, y, m = violation.x, violation.y, violation.expected
        found = entry(y, x)
        return found is not None and shown(x) == {m} != shown(y) and found == violation.found != m
    if kind == "T4":
        x, y = violation.x, violation.y
        found = entry(y, x)
        return found is not None and not shown(x) and found == violation.found in fmap.alphabet
    raise ValueError(f"unknown witness kind {kind!r}")
