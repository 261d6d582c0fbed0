"""Shared test helpers: independent brute-force oracles kept deliberately
dumb so they certify the fast implementations, input builders, and the
one timing helper of the cost gates."""

from __future__ import annotations

import gc
import random
import statistics
import time

import pytest

from fitchmap.core import (
    NO_EVENT,
    FitchMap,
    LabelConflict,
    LabeledTree,
    NonPhylogenetic,
    make_fitch_map,
)
from fitchmap.simple_fitch import Digraph


def naive_evaluate(tree: LabeledTree) -> FitchMap:
    """Quadratic-times-depth path scan; independent of evaluate()'s sweep."""
    names = tree.leaf_names
    entries = {}
    for x in names:
        for y in names:
            if x == y:
                continue
            vx, vy = tree.vertex_of(x), tree.vertex_of(y)
            ancestors_x = set()
            v = vx
            while v is not None:
                ancestors_x.add(v)
                v = tree.parent(v)
            walk = [vy]
            while walk[-1] not in ancestors_x:
                walk.append(tree.parent(walk[-1]))
            symbols = {
                tree.label(v) for v in walk[:-1] if tree.label(v) is not NO_EVENT
            }
            if len(symbols) > 1:
                raise AssertionError(f"path conflict on ({x}, {y}): {symbols}")
            entries[(x, y)] = symbols.pop() if symbols else NO_EVENT
    return make_fitch_map(names, entries)


def reference_evaluate(tree: LabeledTree) -> FitchMap:
    """The per-leaf root-path walker evaluate() used before its row
    template: O(n * depth), filling rows 64 columns at a time.  Kept as
    the reference for evaluate()'s rows and LabelConflict witnesses."""
    alphabet = tree.event_symbols()
    n = tree.n_leaves
    rows = [[-1] * n for _ in range(n)]
    for lo in range(0, n, 64):
        block = zip(*_reference_columns(tree, alphabet, range(lo, min(lo + 64, n))))
        for row, part in zip(rows, block):
            row[lo:lo + 64] = part
    return FitchMap(tree.leaf_names, alphabet, rows)


def _reference_columns(tree: LabeledTree, alphabet, positions):
    """Column y of the map, over x in canonical order, for each given
    canonical position of y; the first conflict walking up from y raises."""
    if tree.n_leaves < 2:
        raise NonPhylogenetic("evaluation needs a tree with at least 2 leaves")

    code = {s: i + 1 for i, s in enumerate(alphabet)}
    names = tree.leaf_names
    n = len(names)
    span = tree.span

    for j in positions:
        col = [0] * n
        col[j] = -1
        status = 0
        v = tree.leaf_vertices[j]
        while v != 0:
            p = tree.parent(v)
            lab = tree.label(v)
            if lab is not NO_EVENT:
                c = code[lab]
                if status and status != c:
                    lo_p, hi_p = span(p)
                    lo_v, hi_v = span(v)
                    xpos = lo_p if lo_p < lo_v else hi_v
                    raise LabelConflict(
                        f"path from lca({names[xpos]!r}, {names[j]!r}) to "
                        f"{names[j]!r} carries two symbols "
                        f"{sorted((alphabet[status - 1], lab))}",
                        witness=(names[xpos], names[j]),
                        symbols=sorted((alphabet[status - 1], lab)),
                    )
                status = c
            lo_p, hi_p = span(p)
            lo_v, hi_v = span(v)
            if lo_p < lo_v:
                col[lo_p:lo_v] = [status] * (lo_v - lo_p)
            if hi_v < hi_p:
                col[hi_v:hi_p] = [status] * (hi_p - hi_v)
            v = p
        yield col


def random_labeling(tree: LabeledTree, alphabet, rng: random.Random) -> LabeledTree:
    """Uniform unconstrained labeling; may well be label-inconsistent."""
    choices = [NO_EVENT] + list(alphabet)
    labels = [None] + [
        choices[rng.randrange(len(choices))] for _ in range(tree.n_vertices - 1)
    ]
    return tree.with_labels(labels)


def code_rows(fmap: FitchMap) -> list[list[int]]:
    """A copy of the map's code matrix, read row by row through FitchMap._row."""
    return [list(fmap._row(i)) for i in range(fmap.n)]


def column_reference(rows, targets):
    """Per column of the code rows, read entry by entry: the mask of the
    rows holding a symbol, the mask of the rows equal to the column's
    target, and the code at the lowest row holding a symbol (0 for none);
    and the column symbols up to the first column with two."""
    columns = [list(col) for col in zip(*rows)]
    ins = [sum(1 << y for y, c in enumerate(col) if c > 0) for col in columns]
    eqs = [sum(1 << y for y, c in enumerate(col) if c == t) for col, t in zip(columns, targets)]
    lowest = [next((c for c in col if c > 0), 0) for col in columns]
    symbols = []
    for col in columns:
        seen = set(col) - {0, -1}
        if len(seen) > 1:
            break
        symbols.append(seen.pop() if seen else 0)
    return ins, eqs, lowest, symbols


def random_code_map(rng: random.Random, n: int, n_symbols: int) -> FitchMap:
    """Random code matrix over n leaves, every symbol code present."""
    codes = list(range(1, n_symbols + 1))
    p = rng.random()
    rows = [
        [-1 if i == j else (rng.choice(codes) if rng.random() < p else 0) for j in range(n)]
        for i in range(n)
    ]
    # surjectivity: each code once on the first off-diagonal cells
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for c, (i, j) in zip(codes, cells):
        rows[i][j] = c
    return FitchMap([f"L{i}" for i in range(n)], [f"s{c}" for c in codes], rows)


def caterpillar_digraph(k: int) -> Digraph:
    """Simple Fitch digraph on z0..z{k-1} with in(z_i) = {z_0, ..., z_{i-1}},
    built straight from masks.  Its least-resolved tree is a caterpillar:
    z_0, ..., z_{k-2} hang as NO_EVENT leaves off a path of k - 2 symbol
    edges, and z_{k-1} takes one more symbol edge at its end."""
    full = (1 << k) - 1
    in_ = [(1 << i) - 1 for i in range(k)]
    out = [full ^ ((2 << i) - 1) for i in range(k)]
    return Digraph._from_masks(tuple(f"z{i}" for i in range(k)), out, in_)


def median_seconds(calls: dict) -> dict:
    """Median seconds per call for each key of a dict of zero-argument
    calls: the cost gates' one timing method.  Each call first runs once
    untimed, so that fresh-memory page faults land there.  Then the calls
    take 5 samples each, interleaved so that drift of the host hits every
    one alike; each sample follows a collection, so that no call pays for
    another's garbage, and repeats its call until it lasts at least 20 ms,
    so that timer and scheduler noise stay small beside it.

    What is alive once the warm-up's garbage is collected, the inputs and
    all that the test session keeps, is frozen while sampling.  So each
    collection, and any that a call sets off, scans only what the calls
    made: in a full run an unfrozen collection takes over 100 ms, once the
    triple-closure cache fills."""
    for call in calls.values():
        call()
    gc.collect()
    gc.freeze()
    try:
        times = {key: [] for key in calls}
        for _ in range(5):
            for key, call in calls.items():
                gc.collect()
                reps, dt, t0 = 0, 0.0, time.perf_counter()
                while dt < 0.02:
                    call()
                    reps += 1
                    dt = time.perf_counter() - t0
                times[key].append(dt / reps)
    finally:
        gc.unfreeze()
    return {key: statistics.median(ts) for key, ts in times.items()}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xF17C4)
