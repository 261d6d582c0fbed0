"""Forward semantics: the map a labeled tree explains, and explains() tests.

evaluate() runs in O(n^2): one bottom-up walk per leaf y maintains the
label status of the path from the current ancestor down to y, and the
leaves branching off at that ancestor receive the status via contiguous
slice writes over the canonical leaf order.
"""

from __future__ import annotations

from operator import eq

from .core import (
    NO_EVENT,
    FitchMap,
    LabelConflict,
    LabeledTree,
    LeafSetMismatch,
    NonPhylogenetic,
)


def evaluate(tree: LabeledTree) -> FitchMap:
    """The map the tree explains: entry (x, y) is the event symbol on the
    path from lca(x, y) to y, or NO_EVENT when that path carries none.

    Raises LabelConflict (with a witness pair) when some such path carries
    two distinct symbols, i.e. when the tree explains no map at all.
    """
    alphabet = tree.event_symbols()
    n = tree.n_leaves
    rows = [[-1] * n for _ in range(n)]
    # 64 columns at a time, so no n x n column set is held beside the rows
    for lo in range(0, n, 64):
        block = zip(*_columns(tree, alphabet, range(lo, min(lo + 64, n))))
        for row, part in zip(rows, block):
            row[lo:lo + 64] = part
    # every edge lies on some lca-path, so a successful evaluation
    # witnesses every symbol and the alphabet needs no re-normalization
    return FitchMap(tree.leaf_names, alphabet, rows)


def _columns(tree: LabeledTree, alphabet, positions):
    """Yield column y of the map, over x in canonical order, for each given
    canonical position of y; code i >= 1 is alphabet[i-1], -1 the diagonal."""
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


def label_consistent(tree: LabeledTree) -> bool:
    """True iff every root-to-leaf path carries at most one distinct symbol.

    Equivalent to evaluate() succeeding; the two are checked against each
    other in the test suite.
    """
    stack: list[tuple[int, object]] = [(0, None)]
    while stack:
        v, state = stack.pop()
        for c in tree.children(v):
            lab = tree.label(c)
            if lab is NO_EVENT:
                stack.append((c, state))
            elif state is None or state == lab:
                stack.append((c, lab))
            else:
                return False
    return True


def explains(tree: LabeledTree, fmap: FitchMap) -> bool:
    """True iff the tree evaluates without conflict to exactly this map; each leaf is
    walked once and its whole column compared with the map's, no n x n matrix built."""
    if set(tree.leaf_names) != set(fmap.leaves):
        raise LeafSetMismatch("tree and map have different leaf sets")
    # coded by fmap's alphabet; a symbol fmap lacks is coded past it
    alphabet = fmap.alphabet + tuple(sorted(set(tree.event_symbols()) - set(fmap.alphabet)))
    order = [tree.span(tree.vertex_of(nm))[0] for nm in fmap.leaves]
    rows = [fmap._rows[fmap._index[nm]] for nm in tree.leaf_names]
    try:
        return all(map(eq, _columns(tree, alphabet, order), map(list, zip(*rows))))
    except LabelConflict:
        return False
