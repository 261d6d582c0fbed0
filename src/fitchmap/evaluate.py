"""Forward semantics: the map a labeled tree explains, and explains() tests.

Entry (x, y) is y's root-path symbol, except that it is NO_EVENT when y's
lowest event vertex is an ancestor of x.  So every row of the map is one
template with a few entries zeroed, and two passes over the vertices build
all of them, whatever the tree's shape:

- pass 1 (_root_paths), in preorder: each vertex inherits its root path's
  symbol, its lowest event vertex and the deepest event vertex above that
  one with another label; a leaf that has the last is a LabelConflict;
- pass 2 (_templates), one DFS over one length-n template that starts as each
  leaf's symbol: entering v zeroes the leaves whose lowest event vertex is
  v, leaving v restores them, and at leaf x the template is row x but for
  the diagonal.

That is O(vertices + n) Python steps, plus n row copies (evaluate) or row
compares (explains) done in C: the template is an array of the map's
code typecode, so a copy is one extend and a compare one array compare.
"""

from __future__ import annotations

from array import array

from .core import (
    NO_EVENT,
    FitchMap,
    _code_array,
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
    codes = _code_array(len(alphabet))
    for template in _templates(tree, alphabet, range(n)):
        codes.extend(template)
    codes[::n + 1] = array(codes.typecode, [-1]) * n
    # every edge lies on some lca-path, so a successful evaluation
    # witnesses every symbol and the alphabet needs no re-normalization
    return FitchMap._from_codes(tree.leaf_names, alphabet, codes)


def _root_paths(tree: LabeledTree, alphabet):
    """Pass 1: per vertex, the code of its root path's symbol (code i >= 1
    is alphabet[i-1], 0 none) and its lowest event vertex (-1 none).

    Raises LabelConflict for the first leaf y, in canonical order, whose
    root path carries two symbols, at the lowest vertex where it does.
    """
    if tree.n_leaves < 2:
        raise NonPhylogenetic("evaluation needs a tree with at least 2 leaves")

    code = {s: i + 1 for i, s in enumerate(alphabet)}
    parent, labels, span = tree._parent, tree._labels, tree._span
    nv = len(parent)
    sym = [0] * nv
    low = [-1] * nv
    bad = [-1] * nv  # the deepest event vertex above low[v] labeled unlike it
    for v in range(1, nv):
        p = parent[v]
        lab = labels[v]
        if lab is NO_EVENT:
            sym[v], low[v], bad[v] = sym[p], low[p], bad[p]
        else:
            c = code[lab]
            s = sym[p]
            sym[v], low[v] = c, v
            bad[v] = low[p] if s and s != c else bad[p]

    for y in tree._leafv:
        v = bad[y]
        if v < 0:
            continue
        # x branches off y's path just above v: the first leaf of the
        # parent's span, unless v's own span starts there
        lo_p = span[parent[v]][0]
        lo_v, hi_v = span[v]
        names = tree.leaf_names
        x, yn = names[lo_p if lo_p < lo_v else hi_v], names[span[y][0]]
        symbols = sorted((labels[low[y]], labels[v]))
        raise LabelConflict(
            f"path from lca({x!r}, {yn!r}) to {yn!r} carries two symbols {symbols}",
            witness=(x, yn),
            symbols=symbols,
        )
    return sym, low


def _templates(tree: LabeledTree, alphabet, pos):
    """Pass 2: yield one template per leaf x, in canonical order, equal to
    row x of the map but for its diagonal entry; the leaf at canonical
    position j has entry pos[j].  The template is one array of the
    typecode _code_array gives the alphabet, changed in place between
    yields, so a caller that changes it must restore it."""
    sym, low = _root_paths(tree, alphabet)
    leaves = tree._leafv
    template = _code_array(len(alphabet))
    template.extend([0] * len(leaves))
    zeroed = [[] for _ in sym]  # Z[v]: entries of the leaves whose lowest event vertex is v
    for i, y in zip(pos, leaves):
        template[i] = sym[y]
        if low[y] >= 0:
            zeroed[low[y]].append(i)
    restore = template[:]

    span, children = tree._span, tree._children
    entered = []  # vertices with entries zeroed, innermost last
    for v in range(1, len(sym)):
        # in preorder, an entered vertex is v's ancestor iff its span reaches past v's start
        lo = span[v][0]
        while entered and span[entered[-1]][1] <= lo:
            for i in zeroed[entered.pop()]:
                template[i] = restore[i]
        if zeroed[v]:
            for i in zeroed[v]:
                template[i] = 0
            entered.append(v)
        if not children[v]:
            yield template


def label_consistent(tree: LabeledTree) -> bool:
    """True iff every root-to-leaf path carries at most one distinct symbol.

    Equivalent to evaluate() succeeding; the two are checked against each
    other in the test suite.
    """
    parent, labels = tree._parent, tree._labels
    state: list = [None] * len(parent)  # the root path's symbol, None for none
    for v in range(1, len(parent)):
        lab, s = labels[v], state[parent[v]]
        if lab is NO_EVENT:
            state[v] = s
        elif s is None or s == lab:
            state[v] = lab
        else:
            return False
    return True


def explains(tree: LabeledTree, fmap: FitchMap) -> bool:
    """True iff the tree evaluates without conflict to exactly this map; the
    template is indexed in fmap's leaf order and each leaf's row compared
    with the map's in place, no n x n matrix built."""
    if set(tree.leaf_names) != set(fmap.leaves):
        raise LeafSetMismatch("tree and map have different leaf sets")
    # a successful evaluation witnesses every edge symbol (see evaluate),
    # so a tree with a symbol fmap lacks explains nothing; otherwise the
    # template is coded by fmap's own alphabet, in fmap's typecode
    if not set(fmap.alphabet).issuperset(tree.event_symbols()):
        return False
    pos = [fmap._index[nm] for nm in tree.leaf_names]
    try:
        for i, template in zip(pos, _templates(tree, fmap.alphabet, pos)):
            # a leaf's own entry is 0 at its row: the leaf lies below its
            # lowest event vertex, or has none and so no symbol
            template[i] = -1
            if template != fmap._row(i):
                return False
            template[i] = 0
    except LabelConflict:
        return False
    return True
