"""Maps whose largest code sits at either side of a code-array width: 127
and 128 (one and two bytes per entry), 32767 and 32768 (two and four).
Each map is built from list rows, read from and written to .fm text,
evaluated, certified and recognized, and every outcome is checked against
a reference that reads the entries one by one."""

import pytest

from conftest import code_rows, column_reference, reference_evaluate
from fitchmap.core import NO_EVENT, FitchMap, LabeledTree, QuasiPartition, make_fitch_map
from fitchmap.evaluate import evaluate, explains
from fitchmap.generalized import (
    AlphabetTooLarge,
    T1Violation,
    T2Violation,
    T3Violation,
    T4Violation,
    check_conditions,
    compute_classes,
    is_least_resolved_general,
    recognize,
)
from fitchmap.io import read_map, write_map
from fitchmap.oracle import witness_holds

WIDTH = {127: "b", 128: "h", 32767: "h", 32768: "i"}


def caterpillar(k: int) -> LabeledTree:
    """A caterpillar with k symbols: leaves t000, ... hang off a NO_EVENT
    spine on edges with k - 1 distinct symbols, and below them a chain of
    leaves z0, ..., z6 nests under edges labeled z, the last symbol."""
    node = (("z5", NO_EVENT), ("z6", "z"))
    for i in range(4, 0, -1):
        node = ((f"z{i}", NO_EVENT), (node, "z"))
    node = (("z0", NO_EVENT), (node, "z"))
    for i in range(k - 2, -1, -1):
        node = ((f"t{i:03d}", f"s{i:03d}"), (node, NO_EVENT))
    return LabeledTree.build(node)


def fm_text(leaves, alphabet, rows) -> str:
    """The .fm text of list rows, written token by token."""
    tokens = ["-", *alphabet]
    lines = ["#fitchmap v1", "\t".join(leaves)]
    lines += ["\t".join("." if c < 0 else tokens[c] for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def list_rows(tree: LabeledTree):
    """The tree's map as list rows, from the per-leaf reference walker."""
    fm = reference_evaluate(tree)
    return fm.leaves, fm.alphabet, code_rows(fm)


def planted(tree: LabeledTree, kind: str) -> FitchMap:
    """The caterpillar's map with one entry changed to plant `kind`."""
    entries = dict(evaluate(tree).pairs())
    if kind == "T1":
        # a second symbol into t001
        entries[("t000", "t001")] = "s002"
    elif kind == "T2":
        # z3 -> z2 inside the z class
        entries[("z3", "z2")] = "z"
    else:
        # an arc into the z class from outside that does not carry z
        entries[("t000", "z3")] = NO_EVENT
    return make_fitch_map(tree.leaf_names, entries)


def both_ways(leaves, alphabet, rows):
    """The map built from list rows, and the same map read from its text;
    the text must be what write_map writes for either."""
    text = fm_text(leaves, alphabet, rows)
    listed = FitchMap(leaves, alphabet, rows)
    read = read_map(text)
    assert write_map(listed) == write_map(read) == text
    assert code_rows(listed) == code_rows(read) == rows
    assert listed == read
    return listed, read


class TestCaterpillarWidths:
    @pytest.mark.parametrize("k", [127, 128])
    def test_tree_like(self, k):
        tree = caterpillar(k)
        leaves, alphabet, rows = list_rows(tree)
        assert len(alphabet) == k and alphabet[-1] == "z"
        assert sum(1 for row in rows for c in row if c == k) > 0
        listed, read = both_ways(leaves, alphabet, rows)
        assert listed._row(0).typecode == WIDTH[k]
        assert code_rows(evaluate(tree)) == rows
        for m in (listed, read):
            report = recognize(m)
            assert report.tree_like
            assert reference_evaluate(report.tree) == m
            assert is_least_resolved_general(report.tree)
            assert explains(report.tree, m) and explains(tree, m)
            assert code_rows(evaluate(report.tree)) == rows
        assert recognize(listed).tree == recognize(read).tree
        assert recognize(listed).tree != tree  # the spine edges contract
        assert compute_classes(listed).members("z") == {f"z{i}" for i in range(1, 7)}
        ins, eqs, lowest, symbols = column_reference(rows, [0] * len(rows))
        assert listed._in_masks() == ins
        # one symbol per column: it is the lowest in-arc's, and the class
        assert listed._lowest_in_codes(ins) == lowest == symbols
        classes = compute_classes(listed)
        assert [classes.class_of(x) for x in leaves] == [listed.decode(c) for c in symbols]

    @pytest.mark.parametrize("k", [127, 128])
    @pytest.mark.parametrize("kind", ["T1", "T2", "T3"])
    def test_planted(self, k, kind):
        tree = caterpillar(k)
        m = planted(tree, kind)
        assert m.alphabet == tree.event_symbols()
        rows = code_rows(m)
        listed, read = both_ways(m.leaves, m.alphabet, rows)
        assert listed._row(0).typecode == WIDTH[k]
        expected = {
            "T1": T1Violation(leaf="t001", symbols=("s001", "s002")),
            "T2": T2Violation(symbol="z", triad=("z2", "z3", "z4")),
            "T3": T3Violation(x="z3", y="t000", expected="z", found=NO_EVENT),
        }[kind]
        for fm in (m, listed, read):
            report = recognize(fm)
            assert report.reason == expected
            assert witness_holds(fm, report.reason)
            assert not explains(tree, fm)
            classes = compute_classes(fm)
            if kind != "T1":
                assert check_conditions(fm, classes) == expected


def wide_rows(k: int, n: int = 190):
    """n leaves and k symbols: the first columns each carry one symbol whose
    code has a 0x00 or 0xff byte, or sits at the width's edge, and the other
    cells cycle through every code, so the column after them is the first
    with two symbols."""
    clean = [256, 256, 255, 511, 1, 32767, k]
    rows = [[-1 if x == y else (clean[y] if y < len(clean) else 0) for y in range(n)] for x in range(n)]
    cells = [(x, y) for x in range(n) for y in range(len(clean), n) if x != y]
    assert len(cells) >= k
    for i, (x, y) in enumerate(cells):
        rows[x][y] = i % k + 1
    leaves = [f"w{i:03d}" for i in range(n)]
    alphabet = [f"m{c:05d}" for c in range(1, k + 1)]
    return leaves, alphabet, rows, len(clean)


class TestWideMaps:
    @pytest.mark.parametrize("k", [32767, 32768])
    def test_wide_map(self, k):
        leaves, alphabet, rows, first_bad = wide_rows(k)
        listed, read = both_ways(leaves, alphabet, rows)
        assert listed._row(0).typecode == WIDTH[k]
        n = len(leaves)
        for m in (listed, read):
            assert recognize(m).reason == AlphabetTooLarge(size=k, limit=2 * n - 2)
            shown = {alphabet[c - 1] for c in (row[first_bad] for row in rows) if c > 0}
            assert compute_classes(m) == T1Violation(leaf=leaves[first_bad], symbols=tuple(sorted(shown)))
            # each column's target is one of its own entries
            targets = [row[x] for x, row in zip(range(n), rows[1:] + rows[:1])]
            ins, eqs, lowest, symbols = column_reference(rows, targets)
            assert m._in_masks() == ins
            assert m._eq_masks(targets) == eqs
            assert m._lowest_in_codes(ins) == lowest
            assert lowest[:first_bad] == symbols == rows[-1][:first_bad]
            star = LabeledTree.build(tuple((nm, NO_EVENT) for nm in leaves))
            assert not explains(star, m)
        # forged classes: the clean columns by their symbol, the rest with
        # no event; the class of code 256 has two members
        classes = {NO_EVENT: leaves[first_bad:]}
        for leaf, c in zip(leaves, rows[-1][:first_bad]):
            classes.setdefault(alphabet[c - 1], []).append(leaf)
        forged = QuasiPartition(classes)
        # every class is complete and takes its symbol from every other
        # leaf, so the first leaf with no event but a symbol in-arc is T4
        t4 = T4Violation(x=leaves[first_bad], y=leaves[0], found=alphabet[0])
        assert check_conditions(listed, forged) == check_conditions(read, forged) == t4
