import random

import pytest

from fitchmap.core import (
    NO_EVENT,
    DuplicateLeafName,
    FitchError,
    InvalidToken,
    Label,
    LabeledTree,
    NonPhylogenetic,
    ReservedToken,
    check_token,
    make_fitch_map,
)
from fitchmap.evaluate import evaluate
from fitchmap.io import ParseError, ShapeError, read_map, read_tree, write_map, write_tree
from fitchmap.oracle import random_tree_like_instance

EXAMPLE_TEXT = "((a:-,b:2):2,c:-);\n"


def random_map(rng, n, k):
    names = [f"n{i}" for i in range(n)]
    labels = [NO_EVENT] + [str(s) for s in range(1, k + 1)]
    entries = {
        (x, y): labels[rng.randrange(len(labels))]
        for x in names
        for y in names
        if x != y
    }
    return make_fitch_map(names, entries)


class TestMapRoundTrip:
    def test_two_leaf_all_no_event(self):
        text = "#fitchmap v1\na\tb\n.\t-\n-\t.\n"
        m = read_map(text)
        assert m.alphabet == ()
        assert write_map(m) == text

    def test_worked_example(self):
        m = evaluate(read_tree(EXAMPLE_TEXT))
        assert read_map(write_map(m)) == m

    def test_random_maps_byte_exact(self, rng):
        for _ in range(40):
            m = random_map(rng, rng.randrange(2, 12), rng.randrange(0, 4))
            text = write_map(m)
            m2 = read_map(text)
            assert m2 == m
            assert write_map(m2) == text

    def test_sixty_four_leaves(self):
        _, m = random_tree_like_instance(11, 64, 6)
        assert read_map(write_map(m)) == m


class TestTreeRoundTrip:
    def test_worked_example(self):
        t = read_tree(EXAMPLE_TEXT)
        assert write_tree(t) == EXAMPLE_TEXT

    def test_random_trees_byte_exact(self):
        for seed in range(40):
            t, _ = random_tree_like_instance(seed, 2 + seed % 14, 3)
            text = write_tree(t)
            t2 = read_tree(text)
            assert t2 == t
            assert write_tree(t2) == text

    def test_evaluation_survives_round_trip(self):
        for seed in range(10):
            t, fm = random_tree_like_instance(seed, 9, 2)
            assert evaluate(read_tree(write_tree(t))) == fm

    def test_writer_rejects_single_leaf(self):
        with pytest.raises(NonPhylogenetic):
            write_tree(LabeledTree.single_leaf("a"))

    def test_non_canonical_input_is_canonicalized(self):
        t = read_tree("(c:-,(b:2,a:-):2);\n")
        assert write_tree(t) == EXAMPLE_TEXT


MALFORMED_MAPS = [
    ("", ParseError, 1, 1),
    ("#fitchmap v2\na\tb\n.\t-\n-\t.\n", ParseError, 1, 1),
    ("#fitchmap v1\na\tb\n.\t-\n-\t.", ParseError, 4, 4),  # no trailing newline
    ("#fitchmap v1\n", ParseError, 2, 1),
    ("#fitchmap v1\na\n.\n", ShapeError, 2, 1),  # single leaf
    ("#fitchmap v1\na\tb\n.\t-\n", ShapeError, 4, 1),  # missing row
    ("#fitchmap v1\na\tb\n.\t-\n-\t.\n-\t-\n", ShapeError, 5, 1),  # extra row
    ("#fitchmap v1\na\tb\n.\t-\t-\n-\t.\n", ShapeError, 3, 1),  # extra cell
    ("#fitchmap v1\na\tb\n.\n-\t.\n", ShapeError, 3, 1),  # missing cell
    ("#fitchmap v1\na\tb\n-\t-\n-\t.\n", ParseError, 3, 1),  # bad diagonal
    ("#fitchmap v1\na\tb\n.\t.\n-\t.\n", ParseError, 3, 3),  # dot off diagonal
    ("#fitchmap v1\na\ta\n.\t-\n-\t.\n", ParseError, 2, 3),  # duplicate name
    ("#fitchmap v1\n-\tb\n.\t-\n-\t.\n", ReservedToken, 0, 0),  # reserved name
    ("#fitchmap v1\na\tb\n.\tx(y\n-\t.\n", ParseError, 3, 3),  # bad symbol
    ("#fitchmap v1\na\tb:c\n.\t-\n-\t.\n", ParseError, 2, 3),  # bad name
]

MALFORMED_TREES = [
    ("", ParseError, 1, 1),
    ("(a:-,b:1)", ParseError, 1, 10),  # missing ';'
    ("(a:-,b:1;", ParseError, 1, 9),  # unclosed group
    ("(a:-,b:1);x\n", ParseError, 1, 11),  # trailing junk
    ("(a:-,b);\n", ParseError, 1, 7),  # missing label
    ("(a:-,:1);\n", ParseError, 1, 6),  # missing name
    ("(a:-,b:1):2;\n", ParseError, 1, 10),  # label on the root
    ("(a:-,(b:1):-);\n", NonPhylogenetic, 0, 0),  # unary inner vertex
    ("(a:-,b:.);\n", ParseError, 1, 8),  # reserved label token
    ("((a:-,b:1):x y);\n", ParseError, 1, 13),  # space inside
]


class TestMalformedInputs:
    @pytest.mark.parametrize("text,exc,line,col", MALFORMED_MAPS)
    def test_map_corpus(self, text, exc, line, col):
        with pytest.raises(exc) as got:
            read_map(text)
        if line and isinstance(got.value, ParseError):
            assert (got.value.line, got.value.col) == (line, col)

    @pytest.mark.parametrize("text,exc,line,col", MALFORMED_TREES)
    def test_tree_corpus(self, text, exc, line, col):
        with pytest.raises(exc) as got:
            read_tree(text)
        if line and isinstance(got.value, ParseError):
            assert (got.value.line, got.value.col) == (line, col)

    def test_single_leaf_tree_rejected(self):
        with pytest.raises(NonPhylogenetic):
            read_tree("(a:-);\n")
        with pytest.raises(NonPhylogenetic):
            read_tree("a;\n")

    def test_duplicate_leaf_name(self):
        with pytest.raises(DuplicateLeafName):
            read_tree("(a:-,a:1);\n")

    def test_multiline_error_position(self):
        with pytest.raises(ParseError) as got:
            read_tree("(a:-,\nb:1);\n")
        assert got.value.line == 1
        assert got.value.col == 6


def reference_read_map(text: str):
    """The earlier .fm reader, kept as the reference for the differential
    test: it validates every cell, recomputes each cell's column from the
    widths before it, and builds the map through make_fitch_map."""

    def cell_col(cells, idx):
        return 1 + sum(len(c) + 1 for c in cells[:idx])

    if not text.endswith("\n"):
        last = max(1, text.count("\n") + 1)
        raise ParseError(last, max(1, len(text.rsplit("\n", 1)[-1]) + 1),
                         "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "#fitchmap v1":
        raise ParseError(1, 1, "expected header '#fitchmap v1'")
    if len(lines) < 2:
        raise ParseError(2, 1, "missing leaf-name line")
    names = lines[1].split("\t")
    seen = set()
    for idx, nm in enumerate(names):
        col = cell_col(names, idx)
        if nm in ("-", "."):
            raise ReservedToken(f"line 2, column {col}: leaf name {nm!r} is reserved")
        try:
            check_token(nm, "token")
        except InvalidToken as e:
            raise ParseError(2, col, str(e)) from None
        if nm in seen:
            raise ParseError(2, col, f"duplicate leaf name {nm!r}")
        seen.add(nm)
    n = len(names)
    if n < 2:
        raise ShapeError(2, 1, f"need at least 2 leaves, found {n}")
    if len(lines) != n + 2:
        raise ShapeError(
            min(len(lines), n + 2) + 1, 1, f"expected {n} matrix rows, found {len(lines) - 2}"
        )
    entries: dict[tuple[str, str], Label] = {}
    for i in range(n):
        lineno = i + 3
        cells = lines[i + 2].split("\t")
        if len(cells) != n:
            raise ShapeError(lineno, 1, f"expected {n} cells, found {len(cells)}")
        for j, cell in enumerate(cells):
            col = cell_col(cells, j)
            if i == j:
                if cell != ".":
                    raise ParseError(lineno, col, f"diagonal cell must be '.', found {cell!r}")
                continue
            if cell == ".":
                raise ParseError(lineno, col, "'.' is only allowed on the diagonal")
            if cell == "-":
                entries[(names[i], names[j])] = NO_EVENT
                continue
            try:
                check_token(cell, "token")
            except InvalidToken as e:
                raise ParseError(lineno, col, str(e)) from None
            entries[(names[i], names[j])] = cell
    return make_fitch_map(names, entries)


def outcome(read, text):
    """What a reader makes of the text: the map's leaves, alphabet tuple and
    code rows, or the class and message of the error it raises."""
    try:
        m = read(text)
    except FitchError as e:
        return type(e), str(e)
    return m.leaves, m.alphabet, m._rows


class TestReaderAgainstReference:
    def test_fuzzed_maps_match_reference(self):
        rng = random.Random(2718)
        glyphs = ["-", ".", "1", "x(y", "", "a b", ":"]
        malformed = 0
        for _ in range(10_000):
            m = random_map(rng, rng.randrange(2, 7), rng.randrange(0, 4))
            lines = [line.split("\t") for line in write_map(m).split("\n")[1:-1]]
            for _ in range(rng.randrange(4)):
                cells = lines[rng.randrange(len(lines))]
                cells[rng.randrange(len(cells))] = rng.choice(glyphs)
            for cells in lines:
                if rng.random() < 0.05:
                    cells.append(rng.choice(glyphs))
            text = "".join(
                line + "\n" for line in ["#fitchmap v1", *map("\t".join, lines)]
            )
            expected = outcome(reference_read_map, text)
            assert outcome(read_map, text) == expected, text
            malformed += isinstance(expected[0], type)
        # both sides of the reader are exercised
        assert 2_000 < malformed < 9_000

    def test_alphabet_is_sorted(self):
        m = read_map("#fitchmap v1\na\tb\tc\n.\tz\t10\n9\t.\tz\n-\t10\t.\n")
        assert m.alphabet == ("10", "9", "z")
        assert m._rows == [[-1, 3, 1], [2, -1, 3], [0, 1, -1]]
