import random
import sys

import pytest

from conftest import code_rows
from fitchmap import io as fio
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
    return m.leaves, m.alphabet, code_rows(m)


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
        assert code_rows(m) == [[-1, 3, 1], [2, -1, 3], [0, 1, -1]]


class ReferenceScanner:
    """The earlier .lnw tokenizer, which walks the text one character at a time."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos=None):
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return line, col

    def error(self, reason, pos=None):
        line, col = self.location(pos)
        return ParseError(line, col, reason)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def token(self, what):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "():,;" \
                and not self.text[self.pos].isspace():
            self.pos += 1
        tok = self.text[start:self.pos]
        if not tok:
            found = self.peek() or "end of input"
            raise self.error(f"expected {what}, found {found!r}")
        return tok


def reference_read_tree(text: str):
    """The earlier .lnw reader, kept as the reference for the differential
    test: an iterative descent over ReferenceScanner."""
    sc = ReferenceScanner(text)
    parents = [None]
    labels = [None]
    names = {}

    def checked_token(what):
        start = sc.pos
        tok = sc.token(what)
        try:
            check_token(tok, "token")
        except InvalidToken as e:
            raise sc.error(str(e), start) from None
        return tok

    def parse_label():
        start = sc.pos
        tok = sc.token("an edge label")
        if tok == "-":
            return NO_EVENT
        try:
            check_token(tok, "token")
        except InvalidToken as e:
            raise sc.error(str(e), start) from None
        return tok

    if sc.peek() != "(":
        names[0] = checked_token("a leaf name or '('")
    else:
        sc.take("(")
        stack = [0]
        while stack:
            if sc.peek() == "(":
                sc.take("(")
                parents.append(stack[-1])
                labels.append(NO_EVENT)
                stack.append(len(parents) - 1)
                continue
            names[len(parents)] = checked_token("a leaf name")
            parents.append(stack[-1])
            sc.take(":")
            labels.append(parse_label())
            closing = True
            while closing:
                if sc.peek() == ",":
                    sc.take(",")
                    closing = False
                elif sc.peek() == ")":
                    sc.take(")")
                    closed = stack.pop()
                    if not stack:
                        closing = False
                    else:
                        sc.take(":")
                        labels[closed] = parse_label()
                else:
                    found = sc.peek() or "end of input"
                    raise sc.error(f"expected ',' or ')', found {found!r}")
    sc.take(";")
    if sc.text[sc.pos:].strip():
        raise sc.error("trailing content after ';'")
    return LabeledTree(parents, labels, names)


def tree_outcome(read, text):
    """What a reader makes of the text: the tree's parent, label and name
    arrays, or the class and message of the error it raises."""
    try:
        t = read(text)
    except FitchError as e:
        return type(e), str(e)
    return t._parent, t._labels, t._names


# the delimiters, '-', '.', '|', letters, whitespace of several kinds
# (ASCII, a C0 separator, NEL, no-break space) and a non-ASCII letter
TREE_GLYPHS = "():,;-.|ab1 \t\n\r\x1c\x85\xa0\xe9"


def mutated_tree_text(rng):
    """A written tree with up to three glyphs inserted, deleted or
    replaced, and sometimes cut short."""
    tree, _ = random_tree_like_instance(rng.randrange(1 << 30), rng.randrange(2, 8), rng.randrange(4))
    text = list(write_tree(tree))
    for _ in range(rng.randrange(4)):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text.insert(pos, rng.choice(TREE_GLYPHS))
        elif pos < len(text):
            text[pos:pos + 1] = [] if kind == 1 else [rng.choice(TREE_GLYPHS)]
    if rng.random() < 0.1:
        del text[rng.randrange(len(text) + 1):]
    return "".join(text)


class TestTreeReaderAgainstReference:
    def test_fuzzed_trees_match_reference(self):
        rng = random.Random(1618)
        malformed = 0
        for _ in range(10_000):
            text = mutated_tree_text(rng)
            expected = tree_outcome(reference_read_tree, text)
            assert tree_outcome(read_tree, text) == expected, repr(text)
            malformed += isinstance(expected[0], type)
        # both sides of the reader are exercised
        assert 2_000 < malformed < 9_000

    @pytest.mark.parametrize("text,line,col", [
        ("(a:- ,b:1);\n", 1, 5),  # a '-' label cut short by whitespace
        ("(a:-,b:1", 1, 9),  # a label at the end of input
        ("(a:-,b:-", 1, 9),
        ("(a:-,b:", 1, 8),
        ("( a:-,b:1);\n", 1, 2),  # whitespace right after '('
        ("(a:-, b:1);\n", 1, 6),  # whitespace right after ','
        ("(a|b:-,c:1);\n", 1, 2),  # '|' inside a token
        # a text of two lines: its error is the newline itself, since
        # whitespace before the final ';' is never legal, so no error of
        # the reader lies past line 1
        ("(a:-,\nb:1 );\n", 1, 6),
        ("((a:-,b:1):\x85,c:2);\n", 1, 12),
        ("(a:-,b:1);\n\xa0x", 1, 11),
    ])
    def test_fixed_cases_match_reference(self, text, line, col):
        expected = tree_outcome(reference_read_tree, text)
        assert tree_outcome(read_tree, text) == expected
        with pytest.raises(ParseError) as got:
            read_tree(text)
        assert (got.value.line, got.value.col) == (line, col)

    def test_whitespace_pattern_is_str_isspace(self):
        """The reader ends a token at the first match of fio._SPACE, and
        the reference at the first character where str.isspace() holds: the
        two agree on every code point, or error columns would shift."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert fio._SPACE.findall(every) == list(filter(str.isspace, every))


# one-character tokens of both paths' maps, control characters among them
ONE_CHAR_SYMBOLS = "1234abcXYZ~!@#$%^&*\x01\x02\x7f"
MUTATIONS = (
    None, "two-char", "cr", "space", "paren", "non-ascii", "dot", "drop-tab",
    "extra-row", "no-newline", "tab-swap", "tab-token",
)


def one_char_text(rng, n, k, row, col, mutation):
    """The .fm text of a random map on n leaves with up to k one-character
    symbols, with one mutation, if any, in the given row; a mutated cell
    is the one at col, off the diagonal."""
    names = [f"v{i}" for i in range(n)]
    if rng.random() < 0.2:
        names[0] = "é"  # a non-ASCII leaf name leaves the body ASCII
    tokens = ["-", *rng.sample(ONE_CHAR_SYMBOLS, k)]
    rows = [rng.choices(tokens, k=n) for _ in range(n)]
    for i, cells in enumerate(rows):
        cells[i] = "."
    cells = rows[row]
    if mutation in ("two-char", "space", "paren", "non-ascii", "dot"):
        cells[col] = {"two-char": "ab", "space": " ", "paren": "(", "non-ascii": "é", "dot": "."}[mutation]
    lines = ["#fitchmap v1", "\t".join(names), *map("\t".join, rows)]
    if mutation == "cr":
        lines[row + 2] += "\r"
    elif mutation == "drop-tab":
        lines[row + 2] = lines[row + 2].replace("\t", "", 1)
    elif mutation == "tab-swap":
        # the last cell and the tab before it trade places; the length stays 2n^2
        line = lines[row + 2]
        lines[row + 2] = line[:-2] + line[-1] + line[-2]
    elif mutation == "tab-token":
        # a symbol in place of a tab; the length stays 2n^2 and every
        # other byte is still a one-character token
        lines[row + 2] = lines[row + 2].replace("\t", "1", 1)
    elif mutation == "extra-row":
        lines.insert(row + 3, lines[row + 2])
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if mutation == "no-newline" else text


def row_path_outcome(monkeypatch, text):
    """What the row path alone makes of the text: the byte path declines."""
    with monkeypatch.context() as m:
        m.setattr(fio, "_read_cells", lambda *args: None)
        return outcome(read_map, text)


class TestBytePathAgainstRowPath:
    def check(self, monkeypatch, text):
        got = outcome(read_map, text)
        assert got == row_path_outcome(monkeypatch, text), text
        if not isinstance(got[0], type):
            m = read_map(text)
            assert write_map(m) == text
            head = "#fitchmap v1\n" + "\t".join(m.leaves) + "\n"
            assert "".join([head, *fio._write_rows(m)]) == text
        return got

    def test_small_maps(self, monkeypatch):
        rng = random.Random(1729)
        failed = 0
        for n in range(2, 71):
            for t in range(4):
                mutation = MUTATIONS[(n + t) % len(MUTATIONS)]
                row = rng.randrange(n)
                col = (row + 1 + rng.randrange(n - 1)) % n
                text = one_char_text(rng, n, rng.randrange(10), row, col, mutation)
                failed += isinstance(self.check(monkeypatch, text)[0], type)
        # 3 of the 12 mutations leave a valid map
        assert 160 < failed < 230

    @pytest.mark.parametrize("n", [300, 1000])
    def test_maps_of_several_blocks(self, monkeypatch, n):
        """Each mutation lands at the end of the last row of a block, or at
        the start of the first row of the next one; n is no multiple of the
        rows of a block."""
        rows = fio._BLOCK_CELLS // n
        assert 0 < n % rows
        rng = random.Random(n)
        for i, mutation in enumerate(MUTATIONS):
            for last in (True, False):
                row = rows * (1 + i % (n // rows)) - last
                text = one_char_text(rng, n, 9, row, n - 1 if last else 0, mutation)
                self.check(monkeypatch, text)


def raise_if_called(*args):
    raise AssertionError("this path must not run")


class TestPathTaken:
    def test_one_char_map_takes_the_byte_path(self, monkeypatch):
        text = one_char_text(random.Random(3), 300, 9, 0, 1, None)
        for helper in ("_read_rows", "_row_passes", "_row_error", "_write_rows"):
            monkeypatch.setattr(fio, helper, raise_if_called)
        m = read_map(text)
        assert m.n == 300 and len(m.alphabet) == 9
        assert write_map(m) == text

    def test_comb_with_two_byte_codes_takes_the_row_path(self, monkeypatch):
        """A comb of 129 leaves on 128 one-character symbols: no 128 such
        symbols are all ASCII, so two-byte codes never meet the byte path."""
        symbols = [chr(c) for c in range(0x100, 0x180)]
        node = (("t127", symbols[127]), ("t128", NO_EVENT))
        for i in range(126, -1, -1):
            node = ((f"t{i:03d}", symbols[i]), (node, NO_EVENT))
        fmap = evaluate(LabeledTree.build(node))
        assert fmap._codes.itemsize == 2
        self.check_row_path(monkeypatch, fmap)

    def test_two_char_symbol_takes_the_row_path(self, monkeypatch):
        fmap = make_fitch_map(["a", "b", "c"], {
            ("a", "b"): "xy", ("a", "c"): "1", ("b", "a"): NO_EVENT,
            ("b", "c"): "1", ("c", "a"): "xy", ("c", "b"): NO_EVENT,
        })
        self.check_row_path(monkeypatch, fmap)

    @staticmethod
    def check_row_path(monkeypatch, fmap):
        """Written with the byte writer raising, the map gives the bytes of
        a token-by-token writer; they read back, through the row reader,
        as the same map."""
        tokens = ("-", *fmap.alphabet)
        rows = ("\t".join("." if c < 0 else tokens[c] for c in row) for row in code_rows(fmap))
        text = "".join(line + "\n" for line in ["#fitchmap v1", "\t".join(fmap.leaves), *rows])
        read_rows, calls = fio._read_rows, []

        def counted_read_rows(*args):
            calls.append(args)
            return read_rows(*args)

        monkeypatch.setattr(fio, "_write_cells", raise_if_called)
        monkeypatch.setattr(fio, "_read_rows", counted_read_rows)
        assert write_map(fmap) == text
        assert read_map(text) == fmap
        assert len(calls) == 1
