"""Bit-exact text serialization.

Relation-matrix format (.fm): header line '#fitchmap v1', a tab-separated
leaf-name line, then one tab-separated row per leaf; '.' marks the
diagonal and '-' marks NO_EVENT.  LF line endings, trailing newline
required.  The reader checks each distinct token once, in linear time.

Labeled-Newick format (.lnw): node := leafName | "(" node ":" label
("," node ":" label)+ ")", terminated by ";"; each edge label follows its
child after a colon, '-' again meaning NO_EVENT.  The writer emits
children in canonical order, so write(read(write(x))) is byte-identical.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    InvalidToken,
    Label,
    LabeledTree,
    NonPhylogenetic,
    ReservedToken,
    TreeBuilder,
    check_token,
    make_fitch_map,  # unused here; perfbench/spans.py wraps it, else --trace 1 hits AttributeError
)

_MAP_HEADER = "#fitchmap v1"


class ParseError(FitchError):
    """Malformed input text; carries 1-based line and column."""

    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"line {line}, column {col}: {reason}")
        self.line = line
        self.col = col
        self.reason = reason


class ShapeError(ParseError):
    """Row/column counts disagree with the declared leaf set."""


# ---------------------------------------------------------------------------
# relation-matrix format
# ---------------------------------------------------------------------------

def read_map(text: str) -> FitchMap:
    if not text.endswith("\n"):
        last = max(1, text.count("\n") + 1)
        raise ParseError(last, max(1, len(text.rsplit("\n", 1)[-1]) + 1),
                         "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != _MAP_HEADER:
        raise ParseError(1, 1, f"expected header {_MAP_HEADER!r}")
    if len(lines) < 2:
        raise ParseError(2, 1, "missing leaf-name line")
    names = lines[1].split("\t")
    seen = set()
    col = 1
    for nm in names:
        if nm in ("-", "."):
            raise ReservedToken(
                f"line 2, column {col}: leaf name {nm!r} is reserved"
            )
        try:
            check_token(nm, "token")
        except InvalidToken as e:
            raise ParseError(2, col, str(e)) from None
        if nm in seen:
            raise ParseError(2, col, f"duplicate leaf name {nm!r}")
        seen.add(nm)
        col += len(nm) + 1
    n = len(names)
    if n < 2:
        raise ShapeError(2, 1, f"need at least 2 leaves, found {n}")
    if len(lines) != n + 2:
        raise ShapeError(
            min(len(lines), n + 2) + 1, 1,
            f"expected {n} matrix rows, found {len(lines) - 2}",
        )

    # pass one: the shape, the diagonal and each distinct token, checked once
    known = {"-"}  # tokens that passed check_token, plus '-', which needs none
    for i, line in enumerate(lines[2:]):
        lineno = i + 3
        cells = line.split("\t")
        if len(cells) != n:
            raise ShapeError(lineno, 1, f"expected {n} cells, found {len(cells)}")
        col = 1
        for j, cell in enumerate(cells):
            if i == j:
                if cell != ".":
                    raise ParseError(lineno, col, f"diagonal cell must be '.', found {cell!r}")
            elif cell == ".":
                raise ParseError(lineno, col, "'.' is only allowed on the diagonal")
            elif cell not in known:
                try:
                    check_token(cell, "token")
                except InvalidToken as e:
                    raise ParseError(lineno, col, str(e)) from None
                known.add(cell)
            col += len(cell) + 1
    # pass two: every token is known, so each row maps through one dict
    alphabet = tuple(sorted(known - {"-"}))
    code = {s: c for c, s in enumerate(alphabet, 1)} | {"-": 0, ".": -1}
    rows = [[code[cell] for cell in line.split("\t")] for line in lines[2:]]
    return FitchMap(names, alphabet, rows)


def write_map(fmap: FitchMap) -> str:
    tokens = ("-", *fmap.alphabet, ".")  # code c is tokens[c]; the diagonal's -1 is '.'
    rows = ("\t".join(map(tokens.__getitem__, row)) for row in fmap._rows)
    return "\n".join([_MAP_HEADER, "\t".join(fmap.leaves), *rows]) + "\n"


# ---------------------------------------------------------------------------
# labeled-Newick format
# ---------------------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: Optional[int] = None) -> tuple[int, int]:
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return line, col

    def error(self, reason: str, pos: Optional[int] = None) -> ParseError:
        line, col = self.location(pos)
        return ParseError(line, col, reason)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def token(self, what: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "():,;" \
                and not self.text[self.pos].isspace():
            self.pos += 1
        tok = self.text[start:self.pos]
        if not tok:
            found = self.peek() or "end of input"
            raise self.error(f"expected {what}, found {found!r}")
        return tok


def read_tree(text: str) -> LabeledTree:
    sc = _Scanner(text)
    builder = TreeBuilder()

    def checked_token(what: str) -> str:
        start = sc.pos
        tok = sc.token(what)
        try:
            check_token(tok, "token")
        except InvalidToken as e:
            raise sc.error(str(e), start) from None
        return tok

    def parse_label() -> Label:
        start = sc.pos
        tok = sc.token("an edge label")
        if tok == "-":
            return NO_EVENT
        try:
            check_token(tok, "token")
        except InvalidToken as e:
            raise sc.error(str(e), start) from None
        return tok

    # iterative descent: the stack holds the open '(' groups, so nesting
    # depth never touches the interpreter recursion limit
    if sc.peek() != "(":
        # a bare leaf parses but cannot form a phylogenetic tree
        builder._names[builder.root()] = checked_token("a leaf name or '('")
    else:
        sc.take("(")
        stack = [builder.root()]
        while stack:
            # one child node of the innermost open group
            if sc.peek() == "(":
                sc.take("(")
                stack.append(builder.child(stack[-1], NO_EVENT))
                continue
            vid = builder.child(stack[-1], NO_EVENT, name=checked_token("a leaf name"))
            sc.take(":")
            builder._labels[vid] = parse_label()
            # the child is complete: a ',' starts a sibling, each ')'
            # closes a group which then receives its own label
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
                        builder._labels[closed] = parse_label()
                else:
                    found = sc.peek() or "end of input"
                    raise sc.error(f"expected ',' or ')', found {found!r}")
    sc.take(";")
    if sc.text[sc.pos:].strip():
        raise sc.error("trailing content after ';'")
    return builder.freeze()


def write_tree(tree: LabeledTree) -> str:
    if tree.n_leaves < 2:
        raise NonPhylogenetic("only phylogenetic trees (>= 2 leaves) are serialized")
    return tree._text() + ";\n"
