"""Bit-exact text serialization.

Relation-matrix format (.fm): header line '#fitchmap v1', a tab-separated
leaf-name line, then one tab-separated row per leaf; '.' marks the
diagonal and '-' marks NO_EVENT.  LF line endings, trailing newline
required.

Maps whose tokens are all one ASCII character, such as every generated
map with at most 9 symbols, take the byte path, in blocks of about 64K
cells.  The reader takes the body in chunks of rows, sliced from
read_map's text or read from the command line's binary file, checks them
by C-level byte operations, copies the cells into one code array and
codes it in place once the alphabet is known.  The writer translates the
codes through a token table and puts the tabs and newlines in by slice
assignment; the command line writes each block to its file.  Every other
input takes the row path: a token of several or non-ASCII characters, a
carriage return, and every malformed body; a file the byte path declines
(a BOM, bytes not UTF-8) is read again as text.  Its reader checks each
row with C-level tests (cell count, the diagonal, each distinct token
once) and walks a row cell by cell only to name the position of its
error, so it alone raises the errors of a body.

Labeled-Newick format (.lnw): node := leafName | "(" node ":" label
("," node ":" label)+ ")", terminated by ";"; each edge label follows its
child after a colon, '-' again meaning NO_EVENT.  The writer emits
children in canonical order, so write(read(write(x))) is byte-identical.
The reader splits the text once at the delimiters '():,;', ends each
token at its first whitespace and walks the tokens with an explicit
stack; it counts an error's line and column only when it raises one.
"""

from __future__ import annotations

import os
import re
from array import array
from typing import BinaryIO, Callable, Iterator, Optional

from .core import (
    NO_EVENT,
    FitchError,
    FitchMap,
    InvalidToken,
    Label,
    LabeledTree,
    NonPhylogenetic,
    ReservedToken,
    _code_array,
    _item,
    check_token,
    make_fitch_map,  # unused here; perfbench/spans.py wraps it, else --trace 1 hits AttributeError
)

_MAP_HEADER = "#fitchmap v1"
# cells per block of the byte paths: a block stays in cache
_BLOCK_CELLS = 1 << 16


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
    start = text.find("\n")
    if text[:start] != _MAP_HEADER:
        raise ParseError(1, 1, f"expected header {_MAP_HEADER!r}")
    end = text.find("\n", start + 1)
    if end < 0:
        raise ParseError(2, 1, "missing leaf-name line")
    names = _leaf_names(text[start + 1:end])
    body = end + 1  # non-ASCII characters encode to more bytes, which the byte path declines
    fmap = _read_cells(lambda a, b: text[body + a:body + b].encode("utf-8", "surrogatepass"),
                       names, len(text) - body)
    return fmap if fmap is not None else _read_rows(text, names)


def _leaf_names(line: str) -> list[str]:
    """The checked leaf names of the leaf-name line, without its newline."""
    names = line.split("\t")
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
    if len(names) < 2:
        raise ShapeError(2, 1, f"need at least 2 leaves, found {len(names)}")
    return names


def _read_map_file(fh: BinaryIO) -> Optional[FitchMap]:
    """The map in the binary file fh by the byte path; None, with fh partly read,
    for any other file than a clean LF map of one-character ASCII tokens."""
    if fh.readline(len(_MAP_HEADER) + 1) != f"{_MAP_HEADER}\n".encode():
        return None
    try:
        # a name line cut by the end of the file has an empty body to decline
        names = _leaf_names(fh.readline()[:-1].decode())
    except (UnicodeDecodeError, FitchError):
        return None
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    return _read_cells(lambda a, b: fh.read(b - a), names, size)


def _read_cells(read: Callable[[int, int], bytes], names: list[str],
                size: int) -> Optional[FitchMap]:
    """The byte path: the map whose body of `size` characters (its bytes a
    to b are read(a, b), asked for in order) is n rows of n one-character
    ASCII cells, checked by C-level byte operations on chunks of about
    _BLOCK_CELLS cells; None for any other body, which the row path reads.
    A body of any other size than 2n^2 is declined before the code array
    is allocated, so a short file costs no n^2 bytes."""
    n = len(names)
    if size != 2 * n * n:
        return None
    rows = max(1, _BLOCK_CELLS // n)
    seps = (b"\t" * (n - 1) + b"\n") * rows
    known = b"-"  # the tokens that passed check_token, and '-'
    # raw cells, coded once the alphabet is known; 110 symbols at most fit one byte
    codes = array("b", bytes(1)) * (n * n)
    cells = memoryview(codes).cast("B")
    for r in range(0, n, rows):
        k = min(rows, n - r)
        chunk = read(2 * n * r, 2 * n * (r + k))
        block = chunk[::2]
        if chunk[1::2] != seps[:k * n] or not block.isascii():
            return None
        new = block.translate(None, known)  # the dots, and tokens not yet known
        if block[r::n + 1] != b"." * k or new.count(b".") != k:
            return None
        new = new.replace(b".", b"")
        while new:
            try:
                check_token(chr(new[0]), "token")
            except InvalidToken:
                return None
            known += new[:1]
            new = new.translate(None, new[:1])
        cells[r * n:(r + k) * n] = block
    alphabet = bytes(sorted(known[1:]))
    table = bytes.maketrans(b"-" + alphabet + b".", bytes(range(len(known))) + b"\xff")
    for a in range(0, n * n, _BLOCK_CELLS):
        cells[a:a + _BLOCK_CELLS] = cells[a:a + _BLOCK_CELLS].tobytes().translate(table)
    return FitchMap._from_codes(tuple(names), tuple(alphabet.decode()), codes)


def _read_rows(text: str, names: list[str]) -> FitchMap:
    """The row path: reads every body and names the first error of a
    malformed one by its line and column."""
    n = len(names)
    lines = text.split("\n")[2:-1]
    if len(lines) != n:
        raise ShapeError(
            min(len(lines), n) + 3, 1, f"expected {n} matrix rows, found {len(lines)}",
        )

    # pass one: the shape, the diagonal and each distinct token, checked
    # once, by C-level tests of each row; a row that fails them is walked
    # cell by cell to name the line, column and reason
    known = {"-", "."}  # tokens that passed check_token, plus the two reserved ones
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if not _row_passes(cells, i, n, known):
            _row_error(i + 3, cells, i, n, known)
    # pass two: every token is known, so each row codes through one dict
    # of item bytes, straight into the map's code array
    alphabet = tuple(sorted(known - {"-", "."}))
    codes = _code_array(len(alphabet))
    item = {s: _item(codes, c) for c, s in enumerate(("-", *alphabet))}
    item["."] = _item(codes, -1)
    for line in lines:
        codes.frombytes(b"".join(map(item.__getitem__, line.split("\t"))))
    return FitchMap._from_codes(tuple(names), alphabet, codes)


def _row_passes(cells: list[str], i: int, n: int, known: set) -> bool:
    """Row i has n cells, '.' exactly at i, and tokens that pass
    check_token; the new ones join `known`."""
    if len(cells) != n or cells[i] != "." or cells.count(".") != 1:
        return False
    if not known.issuperset(cells):
        new = set(cells).difference(known)
        try:
            for token in new:
                check_token(token, "token")
        except InvalidToken:
            return False
        known |= new
    return True


def _row_error(lineno: int, cells: list[str], i: int, n: int, known: set) -> None:
    """Raise the first error of a row that failed _row_passes, in column order."""
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
        col += len(cell) + 1
    raise AssertionError("a row that failed its checks has no error")


def write_map(fmap: FitchMap) -> str:
    head, table = _map_head(fmap)
    if table is None:
        return "".join([head, *_write_rows(fmap)])
    return "".join([head, *(block.decode() for block in _write_cells(fmap, table))])


def _map_blocks(fmap: FitchMap) -> Iterator[bytes]:
    """The .fm bytes of a map, the header and then block by block."""
    head, table = _map_head(fmap)
    yield head.encode("utf-8", "surrogatepass")
    if table is None:
        yield from (row.encode("utf-8", "surrogatepass") for row in _write_rows(fmap))
    else:
        yield from _write_cells(fmap, table)


def _map_head(fmap: FitchMap) -> tuple[str, Optional[bytes]]:
    """The header and leaf-name lines of a map, and the token table of
    _write_cells if the map takes the byte path, else None."""
    head = f"{_MAP_HEADER}\n" + "\t".join(fmap.leaves) + "\n"
    tokens = "-" + "".join(fmap.alphabet)  # code c is tokens[c]
    # one ASCII character a token leaves at most 110 symbols: one byte a code
    if len(tokens) == len(fmap.alphabet) + 1 and tokens.isascii():
        return head, tokens.encode().ljust(256, b".")
    return head, None


def _write_cells(fmap: FitchMap, table: bytes) -> Iterator[bytearray]:
    """The byte path: the rows of a map whose tokens are one ASCII
    character each, in blocks of about _BLOCK_CELLS cells; `table` takes
    each code's byte to its token, and the diagonal's -1 (byte 255) to '.'."""
    n = fmap.n
    rows = max(1, _BLOCK_CELLS // n)
    seps = (b".\t" * (n - 1) + b".\n") * rows  # the cells are written over the dots
    for r in range(0, n, rows):
        k = min(rows, n - r)
        block = bytearray(seps[:2 * k * n])
        block[::2] = fmap._rows_bytes(r, r + k).translate(table)
        yield block


def _write_rows(fmap: FitchMap) -> Iterator[str]:
    """The row path: the rows of any map, token by token."""
    tokens = ("-", *fmap.alphabet, ".")  # code c is tokens[c]; the diagonal's -1 is '.'
    return ("\t".join([tokens[c] for c in fmap._row(i)]) + "\n" for i in range(fmap.n))


# ---------------------------------------------------------------------------
# labeled-Newick format
# ---------------------------------------------------------------------------

# the tokenizer: one split, and each token ends at its first whitespace
_DELIMITERS = re.compile(r"([():,;])")
_SPACE = re.compile(r"\s")  # exactly str.isspace(), which tests/test_io.py checks


def _error(parts: list, k: int, at: int, expected: str, reason: str = "") -> ParseError:
    """The error at offset `at` into parts[k], located only when raised; the
    reason defaults to "expected <expected>, found <the character there>"."""
    found = parts[k][at:at + 1] or parts[k + 1] or "end of input"
    head = "".join(parts[:k]) + parts[k][:at]
    return ParseError(head.count("\n") + 1, len(head) - head.rfind("\n"),
                      reason or f"expected {expected}, found {found!r}")


def _token(parts: list, k: int, what: str, follow: tuple, checked: set,
           label: bool = False) -> Label:
    """parts[k] up to its first whitespace: a token that passes check_token
    unless it is a label's '-' (NO_EVENT), followed by a delimiter in `follow`;
    `checked` holds the tokens that passed, so each is checked once."""
    space = _SPACE.search(parts[k])
    tok = parts[k][:space.start()] if space else parts[k]
    if not tok:
        raise _error(parts, k, 0, what)
    dash = label and tok == "-"
    if not dash and tok not in checked:
        try:
            checked.add(check_token(tok, "token"))
        except InvalidToken as e:
            raise _error(parts, k, 0, "", str(e)) from None
    if space or parts[k + 1] not in follow:
        raise _error(parts, k, len(tok), " or ".join(map(repr, follow)))
    return NO_EVENT if dash else tok


def read_tree(text: str) -> LabeledTree:
    # parts[k] for even k is the (maybe empty) token before the delimiter
    # parts[k + 1]; the appended None stands for the end of input
    parts = _DELIMITERS.split(text)
    parts.append(None)
    parents: list[Optional[int]] = [None]
    labels: list[Optional[Label]] = [None]
    names: dict[int, str] = {}
    checked: set = set()
    k = 2  # the token after the first delimiter
    if parts[0] or parts[1] != "(":
        # a bare leaf parses but cannot form a phylogenetic tree
        names[0] = _token(parts, 0, "a leaf name or '('", (";",), checked)
    else:
        # iterative descent: the stack holds the open '(' groups, so nesting
        # depth never touches the interpreter recursion limit
        stack = [0]
        while stack:
            # one child node of the innermost open group
            parents.append(stack[-1])
            if not parts[k] and parts[k + 1] == "(":
                labels.append(NO_EVENT)  # until the group closes
                stack.append(len(parents) - 1)
                k += 2
                continue
            names[len(parents) - 1] = _token(parts, k, "a leaf name", (":",), checked)
            labels.append(_token(parts, k + 2, "an edge label", (",", ")"), checked, label=True))
            k += 4
            # the child is complete: the ',' after its label starts a
            # sibling, each ')' closes a group which then receives its label
            while parts[k - 1] == ")":
                closed = stack.pop()
                if not stack:
                    break
                if parts[k] or parts[k + 1] != ":":
                    raise _error(parts, k, 0, "':'")
                labels[closed] = _token(parts, k + 2, "an edge label", (",", ")"), checked,
                                        label=True)
                k += 4
        if parts[k] or parts[k + 1] != ";":
            raise _error(parts, k, 0, "';'")
        k += 2
    if "".join(parts[k:-1]).strip():
        raise _error(parts, k, 0, "", "trailing content after ';'")
    return LabeledTree(parents, labels, names)


def write_tree(tree: LabeledTree) -> str:
    if tree.n_leaves < 2:
        raise NonPhylogenetic("only phylogenetic trees (>= 2 leaves) are serialized")
    return tree._text() + ";\n"
