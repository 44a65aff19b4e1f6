"""On-disk representation of a subspace code.

A code file is canonical JSON (sorted keys, two-space indent, LF endings,
one trailing newline) with fields format_version, q, n, kind, codewords.
Each codeword is the ';'-joined row literal of a canonical generator matrix,
one digit per entry, so a file holds a code over GF(q) with q <= 10 (the
zero subspace is the empty string).  A code is its words' rows
(``SubspaceCode.ids`` and ``rows``), and loading builds no ``Subspace``:
each codeword's rows, as written, go through the row form's canonical-form
check (``RowForm.check``, the check a ``Subspace`` makes), which gives its
packed pivots; with the uniqueness check, load followed by save is
byte-identical.

The loader works in passes over all the codewords, not codeword by
codeword.  It strips each codeword of surrounding whitespace, as
``subspaces.literal_rows`` strips a literal, and one set of the stripped
codewords is the duplicate test: a bare row literal is one row, and a row
has one literal, so codewords tell words apart as their rows do.  A code
has few distinct rows, and one row table (``subspaces.RowTable``, a dict)
maps each row literal to its row, parsed once, on its first lookup
(``RowForm.parse``: a packed integer over GF(2), a tuple otherwise), so
equal rows of different codewords are one shared row, which keeps a loaded
code small.  One pipeline of C-level maps splits each codeword in turn and
looks its rows up in the table, with no Python loop over the codewords;
the zero subspace's '' has no row, and its words are set to () afterwards.
Then one map takes every word's pivots.  Every valid file loads through
the passes.  If a pass finds a fault (a codeword that is no string, a
repeat, a row literal that is not n digits of GF(q), a word that fails its
check), a loop goes over the codewords in file order, each with its own
parse (``literal_rows``, on the same table), canonical-form and uniqueness
checks, and raises the error of the first fault it meets.
Saving writes each word from its rows (``rows_literal``), each distinct row
once.
"""

from __future__ import annotations

import json
from itertools import compress, count, repeat
from operator import not_
from typing import NoReturn

from .constructions import SubspaceCode
from .errors import BadParams, InvariantViolation, ParseError
from .matrices import row_form
from .subspaces import RowTable, field_for_order, literal_rows, rows_literal

FORMAT_VERSION = 1


def dumps_code(code: SubspaceCode) -> str:
    """The code file's text; BadParams for q > 10, whose entries need more
    than the one digit a row literal gives each."""
    if code.spec.order > 10:
        raise BadParams(f"code files write one digit per entry, so q must be at most 10, got {code.spec.order}")
    written = {}  # row -> its digit string, written once for every word that has it
    doc = {
        "format_version": FORMAT_VERSION,
        "q": code.spec.order,
        "n": code.n,
        "kind": code.kind,
        "codewords": [rows_literal(rows, code.spec, code.n, written) for rows in code.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_code(code: SubspaceCode, path: str) -> None:
    text = dumps_code(code)  # before the file is opened, so a code it refuses writes no file
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def loads_code(text: str) -> SubspaceCode:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:  # arrays or objects nested past the interpreter's limit
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("format_version", "q", "n", "kind", "codewords"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    version, kind = doc["format_version"], doc["kind"]
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    q, n = doc["q"], doc["n"]
    if not _is_int(q) or q < 2:
        raise ParseError(f"q must be an integer >= 2, got {q!r}")
    if not _is_int(n) or n < 0:
        raise ParseError(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(kind, str):
        raise ParseError(f"kind must be a string, got {kind!r}")
    spec = field_for_order(q)
    lits = doc["codewords"]
    if not isinstance(lits, list):
        raise ParseError("codewords must be a list of row literals")
    check, table = row_form(spec, n).check, RowTable(spec, n)
    loaded = _load_in_passes(lits, table, check)
    if loaded is None:
        _name_the_first_fault(lits, spec, n, check, table)
    ids, words = loaded
    return SubspaceCode._of_rows(spec, n, ids, words, kind=kind)


def _load_in_passes(lits, table: RowTable, check) -> tuple[list, list] | None:
    """Each codeword's pivots and rows, each step one pass over all the
    codewords; None when a pass finds a fault.  The codewords are stripped
    in place, as ``literal_rows`` strips one, and split one at a time, with
    their rows looked up in ``table``: splitting them all at once would
    hold every row literal of a large file together."""
    if not {str}.issuperset(map(type, lits)):
        return None
    lits[:] = map(str.strip, lits)
    # a bare row literal is one row and a row has one, so the stripped
    # codewords tell words apart as their rows do; the set is gone before
    # the words are made, which keeps a large load's peak down
    if len(set(lits)) < len(lits):
        return None
    # '' is the zero subspace, no row: a '' row of a longer codeword is None,
    # which fails the check, and a '' codeword's word is set to () below
    table[""] = None
    try:
        words = list(map(tuple, map(map, repeat(table.__getitem__), map(str.split, lits, repeat(";")))))
    except KeyError:  # a row literal that is not bare
        return None
    for i in compress(count(), map(not_, lits)):
        words[i] = ()
    try:
        ids = list(map(check, words))
    except BadParams:
        return None
    return ids, words


def _name_the_first_fault(lits, spec, n: int, check, table: RowTable) -> NoReturn:
    """Raise the error of the first codeword, in file order, that is no
    string, has a row literal that is not n digits of GF(q), is not a
    reduced echelon generator matrix or repeats a codeword before it: the
    faults ``_load_in_passes`` finds, named as a codeword-by-codeword load
    meets them.  Rows come from ``table``, the passes' row table; a row it
    does not hold, or holds as None, goes through ``literal_rows``."""
    seen = set()
    for i, lit in enumerate(lits):
        if not isinstance(lit, str):
            raise ParseError(f"codeword {i}: expected a string, got {type(lit).__name__}")
        rows = tuple(map(table.get, lit.split(";")))
        if None in rows:  # a row seen for the first time, or not a bare row literal
            try:
                rows = literal_rows(lit, spec, n, table)
            except ParseError as e:
                raise ParseError(f"codeword {i}: {e}") from e
        try:
            check(rows)
        except BadParams:
            raise InvariantViolation(
                f"codeword {i}: rows are not a reduced echelon generator matrix"
            ) from None
        size = len(seen)
        seen.add(rows)
        if len(seen) == size:
            raise InvariantViolation(f"codeword {i}: duplicate subspace")
    raise AssertionError("the passes found a fault that no codeword has")  # unreachable


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_code(path: str) -> SubspaceCode:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8: byte {e.start}: {e.reason}") from None
    return loads_code(text)
