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
byte-identical.  A code has few distinct rows, so the loader parses each
distinct row literal once, and equal rows of different codewords are one
shared row, which keeps a loaded code small: a codeword whose row literals
were all seen before is one split and one lookup per row, and any other
goes through the full parse (``subspaces.literal_rows``), which reads the
rows seen before from the same dict, parses only the new ones and gives the
error text.  A row is parsed straight into its field's row form (a packed
integer over GF(2), a tuple otherwise).  Every codeword still gets its own
canonical-form and uniqueness checks, in file order; the latter compares
the words' rows, and it is the load's one duplicate scan.  Saving writes
each word from its rows (``rows_literal``), each distinct row once.
"""

from __future__ import annotations

import json

from .constructions import SubspaceCode
from .errors import BadParams, InvariantViolation, ParseError
from .matrices import row_form
from .subspaces import field_for_order, literal_rows, rows_literal

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
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("format_version", "q", "n", "kind", "codewords"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    q, n = doc["q"], doc["n"]
    if not _is_int(q) or q < 2:
        raise ParseError(f"q must be an integer >= 2, got {q!r}")
    if not _is_int(n) or n < 0:
        raise ParseError(f"n must be a non-negative integer, got {n!r}")
    spec = field_for_order(q)
    if not isinstance(doc["codewords"], list):
        raise ParseError("codewords must be a list of row literals")
    check = row_form(spec, n).check
    ids, words = [], []  # each word's pivots and rows
    seen = set()
    parsed = {}  # row literal -> its row, parsed once and kept by every word that has it
    for i, lit in enumerate(doc["codewords"]):
        if not isinstance(lit, str):
            raise ParseError(f"codeword {i}: expected a string, got {type(lit).__name__}")
        rows = tuple(map(parsed.get, lit.split(";")))
        if None in rows:  # a row seen for the first time, or not a bare row literal
            try:
                rows = literal_rows(lit, spec, n, parsed)
            except ParseError as e:
                raise ParseError(f"codeword {i}: {e}") from e
        try:
            pivots = check(rows)
        except BadParams:
            raise InvariantViolation(
                f"codeword {i}: rows are not a reduced echelon generator matrix"
            ) from None
        # one field and one n: the rows alone tell words apart
        size = len(seen)
        seen.add(rows)
        if len(seen) == size:
            raise InvariantViolation(f"codeword {i}: duplicate subspace")
        ids.append(pivots)
        words.append(rows)
    # the one duplicate scan is the one above, which names the codeword
    return SubspaceCode._of_rows(spec, n, ids, words, kind=doc["kind"])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_code(path: str) -> SubspaceCode:
    with open(path, "r") as fh:
        return loads_code(fh.read())
