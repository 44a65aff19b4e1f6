"""On-disk representation of a subspace code.

A code file is canonical JSON (sorted keys, two-space indent, LF endings,
one trailing newline) with fields format_version, q, n, kind, codewords.
Each codeword is the ';'-joined row literal of a canonical generator matrix
(the zero subspace is the empty string).  Loading builds each Subspace from
the rows as written, so the Subspace constructor is the canonical-form check;
with the uniqueness check, load followed by save is byte-identical.  A code
has few distinct rows, so the loader parses each distinct row literal once,
and equal rows of different codewords are one shared row, which keeps a
loaded code small.  Over GF(2) a row is parsed straight to its packed
integer and each codeword is built from those (``Subspace.from_packed``);
over GF(q), q > 2, from a matrix of row tuples.  Every codeword still gets
its own canonical-form and uniqueness checks.
"""

from __future__ import annotations

import json

from .constructions import SubspaceCode
from .errors import BadParams, InvariantViolation, ParseError
from .matrices import MatGF
from .subspaces import Subspace, field_for_order, literal_rows, to_literal

FORMAT_VERSION = 1


def dumps_code(code: SubspaceCode) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "q": code.spec.order,
        "n": code.n,
        "kind": code.kind,
        "codewords": [to_literal(w) for w in code.words],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_code(code: SubspaceCode, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_code(code))


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
    words = []
    seen = set()
    parsed = {}  # row literal -> its row, parsed once and kept by every word that has it
    packed = spec.order == 2
    for i, lit in enumerate(doc["codewords"]):
        if not isinstance(lit, str):
            raise ParseError(f"codeword {i}: expected a string, got {type(lit).__name__}")
        try:
            rows = literal_rows(lit, spec, n, parsed, packed)
        except ParseError as e:
            raise ParseError(f"codeword {i}: {e}") from e
        try:
            w = Subspace.from_packed(spec, n, rows) if packed else Subspace(spec, n, MatGF(spec, rows, cols=n))
        except BadParams:
            raise InvariantViolation(
                f"codeword {i}: rows are not a reduced echelon generator matrix"
            ) from None
        if w.key() in seen:
            raise InvariantViolation(f"codeword {i}: duplicate subspace")
        seen.add(w.key())
        words.append(w)
    return SubspaceCode(spec, n, words, kind=doc["kind"])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_code(path: str) -> SubspaceCode:
    with open(path, "r") as fh:
        return loads_code(fh.read())
