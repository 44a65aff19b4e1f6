"""Dense matrices over GF(q) with the reduced-echelon-form / rank kernel.

MatGF values are immutable: entries are a tuple of row tuples of canonical
integer representations interpreted through a FieldSpec.  The reduced
echelon form satisfies the usual four properties (zero rows last, pivots
strictly right-moving, pivots equal to 1, pivot columns otherwise zero) and
is the unique canonical form of a row space.

The rows themselves have one format per field, behind ``RowForm``
(``row_form(spec, n)``): over GF(2) a row is one integer, column 0 in the
highest bit (``pack``, ``unpack``), and the elimination is XOR on those
integers (``gf2_rank``, ``gf2_rref``); over every other field a row is a
tuple and the elimination is field arithmetic (``_rref_generic``, which also
runs on GF(2) rows as the oracle for the XOR path).  ``rref``, ``rank`` and
``mat_mul`` go through the form, and so does every module that keeps rows.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import chain, compress
from operator import concat, getitem, is_, xor

from .errors import BadParams, LengthMismatch, ShapeMismatch
from .fields import FieldSpec

_BITS = frozenset((0, 1))
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def pack(fields, width: int = 1) -> int:
    """Concatenate ``width``-bit fields, the first in the highest bits.

    With the default width a 0/1 vector packs bit by bit: "1100" packs to
    0b1100.  Packed rows of n bits pack into one integer with width n.
    """
    if width == 1:
        return int(bytes(fields).translate(_TO_DIGITS) or b"0", 2)
    v = 0
    for f in fields:
        v = (v << width) | f
    return v


@lru_cache(maxsize=256)
def unpack(v: int, n: int) -> tuple[int, ...]:
    """The n-bit row ``v`` as a 0/1 tuple; inverse of ``pack``.  Cached, so
    that the few distinct rows of a code are shared tuples, in a cache
    small enough that unpacking many random rows keeps little."""
    return tuple(format(v, "b").zfill(n).encode().translate(_FROM_DIGITS)) if n else ()


def _gf2_leads(rows) -> dict[int, int]:
    """Forward XOR elimination of packed GF(2) rows: one reduced row per
    pivot, keyed by the pivot's bit length."""
    lead: dict[int, int] = {}
    for v in rows:
        while v:
            b = v.bit_length()
            cur = lead.get(b)
            if cur is None:
                lead[b] = v
                break
            v ^= cur
    return lead


def gf2_rank(rows) -> int:
    """Rank of packed GF(2) rows."""
    return len(_gf2_leads(rows))


def gf2_rref(rows) -> list[int]:
    """The reduced echelon form of packed GF(2) rows: its nonzero rows,
    first pivot first.  A row's pivot is its leading bit."""
    lead = _gf2_leads(rows)
    # from the last pivot back: each row is cleared at the pivots of the
    # rows below it, which are already zero at each other's pivots
    out: list[tuple[int, int]] = []
    for b in sorted(lead):
        v = lead[b]
        for bit, w in out:
            if v & bit:
                v ^= w
        out.append((1 << (b - 1), v))
    return [w for _, w in reversed(out)]


class MatGF:
    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, entries, cols: int | None = None) -> None:
        # a row that is already a tuple of ints is kept, so callers can share it
        rows = tuple(
            row if type(row) is tuple and all(type(x) is int for x in row) else tuple(map(int, row))
            for row in entries
        )
        if type(entries) is tuple and all(map(is_, rows, entries)):
            rows = entries  # every row kept: keep the caller's tuple too
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        # over GF(2) one set test accepts the matrix; otherwise, or when it
        # fails, the scan below names the first fault
        if not (
            spec.order == 2
            and all(len(row) == cols for row in rows)
            and _BITS.issuperset(chain.from_iterable(rows))
        ):
            for row in rows:
                if len(row) != cols:
                    raise ShapeMismatch("ragged rows")
                for x in row:
                    if not 0 <= x < spec.order:
                        raise ShapeMismatch(f"entry {x} outside GF({spec.order})")
        self.spec = spec
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> MatGF:
        return cls(spec, tuple((0,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> MatGF:
        return cls(spec, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatGF)
            and self.spec == other.spec
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.entries))

    def __repr__(self) -> str:
        body = ";".join("".join(str(x) for x in row) for row in self.entries)
        return f"MatGF(GF({self.spec.order}), {self.rows}x{self.cols}, [{body}])"

    def transpose(self) -> MatGF:
        if self.rows == 0:
            return MatGF(self.spec, ((),) * self.cols, cols=0)
        return MatGF(self.spec, tuple(zip(*self.entries)))


def _rref_generic(spec: FieldSpec, rows: list[list[int]], cols: int):
    """In-place reduced echelon form by field arithmetic, for any q;
    returns (rank, pivot columns)."""
    add, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            s = inv(lead)
            rows[r] = [mul(s, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = neg(rows[i][c])
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots)


_NOT_CANONICAL = "generator matrix is not a full-rank reduced echelon form"


class RowForm:
    """The rows of matrices over one field with n columns, kept in one
    format, and the primitives that act on them (``row_form(spec, n)``).

    Over GF(2) a row is one integer, column 0 in the highest bit, and rows
    subtract by XOR; over every other field a row is a tuple of entries.
    Callers never look inside a row.  Each primitive has one body per format:

    - ``row_of(entries)`` is one row, ``from_entries(m)`` the rows of a
      matrix's entries (for tuples, the very tuple given) and
      ``to_entries(rows)`` their entry tuples, and ``parse(digits)`` the
      row of a bare row literal, one decimal digit per entry ("0110"; over
      GF(2) read as one binary number, so "" is the row of n = 0); none of
      them checks;
    - ``rank(rows)``; ``rref(rows)``, the nonzero rows of the reduced
      echelon form; ``combine(coeffs, rows)``, the sum of c_i row_i;
      ``remainder(x, rows)``, x reduced by the rows of a reduced echelon
      form, zero exactly when x is in their span; ``check(rows)``, the pivot
      columns of a full-rank reduced echelon form packed into one integer,
      BadParams if the rows are not one; ``rank_at_most_one(rows)``, whether
      every nonzero row is a multiple of one row, with no elimination and
      reading the rows once (over GF(2), whether they hold one distinct
      nonzero row at most);
    - ``sub_row(x, y)`` is x - y, ``entry(row, p)`` the entry in column p,
      ``lead(row)`` a key for the first nonzero column and its entry (None
      for zero), ``code(row)`` the integer whose base-q digits are the
      entries; ``flatten(rows)`` joins k rows into one row and
      ``unflatten(row, k)`` splits it again, and ``join(x, y)`` is the row
      x followed by the row y of width n, x of any width;
    - ``scaled(rows)`` is, per nonzero c in GF(q) in order, the rows
      c * row for each of ``rows`` (over GF(2), ``rows`` alone).

    ``vector(v)``, the row of v checked to be a vector of GF(q)^n, and
    ``span(rows, starts)``, each start plus every combination of the rows,
    are one body for both formats.  ``rank``, ``rref``, ``remainder``,
    ``sub_row``, ``scaled``, ``rank_at_most_one``, ``lead``, ``code`` and
    ``span`` also take rows of another width, such as flattened or joined
    ones.
    """

    def __init__(self, spec: FieldSpec, n: int) -> None:
        self.spec = spec
        self.n = n
        q = spec.order
        if q == 2:
            in_field = _BITS.issuperset
            self.row_of, self.code, self.sub_row = pack, int, xor
            self.parse = lambda digits: int(digits or "0", 2)
            self.from_entries = lambda entries: tuple(map(pack, entries))
            self.to_entries = lambda rows: [unpack(v, n) for v in rows]
            self.rank, self.rref, self.remainder = gf2_rank, gf2_rref, _gf2_remainder
            self.rank_at_most_one = lambda rows: len({0, *rows}) <= 2
            self.combine = lambda coeffs, rows: reduce(xor, compress(rows, coeffs), 0)
            self.check = partial(_gf2_check, n)
            self.scaled = lambda rows: (rows,)
            self.entry = lambda row, p: row >> (n - 1 - p) & 1
            self.lead = lambda row: (row.bit_length(), 1) if row else None
            self.flatten = lambda rows: pack(rows, n)
            self.join = lambda x, y: x << n | y
            self.unflatten = lambda row, k: [row >> (n * (k - 1 - r)) & ((1 << n) - 1) for r in range(k)]
        else:
            sub, mul = spec.sub, spec.mul
            in_field = lambda out: not out or (min(out) >= 0 and max(out) < q)  # noqa: E731
            self.row_of, self.code = tuple, lambda row: reduce(lambda a, x: a * q + x, row, 0)
            self.parse = lambda digits: tuple(map(int, digits))
            self.sub_row = lambda x, y: tuple(map(sub, x, y))
            self.from_entries = self.to_entries = lambda rows: rows
            self.rank = lambda rows: _rref_generic(spec, [list(r) for r in rows], len(rows[0]))[0] if rows else 0
            self.rref = partial(_tuple_rref, spec)
            self.remainder = partial(_tuple_remainder, spec)
            self.combine = partial(_tuple_combine, spec, n)
            self.check = partial(_tuple_check, n, q)
            multiples = lambda row: [tuple(mul(c, x) for x in row) for c in range(q)]  # noqa: E731
            self.scaled = lambda rows: list(zip(*map(multiples, rows)))[1:]
            self.rank_at_most_one = partial(_tuple_rank_at_most_one, spec)
            self.entry, self.lead, self.join = getitem, _first_nonzero, concat
            self.flatten = lambda rows: tuple(chain.from_iterable(rows))
            self.unflatten = lambda row, k: [row[r * n : (r + 1) * n] for r in range(k)]
        row_of = self.row_of

        def vector(v):
            """The row of v, checked to be a vector of GF(q)^n."""
            out = list(map(int, v))
            if len(out) == n and in_field(out):
                return row_of(out)
            if len(out) != n:
                raise LengthMismatch(f"vector of length {len(out)}, ambient is {n}")
            bad = next(x for x in out if not 0 <= x < q)
            raise ShapeMismatch(f"entry {bad} outside GF({q})")

        self.vector = vector

    def span(self, rows, starts) -> list:
        """start + sum c_i rows[i] for each start of ``starts`` in turn and
        every coefficient tuple c, in ``itertools.product`` order: the first
        row's coefficient is the most significant.  So a span extended by
        one more row is ``span([row], span(rows, starts))``."""
        out, sub = list(starts), self.sub_row
        for row in rows:
            zero = sub(row, row)
            # c * (-row), by c; over GF(2) ``scaled`` scales nothing
            minus = [zero, *chain.from_iterable(self.scaled([sub(zero, row)]))]
            out = [sub(x, m) for x in out for m in minus]
        return out


@lru_cache(maxsize=1024)
def row_form(spec: FieldSpec, n: int) -> RowForm:
    """The row form of GF(q)^n, one per field and n."""
    return RowForm(spec, n)


def _gf2_check(n: int, rows) -> int:
    pivots = seen = 0
    last = n + 1
    for v in rows:
        b = v.bit_length() if type(v) is int and v > 0 else 0
        # the bits above a row's pivot are zero, so only the rows above it
        # can meet its pivot bit
        if not 0 < b < last or seen >> (b - 1) & 1:
            raise BadParams(_NOT_CANONICAL)
        pivots |= 1 << (b - 1)
        seen |= v
        last = b
    return pivots


def _gf2_remainder(x: int, rows) -> int:
    for row in rows:
        if x >> (row.bit_length() - 1) & 1:
            x ^= row
    return x


def _tuple_check(n: int, q: int, rows) -> int:
    pivots, last = 0, -1
    for i, row in enumerate(rows):
        if type(row) is not tuple or len(row) != n:
            raise BadParams(_NOT_CANONICAL)
        p = next((j for j, x in enumerate(row) if x), -1)
        # rows below have zeros left of their pivots, so only the rows above
        # this one can be nonzero in its pivot column; then the row is not
        # empty, and its entries must be ints of GF(q)
        if p <= last or row[p] != 1 or any(rows[h][p] for h in range(i)) or (
                {*map(type, row)} != {int} or min(row) < 0 or max(row) >= q):
            raise BadParams(_NOT_CANONICAL)
        pivots |= 1 << (n - 1 - p)
        last = p
    return pivots


def _tuple_remainder(spec: FieldSpec, x, rows) -> tuple:
    add, mul, neg = spec.add, spec.mul, spec.neg
    for row in rows:
        c = x[row.index(1)]  # the row's pivot: a reduced row's first nonzero entry is 1
        if c:
            f = neg(c)
            x = tuple(add(a, mul(f, y)) for a, y in zip(x, row))
    return x


def _tuple_rref(spec: FieldSpec, rows) -> list:
    work = [list(r) for r in rows]
    rk = _rref_generic(spec, work, len(rows[0]))[0] if rows else 0
    return [tuple(r) for r in work[:rk]]


def _tuple_combine(spec: FieldSpec, n: int, coeffs, rows) -> tuple:
    add, mul = spec.add, spec.mul
    acc = (0,) * n
    for c, row in zip(coeffs, rows):
        if c:
            acc = tuple(add(a, mul(c, x)) for a, x in zip(acc, row))
    return acc


def _tuple_rank_at_most_one(spec: FieldSpec, rows) -> bool:
    rows = iter(rows)  # read once: the zero rows, the first nonzero one, then the rest
    row = next(filter(any, rows), None)
    if row is None:
        return True
    mul = spec.mul
    c, x = _first_nonzero(row)
    unit = spec.inv(x)
    # each later row must be the multiple of row with its own entry in column c
    return all(y == tuple(mul(mul(y[c], unit), v) for v in row) for y in rows)


def _first_nonzero(row):
    """(column, entry) of a tuple row's first nonzero entry, or None."""
    for c, x in enumerate(row):
        if x:
            return c, x
    return None


def rref(m: MatGF) -> tuple[MatGF, int, tuple[int, ...]]:
    """Reduced echelon form, rank, and ascending pivot columns.

    Idempotent: rref of the returned matrix is itself.  The returned matrix
    keeps the input shape (zero rows stay at the bottom).
    """
    form = row_form(m.spec, m.cols)
    reduced = form.to_entries(form.rref(form.from_entries(m.entries)))
    pivots = tuple(row.index(1) for row in reduced)  # a reduced row's first nonzero entry is 1
    zeros = [(0,) * m.cols] * (m.rows - len(reduced))
    return MatGF(m.spec, [*reduced, *zeros], cols=m.cols), len(reduced), pivots


def rank(m: MatGF) -> int:
    form = row_form(m.spec, m.cols)
    return form.rank(form.from_entries(m.entries))


def vconcat(a: MatGF, b: MatGF) -> MatGF:
    """Stack a's rows above b's."""
    if a.spec != b.spec:
        raise ShapeMismatch("different fields")
    if a.cols != b.cols:
        raise ShapeMismatch(f"column mismatch: {a.cols} vs {b.cols}")
    if a.rows == 0:
        return b
    if b.rows == 0:
        return a
    return MatGF(a.spec, a.entries + b.entries)


def nonzero_rows(m: MatGF) -> tuple[tuple[int, ...], ...]:
    return tuple(row for row in m.entries if any(row))


def row_space_equal(a: MatGF, b: MatGF) -> bool:
    """True iff both matrices generate the same row space."""
    if a.spec != b.spec:
        raise ShapeMismatch("different fields")
    if a.cols != b.cols:
        raise ShapeMismatch(f"column mismatch: {a.cols} vs {b.cols}")
    return nonzero_rows(rref(a)[0]) == nonzero_rows(rref(b)[0])


def mat_mul(a: MatGF, b: MatGF) -> MatGF:
    if a.spec != b.spec:
        raise ShapeMismatch("different fields")
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    # each row of the product combines the rows of b by a row of a
    form = row_form(b.spec, b.cols)
    brows = form.from_entries(b.entries)
    out = form.to_entries([form.combine(arow, brows) for arow in a.entries])
    return MatGF(a.spec, out, cols=b.cols)


def null_space(m: MatGF) -> MatGF:
    """Basis of {x : m @ x^T = 0}, one vector per row (may have 0 rows)."""
    spec = m.spec
    r, rk, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * m.cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = spec.neg(r.entries[i][fc])
        basis.append(tuple(vec))
    return MatGF(spec, tuple(basis)) if basis else MatGF.zero(spec, 0, m.cols)
