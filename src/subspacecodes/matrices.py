"""Dense matrices over GF(q) with the reduced-echelon-form / rank kernel.

MatGF values are immutable: entries are a tuple of row tuples of canonical
integer representations interpreted through a FieldSpec.  The reduced
echelon form satisfies the usual four properties (zero rows last, pivots
strictly right-moving, pivots equal to 1, pivot columns otherwise zero) and
is the unique canonical form of a row space.

Over GF(2) a row is one integer, column 0 in the highest bit (``pack``,
``unpack``), and the elimination is XOR on those integers: ``gf2_rank``
and ``gf2_rref``.  ``rref``, ``rank``, ``mat_mul`` and ``null_space`` take
that path when q = 2; ``_rref_generic``, the field-arithmetic elimination
every other q uses, also runs on GF(2) rows as the oracle for it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, compress
from operator import xor

from .errors import ShapeMismatch
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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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


def _rref_rows(spec: FieldSpec, rows: list, cols: int):
    """In-place reduced echelon form; returns (rank, pivot columns).  Over
    GF(2) the rows are packed, reduced by XOR and unpacked again."""
    if spec.order != 2:
        return _rref_generic(spec, rows, cols)
    reduced = gf2_rref(map(pack, rows))
    rows[:] = [unpack(v, cols) for v in reduced] + [(0,) * cols] * (len(rows) - len(reduced))
    return len(reduced), tuple(cols - v.bit_length() for v in reduced)


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


def rref(m: MatGF) -> tuple[MatGF, int, tuple[int, ...]]:
    """Reduced echelon form, rank, and ascending pivot columns.

    Idempotent: rref of the returned matrix is itself.  The returned matrix
    keeps the input shape (zero rows stay at the bottom).
    """
    work = list(m.entries) if m.spec.order == 2 else [list(row) for row in m.entries]
    rank, pivots = _rref_rows(m.spec, work, m.cols)
    return MatGF(m.spec, work, cols=m.cols), rank, pivots


def rank(m: MatGF) -> int:
    if m.spec.order == 2:
        return gf2_rank(map(pack, m.entries))
    return rref(m)[1]


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
    spec = a.spec
    if spec.order == 2:
        # each row of the product XORs the rows of b that a's ones select
        brows = [pack(row) for row in b.entries]
        out = [unpack(reduce(xor, compress(brows, arow), 0), b.cols) for arow in a.entries]
        return MatGF(spec, out, cols=b.cols)
    bt = tuple(zip(*b.entries)) if b.rows else tuple()
    out = []
    for arow in a.entries:
        orow = []
        for bcol in bt:
            acc = 0
            for x, y in zip(arow, bcol):
                if x and y:
                    acc = spec.add(acc, spec.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return MatGF(spec, tuple(out))


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
