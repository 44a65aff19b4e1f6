"""Points of the projective space P_q(n): canonical subspace representation.

A Subspace is stored by its unique reduced-echelon generator matrix.  Every
subspace has an identifying vector (the 0/1 indicator of its pivot columns)
and every identifying vector has an echelon form whose non-pivot entries to
the right of each pivot are free; those free positions form a Ferrers-shaped
region, and filling them with field elements enumerates exactly the
subspaces sharing that identifying vector.

A Subspace is its rows in its field's row form (``rows``; packed integers
over GF(2), tuples otherwise) and the identifying vector of their pivots.
The paths that work on rows go through that form: ``from_span`` eliminates
on it, ``contains`` reduces on it, ``orthogonal_complement`` takes the null
space of the rows on it, and the constructions, the channel, the code-file
loader, the pair scan and the decoder read nothing else.  The generator
matrix ``gen`` is built from the rows each time it is read; ``key()``, and
so equality and hashing, still read it (see ``key``).  Only the GF(2)
index codec reads and writes the free entries of packed rows itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Iterator

from .errors import BadParams, FieldTooLarge, LengthMismatch, ParseError
from .errors import ShapeMismatch, ShapeViolation, TooLarge
from .fields import MAX_ORDER, FieldSpec, make_field, smallest_prime_factor
from .matrices import _BITS, _FROM_DIGITS, MatGF, null_space, pack, row_form, unpack

ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class IdVector:
    """Binary indicator of pivot columns; weight equals the dimension.
    ``packed`` is the bits as one integer, column 0 in the highest bit."""

    bits: tuple[int, ...]
    packed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise BadParams("identifying vector must be binary")
        object.__setattr__(self, "packed", pack(self.bits))

    @classmethod
    def from_string(cls, s: str) -> IdVector:
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_support(cls, n: int, support) -> IdVector:
        sup = set(support)
        return cls(tuple(1 if j in sup else 0 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class FerrersShape:
    """Free-entry region of the echelon form of an identifying vector.

    free_positions[r] lists the ambient columns (ascending) where row r of
    the echelon form is arbitrary: everything right of row r's pivot that is
    not itself a pivot column.
    """

    id_vec: IdVector
    free_positions: tuple[tuple[int, ...], ...]

    @property
    def row_dots(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.free_positions)

    @cached_property
    def dot_count(self) -> int:
        return sum(self.row_dots)

    @property
    def box_columns(self) -> tuple[int, ...]:
        """Ambient columns of the point part: non-pivots >= the first pivot."""
        sup = self.id_vec.support
        if not sup:
            return ()
        pset = set(sup)
        return tuple(c for c in range(sup[0], self.id_vec.n) if c not in pset)

    def leading_zero_counts(self) -> tuple[int, ...]:
        """Per row, number of box columns left of the row's first dot."""
        cols = self.box_columns
        out = []
        for r, sup in enumerate(self.id_vec.support):
            out.append(sum(1 for c in cols if c < sup))
        return tuple(out)

    @cached_property
    def gf2_codec(self):
        """(fill, read) for GF(2) echelon forms of this shape, packed rows
        joined into one k*n-bit integer.  ``fill % entries`` is that
        integer's binary digits with the free entries in place (row-major
        dot order); ``read`` takes the integer's digits as 0/1 bytes and
        returns the free entries."""
        n = self.id_vec.n
        fill, flat = [], []
        for r, (p, free) in enumerate(zip(self.id_vec.support, self.free_positions)):
            dots = set(free)
            fill += ["1" if c == p else "%d" if c in dots else "0" for c in range(n)]
            flat += [r * n + c for c in free]
        if len(flat) > 1:
            read = itemgetter(*flat)
        else:
            read = lambda digits, at=tuple(flat): tuple(digits[i] for i in at)  # noqa: E731
        return "".join(fill), read


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical form.

    The generator must be the subspace's full-rank reduced echelon form:
    each row's first nonzero entry is 1, these pivots move strictly right,
    and every pivot column is zero in the other rows.  The constructor
    checks this in one scan (``RowForm.check``) and keeps the pivots as
    ``id_vector``, one shared object per pivot set and n.

    ``rows`` holds the generator's rows in the field's row form
    (``matrices.row_form``): packed integers over GF(2), tuples otherwise.
    They and ``id_vector`` are all a Subspace keeps; ``from_rows`` takes
    rows in that form and checks them the same way.  ``gen``, the generator
    as a ``MatGF``, is built from ``rows`` on each read (for q > 2 on the
    very tuple ``rows``).
    """

    __slots__ = ("spec", "n", "k", "rows", "id_vector")

    def __init__(self, spec: FieldSpec, n: int, gen: MatGF):
        if gen.cols != n:
            raise LengthMismatch(f"generator has {gen.cols} columns, ambient is {n}")
        form = row_form(spec, n)
        self._set_rows(form, form.from_entries(gen.entries))

    @classmethod
    def from_rows(cls, spec: FieldSpec, n: int, rows) -> Subspace:
        """The subspace whose reduced echelon form has the rows ``rows``, in
        the field's row form; BadParams unless they are one."""
        return cls._of_rows(row_form(spec, n), tuple(rows))

    @classmethod
    def _of_rows(cls, form, rows: tuple, pivots: int | None = None) -> Subspace:
        """The subspace of ``rows``, checked by ``form.check`` unless their
        packed pivots are given, as a code gives them for rows it checked."""
        u = cls.__new__(cls)
        u._set_rows(form, rows, pivots)
        return u

    def _set_rows(self, form, rows: tuple, pivots: int | None = None) -> None:
        if pivots is None:
            pivots = form.check(rows)
        self.spec, self.n, self.k, self.rows = form.spec, form.n, len(rows), rows
        self.id_vector = _id_vector(pivots, form.n)

    @property
    def gen(self) -> MatGF:
        """The reduced echelon generator matrix, built from ``rows`` on each
        read."""
        return MatGF(self.spec, row_form(self.spec, self.n).to_entries(self.rows), cols=self.n)

    def contains(self, vec) -> bool:
        form = row_form(self.spec, self.n)
        return form.lead(form.remainder(form.vector(vec), self.rows)) is None

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^k elements of the subspace, one at a time (exponential; small
        k only), the first row's coefficient the least significant."""
        form = row_form(self.spec, self.n)
        for coeffs in product(range(self.spec.order), repeat=self.k):
            yield form.to_entries([form.combine(coeffs[::-1], self.rows)])[0]

    def key(self) -> tuple:
        """The field, n and the generator's entries.  The rows, as
        canonical, would index faster, which raises perfbench's index-g2
        peak memory while it keeps one float per timed call."""
        return (self.spec, self.n, self.gen.entries)

    def __eq__(self, other) -> bool:
        return other is self or isinstance(other, Subspace) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        """The row literal of ``to_literal``; over GF(q), q > 10, where an
        entry may take two digits, the entries are comma-separated."""
        if self.spec.order <= 10:
            lit = to_literal(self)
        else:
            lit = ";".join(",".join(map(str, row)) for row in row_form(self.spec, self.n).to_entries(self.rows))
        return f"Subspace({lit!r}, n={self.n}, GF({self.spec.order}))"


@lru_cache(maxsize=4096)
def _id_vector(pivots: int, n: int) -> IdVector:
    """The identifying vector of the packed pivot set ``pivots``, one object
    per pivot set and n, shared by every word that has them."""
    return IdVector(unpack(pivots, n))


def zero_subspace(spec: FieldSpec, n: int) -> Subspace:
    return Subspace.from_rows(spec, n, ())


def full_space(spec: FieldSpec, n: int) -> Subspace:
    return from_span([[int(i == j) for j in range(n)] for i in range(n)], spec, n)


def from_span(vectors, spec: FieldSpec, n: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly dependent)."""
    _check_ambient(n)
    form = row_form(spec, n)
    return Subspace._of_rows(form, tuple(form.rref([form.vector(v) for v in vectors])))


def _check_ambient(n: int) -> None:
    if n < 0:
        raise BadParams(f"ambient dimension must be >= 0, got {n}")


def identifying_vector(u: Subspace) -> IdVector:
    return u.id_vector


@lru_cache(maxsize=4096)
def echelon_ferrers_shape(v: IdVector) -> FerrersShape:
    """Free positions of the echelon form whose pivots sit at v's ones."""
    sup = v.support
    pset = set(sup)
    free = tuple(
        tuple(c for c in range(p + 1, v.n) if c not in pset) for p in sup
    )
    return FerrersShape(v, free)


def count_with_id(v: IdVector, q: int) -> int:
    """Number of subspaces of GF(q)^n whose identifying vector is v.

    Equals q to the number of free entries, which in terms of 1-based pivot
    indices i_1..i_k is -k(k-1)/2 + kn - sum(i_j).
    """
    k = v.weight
    n = v.n
    pivots_1based = sum(p + 1 for p in v.support)
    exponent = -k * (k - 1) // 2 + k * n - pivots_1based
    shape = echelon_ferrers_shape(v)
    assert exponent == shape.dot_count
    return q**exponent


def fits_shape(shape: FerrersShape, point_part) -> bool:
    """Check a k x (#box columns) matrix has nonzeros only at free positions."""
    rows = [tuple(r) for r in point_part]
    cols = shape.box_columns
    if len(rows) != len(shape.free_positions) or any(len(r) != len(cols) for r in rows):
        return False
    for r, row in enumerate(rows):
        allowed = set(shape.free_positions[r])
        for j, x in enumerate(row):
            if x and cols[j] not in allowed:
                return False
    return True


def fill_shape(v: IdVector, point_part, spec: FieldSpec) -> Subspace:
    """Unique subspace with identifying vector v and the given free entries.

    point_part is a k x (n - k - i1 + 1) matrix over the field covering the
    box columns (non-pivot columns from the first pivot rightwards); nonzero
    entries outside the dotted region raise ShapeViolation.
    """
    shape = echelon_ferrers_shape(v)
    rows = [tuple(int(x) for x in r) for r in point_part]
    if not fits_shape(shape, rows):
        raise ShapeViolation(f"matrix does not fit the echelon form of {v}")
    col_of = {c: j for j, c in enumerate(shape.box_columns)}
    entries = [rows[r][col_of[c]] for r, free in enumerate(shape.free_positions) for c in free]
    return fill_free_entries(v, entries, spec)


def fill_free_entries(v: IdVector, entries, spec: FieldSpec) -> Subspace:
    """Inverse of free_entries_row_major: the subspace with identifying
    vector v whose free entries, in row-major dot order, are `entries`."""
    shape = echelon_ferrers_shape(v)
    entries = tuple(entries)
    if len(entries) != shape.dot_count:
        raise LengthMismatch(f"{len(entries)} free entries, the form of {v} has {shape.dot_count}")
    if spec.order == 2 and _BITS.issuperset(entries):
        n, k = v.n, v.weight
        flat = int(shape.gf2_codec[0] % entries or "0", 2)
        mask = (1 << n) - 1
        return Subspace.from_rows(spec, n, [flat >> (n * (k - 1 - r)) & mask for r in range(k)])
    entries = tuple(map(int, entries))
    bad = next((x for x in entries if not 0 <= x < spec.order), None)
    if bad is not None:
        raise ShapeMismatch(f"entry {bad} outside GF({spec.order})")
    it = iter(entries)
    rows = []
    for p, free in zip(v.support, shape.free_positions):
        row = [0] * v.n
        row[p] = 1
        for c, x in zip(free, it):  # zip takes from `it` only while `free` lasts
            row[c] = x
        rows.append(tuple(row))
    return Subspace.from_rows(spec, v.n, rows)


def read_point_part(u: Subspace) -> tuple[tuple[int, ...], ...]:
    """Inverse of fill_shape: the free entries of u's generator matrix."""
    cols = echelon_ferrers_shape(u.id_vector).box_columns
    entry = row_form(u.spec, u.n).entry
    return tuple(tuple(entry(row, c) for c in cols) for row in u.rows)


def free_entries_row_major(u: Subspace) -> tuple[int, ...]:
    """Free entries of the generator matrix in row-major dot order."""
    shape = echelon_ferrers_shape(u.id_vector)
    if u.spec.order == 2:
        digits = format(pack(u.rows, u.n), "b").zfill(u.k * u.n).encode()
        return shape.gf2_codec[1](digits.translate(_FROM_DIGITS))
    return tuple(row[c] for row, free in zip(u.rows, shape.free_positions) for c in free)


def gaussian(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of k-subspaces of GF(q)^n."""
    if k < 0 or n < 0 or k > n:
        raise BadParams(f"need 0 <= k <= n, got n={n} k={k}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def identifying_vectors(n: int, k: int) -> Iterator[IdVector]:
    """All weight-k identifying vectors in lexicographically descending order."""
    for sup in combinations(range(n), k):
        yield IdVector.from_support(n, sup)


def subspaces_with_id(v: IdVector, spec: FieldSpec) -> Iterator[Subspace]:
    """All subspaces with identifying vector v, free entries in integer order.

    Free entries are the base-q digits (most significant first) of an index
    running over row-major dot positions.
    """
    for entries in product(range(spec.order), repeat=echelon_ferrers_shape(v).dot_count):
        yield fill_free_entries(v, entries, spec)


def enumerate_grassmannian(
    n: int, k: int, q: int, cap: int = ENUMERATION_CAP
) -> Iterator[Subspace]:
    """Each k-subspace of GF(q)^n exactly once, in canonical order.

    Order: identifying vectors lexicographically descending, then free-entry
    assignments in integer order.  Refuses to start when the Grassmannian
    exceeds the cap.
    """
    total = gaussian(n, k, q)
    if total > cap:
        raise TooLarge(f"Grassmannian has {total} subspaces, cap is {cap}")
    spec = make_field(*_prime_power(q))
    for v in identifying_vectors(n, k):
        yield from subspaces_with_id(v, spec)


def _prime_power(q: int) -> tuple[int, int]:
    if q >= 2:
        p, m, t = smallest_prime_factor(q), 0, q
        while t % p == 0:
            t //= p
            m += 1
        if t == 1:
            return p, m
    raise BadParams(f"{q} is not a prime power")


def field_for_order(q: int) -> FieldSpec:
    if q > MAX_ORDER:  # before factoring, which takes up to sqrt(q) trial divisions
        raise FieldTooLarge(f"field order {q} exceeds {MAX_ORDER}")
    return make_field(*_prime_power(q))


def orthogonal_complement(u: Subspace) -> Subspace:
    """All vectors orthogonal to u under the standard dot product: the
    null space of u's rows, reduced."""
    form = row_form(u.spec, u.n)
    return Subspace._of_rows(form, tuple(form.rref(null_space(form, u.rows))))


def to_literal(u: Subspace, written: dict | None = None) -> str:
    """Rows as digit strings joined by ';'.  The zero subspace is ''."""
    return rows_literal(u.rows, u.spec, u.n, written)


def rows_literal(rows, spec: FieldSpec, n: int, written: dict | None = None) -> str:
    """The ';'-joined row literal of rows in the field's row form; the
    inverse of ``literal_rows``.

    ``written`` maps rows to their digit strings and is read and filled, so
    that over many subspaces of one field and n each distinct row is
    written once.
    """
    if written is None:
        written = {}
    form = row_form(spec, n)
    out = []
    for row in rows:
        lit = written.get(row)
        if lit is None:
            lit = written[row] = "".join(map(str, form.to_entries([row])[0]))
        out.append(lit)
    return ";".join(out)


def literal_rows(s: str, spec: FieldSpec, n: int, parsed: dict | None = None) -> tuple:
    """The rows of a ';'-joined row literal, as written, in the field's row
    form (``matrices.row_form``); '' has none.

    ``parsed`` maps row literals to their rows and is read and filled, so
    that over many literals each distinct row is parsed once and is one
    shared object.
    """
    _check_ambient(n)
    s = s.strip()
    if not s:
        return ()
    if parsed is None:
        parsed = {}
    digits, parse = _ROW_DIGITS[: spec.order], row_form(spec, n).parse
    rows = []
    for i, part in enumerate(s.split(";")):
        row = parsed.get(part)
        if row is None:
            if not _bare(part, n, digits):
                bad = next(((j, c) for j, c in enumerate(part) if c not in digits), None)
                if bad is not None:
                    raise ParseError(f"row {i}, column {bad[0]}: invalid digit {bad[1]!r} for GF({spec.order})")
                raise ParseError(f"row {i}: length {len(part)}, expected {n}")
            row = parsed[part] = parse(part)
        rows.append(row)
    return tuple(rows)


class RowTable(dict):
    """Bare row literals of GF(q)^n mapped to their rows, each parsed once,
    on its first lookup (``RowForm.parse``), and kept, so that equal rows
    of many literals are one shared object.  Looking up a literal that is
    not bare (n digits of GF(q) and nothing else, the only row literals
    ``literal_rows`` parses) raises KeyError and stores nothing."""

    __slots__ = ("_n", "_digits", "_parse")

    def __init__(self, spec: FieldSpec, n: int) -> None:
        super().__init__()
        self._n, self._digits, self._parse = n, _ROW_DIGITS[: spec.order], row_form(spec, n).parse

    def __missing__(self, part: str):
        if not _bare(part, self._n, self._digits):
            raise KeyError(part)
        row = self[part] = self._parse(part)
        return row


_ROW_DIGITS = "0123456789"


def _bare(part: str, n: int, digits: str) -> bool:
    return len(part) == n and not part.strip(digits)


def from_literal(s: str, spec: FieldSpec, n: int) -> Subspace:
    """Parse a ';'-joined row literal into a canonical subspace."""
    form = row_form(spec, n)
    return Subspace._of_rows(form, tuple(form.rref(literal_rows(s, spec, n))))
