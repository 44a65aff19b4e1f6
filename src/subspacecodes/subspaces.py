"""Points of the projective space P_q(n): canonical subspace representation.

A Subspace is stored by its unique reduced-echelon generator matrix.  Every
subspace has an identifying vector (the 0/1 indicator of its pivot columns)
and every identifying vector has an echelon form whose non-pivot entries to
the right of each pivot are free; those free positions form a Ferrers-shaped
region, and filling them with field elements enumerates exactly the
subspaces sharing that identifying vector.

Over GF(2) a Subspace also keeps its rows packed, one integer per row with
column 0 in the highest bit, and the GF(2) paths work on those integers:
``from_span`` eliminates by XOR and builds the Subspace from the result,
``contains`` reduces by XOR, and the index codec reads and writes the free
entries of packed rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Iterator

from .errors import BadParams, FieldTooLarge, LengthMismatch, ParseError, ShapeMismatch
from .errors import ShapeViolation, TooLarge
from .fields import MAX_ORDER, FieldSpec, make_field, smallest_prime_factor
from .matrices import _BITS, _FROM_DIGITS, MatGF, _rref_rows, gf2_rref, null_space, pack, unpack

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

    @property
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


_NOT_CANONICAL = "generator matrix is not a full-rank reduced echelon form"


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical form.

    The generator must be the subspace's full-rank reduced echelon form:
    each row's first nonzero entry is 1, these pivots move strictly right,
    and every pivot column is zero in the other rows.  The constructor
    checks this in one scan and keeps the pivots as ``id_vector``.

    Over GF(2) the constructor packs the rows into ``packed`` (a tuple of
    ints, column 0 in the highest bit) and checks them there: a row's pivot
    is its leading bit, the pivots strictly increase, and a row meets the
    union of the pivot bits only in its own pivot.  ``from_packed`` takes
    packed rows, checks them the same way and derives ``gen`` from them, so
    the two never disagree.  ``packed`` is None for q > 2.
    """

    __slots__ = ("spec", "n", "k", "gen", "packed", "id_vector")

    def __init__(self, spec: FieldSpec, n: int, gen: MatGF):
        if gen.cols != n:
            raise LengthMismatch(f"generator has {gen.cols} columns, ambient is {n}")
        self.gen = gen
        if spec.order == 2:
            self._set_packed(spec, n, tuple(map(pack, gen.entries)))
            return
        rows = gen.entries
        pivots = 0
        last = -1
        for i, row in enumerate(rows):
            p = next((j for j, x in enumerate(row) if x), -1)
            # rows below have zeros left of their pivots, so only the rows
            # above this one can be nonzero in its pivot column
            if p <= last or row[p] != 1 or any(rows[h][p] for h in range(i)):
                raise BadParams(_NOT_CANONICAL)
            pivots |= 1 << (n - 1 - p)
            last = p
        self.spec = spec
        self.n = n
        self.k = gen.rows
        self.packed = None
        self.id_vector = IdVector(unpack(pivots, n))

    @classmethod
    def from_packed(cls, spec: FieldSpec, n: int, rows) -> Subspace:
        """The GF(2) subspace whose reduced echelon form has the packed
        rows ``rows``; BadParams unless they are one."""
        if spec.order != 2:
            raise BadParams(f"packed rows are GF(2) rows, not GF({spec.order}) rows")
        u = cls.__new__(cls)
        u._set_packed(spec, n, tuple(rows))
        u.gen = MatGF(spec, [unpack(v, n) for v in u.packed], cols=n)
        return u

    def _set_packed(self, spec: FieldSpec, n: int, rows: tuple) -> None:
        pivots = seen = 0
        last = n + 1
        for v in rows:
            b = v.bit_length()
            # the bits above a row's pivot are zero, so only the rows above
            # it can meet its pivot bit
            if not 0 < b < last or v < 0 or seen >> (b - 1) & 1:
                raise BadParams(_NOT_CANONICAL)
            pivots |= 1 << (b - 1)
            seen |= v
            last = b
        self.spec = spec
        self.n = n
        self.k = len(rows)
        self.packed = rows
        self.id_vector = IdVector(unpack(pivots, n))

    def contains(self, vec) -> bool:
        v = _vector(vec, self.spec, self.n)
        if self.packed is not None:
            x = pack(v)
            for row in self.packed:
                if x >> (row.bit_length() - 1) & 1:
                    x ^= row
            return not x
        add, mul, neg = self.spec.add, self.spec.mul, self.spec.neg
        # each pivot row clears its pivot column and leaves the others alone
        for row, p in zip(self.gen.entries, self.id_vector.support):
            if v[p]:
                f = neg(v[p])
                v = [add(x, mul(f, y)) for x, y in zip(v, row)]
        return not any(v)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^k elements of the subspace (exponential; small k only)."""
        spec = self.spec
        coords = [0] * self.k
        total = spec.order**self.k
        for idx in range(total):
            t = idx
            for i in range(self.k):
                coords[i] = t % spec.order
                t //= spec.order
            acc = [0] * self.n
            for c, row in zip(coords, self.gen.entries):
                if c:
                    acc = [spec.add(a, spec.mul(c, x)) for a, x in zip(acc, row)]
            yield tuple(acc)

    def key(self) -> tuple:
        return (self.spec, self.n, self.gen.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Subspace({to_literal(self)!r}, n={self.n}, GF({self.spec.order}))"


def zero_subspace(spec: FieldSpec, n: int) -> Subspace:
    return Subspace(spec, n, MatGF.zero(spec, 0, n))


def full_space(spec: FieldSpec, n: int) -> Subspace:
    return Subspace(spec, n, MatGF.identity(spec, n))


def from_span(vectors, spec: FieldSpec, n: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly dependent)."""
    _check_ambient(n)
    rows = [_vector(v, spec, n) for v in vectors]
    if spec.order == 2:
        return Subspace.from_packed(spec, n, gf2_rref(map(pack, rows)))
    rank, _ = _rref_rows(spec, rows, n)
    return Subspace(spec, n, MatGF(spec, rows[:rank], cols=n))


def _check_ambient(n: int) -> None:
    if n < 0:
        raise BadParams(f"ambient dimension must be >= 0, got {n}")


def _vector(v, spec: FieldSpec, n: int) -> list[int]:
    """v as a list of integers, checked to be a vector of GF(q)^n."""
    out = list(map(int, v))
    if len(out) != n:
        raise LengthMismatch(f"vector of length {len(out)}, ambient is {n}")
    if not (spec.order == 2 and _BITS.issuperset(out)):
        bad = next((x for x in out if not 0 <= x < spec.order), None)
        if bad is not None:
            raise ShapeMismatch(f"entry {bad} outside GF({spec.order})")
    return out


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
        return Subspace.from_packed(spec, n, [flat >> (n * (k - 1 - r)) & mask for r in range(k)])
    it = iter(entries)
    gen = []
    for p, free in zip(v.support, shape.free_positions):
        row = [0] * v.n
        row[p] = 1
        for c, x in zip(free, it):  # zip takes from `it` only while `free` lasts
            row[c] = x
        gen.append(row)
    return Subspace(spec, v.n, MatGF(spec, gen, cols=v.n))


def read_point_part(u: Subspace) -> tuple[tuple[int, ...], ...]:
    """Inverse of fill_shape: the free entries of u's generator matrix."""
    shape = echelon_ferrers_shape(u.id_vector)
    cols = shape.box_columns
    return tuple(tuple(u.gen.entries[r][c] for c in cols) for r in range(u.k))


def free_entries_row_major(u: Subspace) -> tuple[int, ...]:
    """Free entries of the generator matrix in row-major dot order."""
    shape = echelon_ferrers_shape(u.id_vector)
    if u.packed is not None:
        digits = format(pack(u.packed, u.n), "b").zfill(u.k * u.n).encode()
        return shape.gf2_codec[1](digits.translate(_FROM_DIGITS))
    return tuple(row[c] for row, free in zip(u.gen.entries, shape.free_positions) for c in free)


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
    """All vectors orthogonal to u under the standard dot product."""
    if u.k == 0:
        return full_space(u.spec, u.n)
    ns = null_space(u.gen)
    return from_span(ns.entries, u.spec, u.n)


def to_literal(u: Subspace) -> str:
    """Rows as digit strings joined by ';'.  The zero subspace is ''."""
    return ";".join("".join(str(x) for x in row) for row in u.gen.entries)


def literal_rows(s: str, spec: FieldSpec, n: int, parsed: dict | None = None, packed: bool = False) -> tuple:
    """The rows of a ';'-joined row literal, as written; '' has none.

    With ``packed`` (GF(2) only) each row is its packed integer, column 0
    in the highest bit; otherwise a tuple.  ``parsed`` maps row literals to
    their rows and is read and filled, so that over many literals each
    distinct row is parsed once and is one shared object.
    """
    _check_ambient(n)
    s = s.strip()
    if not s:
        return ()
    if parsed is None:
        parsed = {}
    rows = []
    for i, part in enumerate(s.split(";")):
        row = parsed.get(part)
        if row is None:
            if packed and len(part) == n and not part.strip("01"):
                row = int(part or "0", 2)
            else:
                row = []
                for j, c in enumerate(part):
                    if c not in "0123456789" or int(c) >= spec.order:
                        raise ParseError(f"row {i}, column {j}: invalid digit {c!r} for GF({spec.order})")
                    row.append(int(c))
                if len(row) != n:
                    raise ParseError(f"row {i}: length {len(row)}, expected {n}")
                row = pack(row) if packed else tuple(row)
            parsed[part] = row
        rows.append(row)
    return tuple(rows)


def from_literal(s: str, spec: FieldSpec, n: int) -> Subspace:
    """Parse a ';'-joined row literal into a canonical subspace."""
    return from_span(literal_rows(s, spec, n), spec, n)
