"""Constructions of subspace codes.

lift        prepend an identity block to rank-code matrices
multilevel  union of rank-metric codes planted into the echelon forms of a
            constant-weight code's words; distance doubles the design rank
            distance
spread_like multilevel over block-shifted weight-k words with full MRD
            codes; meets the closed-form size (q^n - q^(k+r) + q^k - 1)/(q^k - 1)
puncture    drop the last coordinate: words inside the hyperplane keep their
            dimension, words through a special outside vector contribute
            their intersection with the hyperplane
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

from .distances import hamming, min_distance
from .errors import (
    AmbientMismatch,
    BadParams,
    DeltaUnsupported,
    LengthMismatch,
    MissingTopWord,
    ShapeMismatch,
    ShapeViolation,
    SpecialVectorInQ,
    TooLarge,
)
from .fields import FieldSpec, extension_view
from .matrices import MatGF, row_form
from .packed import PackedCode
from .rankcodes import ENUMERATION_CAP, FerrersRankCode, ZeroPattern, ferrers_bound, ferrers_d2_code, gabidulin
from .subspaces import (
    FerrersShape,
    IdVector,
    Subspace,
    echelon_ferrers_shape,
    fill_free_entries,
    full_space,
    zero_subspace,
)


@dataclass(frozen=True)
class ConstantWeightCode:
    """Binary constant-weight code: the skeleton of a multilevel code."""

    n: int
    k: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for w in self.words:
            if len(w) != self.n:
                raise LengthMismatch(f"word of length {len(w)}, expected {self.n}")
            if sum(w) != self.k:
                raise BadParams(f"word of weight {sum(w)}, expected {self.k}")
        if len(set(self.words)) != len(self.words):
            raise BadParams("duplicate words")

    @classmethod
    def from_strings(cls, words) -> ConstantWeightCode:
        words = tuple(words)
        bad = next((w for w in words if not set(w) <= {"0", "1"}), None)
        if bad is not None:
            raise BadParams(f"not a 0/1 word: {bad!r}")
        tup = tuple(tuple(int(c) for c in w) for w in words)
        if not tup:
            raise BadParams("empty word list")
        return cls(len(tup[0]), sum(tup[0]), tup)

    @property
    def dmin(self) -> int | None:
        if len(self.words) < 2:
            return None
        return min(
            hamming(a, b)
            for i, a in enumerate(self.words)
            for b in self.words[i + 1 :]
        )

    @property
    def top_word(self) -> tuple[int, ...]:
        return (1,) * self.k + (0,) * (self.n - self.k)


class SubspaceCode:
    """Collection of distinct subspaces of one ambient space.

    A code is its words' rows: ``ids`` holds each word's packed identifying
    vector (column 0 in the highest bit) and ``rows`` its reduced echelon
    rows in the field's row form (``matrices.row_form``), in code order.
    ``words``, the words as ``Subspace``s, is built from them on first read;
    a code made from ``Subspace``s keeps the tuple it was given.
    """

    def __init__(self, spec: FieldSpec, n: int, words, kind: str | None = None):
        words = tuple(words)
        for w in words:
            if w.n != n or w.spec != spec:
                raise AmbientMismatch("codeword in a different ambient space")
        rows = [w.rows for w in words]
        # one field and one n, checked above: the rows alone tell words apart
        if len(set(rows)) != len(words):
            raise BadParams("duplicate codewords")
        self._set_rows(spec, n, [w.id_vector.packed for w in words], rows, kind)
        self.words = words

    @classmethod
    def _of_rows(cls, spec: FieldSpec, n: int, ids: list, rows: list, kind: str | None = None) -> SubspaceCode:
        """A code of words its caller has already checked: each of ``rows``
        a reduced echelon form in GF(q)^n with the pivots in ``ids``, and
        no two equal, as the code-file loader checks word by word."""
        code = cls.__new__(cls)
        code._set_rows(spec, n, ids, rows, kind)
        return code

    def _set_rows(self, spec: FieldSpec, n: int, ids: list, rows: list, kind: str | None) -> None:
        self.spec = spec
        self.n = n
        self.ids = ids
        self.rows = rows
        dims = {v.bit_count() for v in ids}
        if kind is None:
            kind = "constant-dimension" if len(dims) <= 1 else "projective"
        self.kind = kind
        self.dims = tuple(sorted(dims))

    @cached_property
    def words(self) -> tuple[Subspace, ...]:
        """The codewords, built from ``ids`` and ``rows`` on first read."""
        of_rows = partial(Subspace._of_rows, row_form(self.spec, self.n))
        return tuple(map(of_rows, self.rows, self.ids))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.words)

    @cached_property
    def packed(self) -> PackedCode:
        """Packed identifying vectors, rows and classes, built on first use."""
        return PackedCode(self.spec, self.n, self.ids, self.rows)

    @cached_property
    def dmin(self) -> int:
        return min_distance(self)

    @property
    def max_dim(self) -> int:
        return max(self.dims) if self.dims else 0

    def __repr__(self) -> str:
        return (
            f"SubspaceCode(n={self.n}, q={self.spec.order}, size={len(self)},"
            f" kind={self.kind})"
        )


def lift(mats, spec: FieldSpec) -> SubspaceCode:
    """Row spaces of [I | x] for each k x c matrix x, a MatGF or its rows;
    distance doubles.  Ragged rows, shapes that differ and entries outside
    the field raise ShapeMismatch."""
    shape, words = None, []
    for m in mats:
        rows, cols = (m.entries, m.cols) if isinstance(m, MatGF) else (m, len(m[0]) if m else 0)
        if shape is None:
            shape, form = (len(rows), cols), row_form(spec, len(rows) + cols)
            eye = [(0,) * r + (1,) + (0,) * (len(rows) - 1 - r) for r in range(len(rows))]
        if (len(rows), cols) != shape or any(len(row) != cols for row in rows):
            raise ShapeMismatch("lifted matrices must share dimensions")
        words.append(Subspace.from_rows(spec, form.n, [form.vector((*e, *row)) for e, row in zip(eye, rows)]))
    if shape is None:
        raise BadParams("nothing to lift")
    return SubspaceCode(spec, form.n, words)


def lift_gabidulin(view, n: int, d: int) -> SubspaceCode:
    """Lift every codeword of a Gabidulin code (rows are the coordinate
    expansions, so the lifted words have dimension n)."""
    code = gabidulin(view, n, d)
    return lift(([view.expand(c) for c in cw.coords] for cw in code.enumerate()), view.base)


def _rect_mrd_code(spec: FieldSpec, k: int, width: int) -> FerrersRankCode:
    """All-of-EF MRD code with rank distance k on a full k x width box."""
    pattern = ZeroPattern((0,) * k, width)
    if width < k:
        return FerrersRankCode(spec, pattern, k, ())
    view = extension_view(spec, width)
    code = gabidulin(view, k, k)
    # generator rows of the length-k Gabidulin code, expanded and transposed
    basis = []
    for i in range(code.k):
        for b in view.basis:
            cw = code.encode([0] * i + [b] + [0] * (code.k - i - 1))
            basis.append([view.expand(c) for c in cw.coords])
    return FerrersRankCode(spec, pattern, k, basis)


def _full_shape_code(spec: FieldSpec, shape: FerrersShape) -> FerrersRankCode:
    """Every matrix fitting the shape (rank distance 1)."""
    pattern = ZeroPattern.from_shape(shape)
    k, w = pattern.nrows, pattern.ncols
    # one matrix per dot, 1 there and 0 elsewhere
    basis = [[[int((i, j) == (r, c)) for j in range(w)] for i in range(k)]
             for r in range(k) for c in range(pattern.zeros[r], w)]
    return FerrersRankCode(spec, pattern, 1, basis)


def default_ferrers_code(
    spec: FieldSpec, shape: FerrersShape, delta: int, k: int
) -> FerrersRankCode:
    """Built-in rank-metric code choices for a level of the construction."""
    if delta == 1:
        return _full_shape_code(spec, shape)
    if delta == 2:
        return ferrers_d2_code(shape, spec)
    pattern = ZeroPattern.from_shape(shape)
    if ferrers_bound(pattern, delta) == 0:
        # no matrix of the shape has rank delta: the zero code, one word, is the largest
        return FerrersRankCode(spec, pattern, delta, ())
    if delta == k and all(z == 0 for z in pattern.zeros):
        return _rect_mrd_code(spec, k, pattern.ncols)
    raise DeltaUnsupported(
        f"no built-in rank code for distance {delta} on this shape; supply one"
    )


def multilevel(
    cw: ConstantWeightCode,
    delta: int,
    spec: FieldSpec,
    ferrers_codes: dict | None = None,
    verify_supplied: bool = True,
) -> SubspaceCode:
    """Union over words w of the rank-metric code planted into EF(w).

    The skeleton must contain the word 1..10..0 and have minimum Hamming
    distance >= 2*delta; the result is a constant-dimension code with
    minimum subspace distance exactly 2*delta (when at least one level code
    realises rank distance delta).
    """
    ids, rows, shared = [], [], {}
    for v, level in _levels(cw, delta, spec, ferrers_codes, verify_supplied):
        planted = _plant(v, level, spec, shared)
        ids += [v.packed] * len(planted)
        rows += planted
    # distinct: the levels' identifying vectors differ, and each level's
    # words are a span over an independent basis
    return SubspaceCode._of_rows(spec, cw.n, ids, rows)


def _levels(cw, delta, spec, ferrers_codes, verify_supplied):
    """Each skeleton word's identifying vector with its level's rank code,
    in skeleton order: the supplied code if there is one, else the built-in
    one."""
    if delta < 1:
        raise BadParams(f"need delta >= 1, got delta={delta}")
    if cw.top_word not in cw.words:
        raise MissingTopWord("constant-weight code must contain 1..10..0")
    dmin = cw.dmin
    if dmin is not None and dmin < 2 * delta:
        raise BadParams(f"skeleton distance {dmin} below 2*delta = {2 * delta}")
    for w in cw.words:
        v = IdVector(w)
        shape = echelon_ferrers_shape(v)
        if ferrers_codes is not None and w in ferrers_codes:
            level = ferrers_codes[w]
            if verify_supplied:
                if _dots(shape, level) is None:
                    raise BadParams("supplied code does not fit the shape")
                md = level.min_rank_distance()
                if md is not None and md < delta:
                    raise BadParams("supplied code has too small a rank distance")
        else:
            level = default_ferrers_code(spec, shape, delta, cw.k)
        yield v, level


def _dots(shape: FerrersShape, level: FerrersRankCode) -> list | None:
    """The positions of the shape's dots in the level's flattened
    codewords, in row-major dot order, or None unless every codeword fits
    the shape: the code's pattern has the shape's size and its reduced
    basis rows are zero off the dots.  Fitting the shape is a linear
    condition, so the basis fits exactly when those rows do."""
    nr, nc, cols = level.pattern.nrows, level.pattern.ncols, shape.box_columns
    if (nr, nc) != (len(shape.free_positions), len(cols)):
        return None
    col_of = {c: j for j, c in enumerate(cols)}
    dots = [r * nc + col_of[c] for r, free in enumerate(shape.free_positions) for c in free]
    off, entry = set(range(nr * nc)).difference(dots), row_form(level.spec, nr * nc).entry
    if any(entry(b, i) for b in level._reduced_basis for i in off):
        return None
    return dots


def _plant(v: IdVector, level: FerrersRankCode, spec: FieldSpec, shared: dict) -> list:
    """The rows of each codeword of the level planted into the echelon form
    of v, in ``flat_codewords`` order: the subspace with identifying vector
    v whose free entries are the codeword's entries at the shape's dots.

    A codeword's columns are the shape's box columns.  Every codeword must
    fit the shape (``_dots``), which is checked once, here, and
    ShapeViolation raised otherwise.  Planting is affine: the zero codeword
    plants to the echelon form G_0 of v with no free entry set, and a
    combination of codewords to G_0 plus that combination of what each adds
    to G_0.  So the level's words are G_0 plus the span of the planted
    reduced basis rows less G_0, each flattened to one row, and only those
    are planted one by one (``fill_free_entries``).  ``shared`` maps each
    row to one object that every word with that row keeps.
    """
    dots = _dots(echelon_ferrers_shape(v), level)
    if dots is None:
        raise ShapeViolation(f"matrix does not fit the echelon form of {v}")
    if level.size > ENUMERATION_CAP:
        raise TooLarge(f"code has {level.size} codewords, cap is {ENUMERATION_CAP}")
    entry, form = row_form(level.spec, level.pattern.nrows * level.pattern.ncols).entry, row_form(spec, v.n)

    def planted(entries):
        return form.flatten(fill_free_entries(v, entries, spec).rows)

    base = planted([0] * len(dots))
    basis = [form.sub_row(planted([entry(b, i) for i in dots]), base) for b in level._reduced_basis]
    return [tuple(shared.setdefault(r, r) for r in form.unflatten(f, v.weight)) for f in form.span(basis, [base])]


def _fixture_levels(name: str, spec: FieldSpec, puncture_aligned: bool):
    """The skeleton of a bundled word list and its supplied level codes
    (None for the built-in ones)."""
    from .fixtures import CONSTANT_WEIGHT_WORDS, PUNCTURE_ALIGNED_BASES

    if name not in CONSTANT_WEIGHT_WORDS:
        raise BadParams(f"unknown fixture {name!r}; have {sorted(CONSTANT_WEIGHT_WORDS)}")
    cw = ConstantWeightCode.from_strings(CONSTANT_WEIGHT_WORDS[name])
    codes = None
    if puncture_aligned:
        codes = {}
        for word_str, basis in PUNCTURE_ALIGNED_BASES.items():
            word = tuple(int(c) for c in word_str)
            if word not in cw.words:
                continue
            shape = echelon_ferrers_shape(IdVector(word))
            pattern = ZeroPattern.from_shape(shape)
            codes[word] = FerrersRankCode(spec, pattern, 2, basis)
    return cw, codes


def multilevel_fixture(
    name: str, spec: FieldSpec, puncture_aligned: bool = False
) -> SubspaceCode:
    """Multilevel code over a bundled word list.

    puncture_aligned swaps in the variant level codes (same sizes and
    distances) whose last-coordinate shortening keeps the best known
    projective-code sizes.
    """
    cw, codes = _fixture_levels(name, spec, puncture_aligned)
    return multilevel(cw, 2, spec, ferrers_codes=codes)


def spread_like(n: int, k: int, spec: FieldSpec) -> SubspaceCode:
    """Partial-spread construction: block-shifted weight-k words, each
    carrying a full MRD code of rank distance k; distance 2k and size
    (q^n - q^(k+r) + q^k - 1)/(q^k - 1) with r = n mod k."""
    if not 1 <= k <= n:
        raise BadParams(f"need 1 <= k <= n, got n={n} k={k}")
    s, r = divmod(n, k)
    words = []
    for i in range(1, s + 1):
        words.append((0,) * ((i - 1) * k) + (1,) * k + (0,) * (n - i * k))
    cw = ConstantWeightCode(n, k, tuple(words))
    codes = {}
    for i, w in enumerate(cw.words, start=1):
        width = n - i * k
        codes[w] = _rect_mrd_code(spec, k, width)
    return multilevel(cw, k, spec, ferrers_codes=codes, verify_supplied=False)


def spread_like_size(n: int, k: int, q: int) -> int:
    r = n % k
    num = q**n - q ** (k + r) + q**k - 1
    assert num % (q**k - 1) == 0
    return num // (q**k - 1)


def puncture(
    code: SubspaceCode, v, add_trivial: bool = False
) -> SubspaceCode:
    """Shorten by one coordinate through the hyperplane Q = span(e1..e_{n-1}).

    Keeps words inside Q at full dimension and replaces words through v
    (any fixed vector outside Q) by their intersection with Q.  The minimum
    distance drops by at most one: 2*delta becomes >= 2*delta - 1.
    """
    spec = code.spec
    n = code.n
    v = tuple(int(x) for x in v)
    if len(v) != n:
        raise LengthMismatch(f"special vector length {len(v)}, ambient {n}")
    if v[-1] == 0:
        raise SpecialVectorInQ("special vector must have a nonzero last coordinate")

    form, short = row_form(spec, n), row_form(spec, n - 1)
    special = form.vector(v)  # checked and in row form once, for every word
    ids, words, seen = [], [], set()  # the kept words' pivots and rows: one field and n, so one row form

    def keep(rows: tuple) -> None:
        """Keep a word of GF(q)^(n-1) by its rows, checked, unless kept already."""
        if rows not in seen:
            seen.add(rows)
            ids.append(short.check(rows))
            words.append(rows)

    def shortened(rows) -> tuple:
        """Rows that are zero in the last column, without it, in GF(q)^(n-1)."""
        return short.from_entries(tuple(row[:-1] for row in form.to_entries(rows)))

    lasts = [[form.entry(row, n - 1) for row in c] for c in code.rows]
    for c, last in zip(code.rows, lasts):
        if not any(last):  # c inside Q: its reduced rows stay reduced without the zero column
            keep(shortened(c))
    for c, last in zip(code.rows, lasts):
        if any(last) and form.lead(form.remainder(special, c)) is None:  # v in c
            # c ∩ Q is spanned by the other rows, each less the multiple of
            # one row with a nonzero last entry that clears its own
            at = next(i for i, x in enumerate(last) if x)
            scale = spec.inv(last[at])
            meet = [
                form.sub_row(row, form.combine([spec.mul(x, scale)], c[at : at + 1]))
                for i, (row, x) in enumerate(zip(c, last))
                if i != at
            ]
            keep(tuple(short.rref(shortened(meet))))
    if add_trivial:
        keep(zero_subspace(spec, n - 1).rows)
        keep(full_space(spec, n - 1).rows)
    return SubspaceCode._of_rows(spec, n - 1, ids, words, kind="projective")


def greedy_constant_weight(n: int, k: int, d: int) -> ConstantWeightCode:
    """Greedy lexicode skeleton: scan weight-k words from 1..10..0 downward,
    keeping words at Hamming distance >= d from everything kept so far."""
    from itertools import combinations

    if not 0 <= k <= n:
        raise BadParams(f"need 0 <= k <= n, got n={n} k={k}")
    kept: list[tuple[int, ...]] = []
    for sup in combinations(range(n), k):
        w = tuple(1 if j in set(sup) else 0 for j in range(n))
        if all(hamming(w, u) >= d for u in kept):
            kept.append(w)
    return ConstantWeightCode(n, k, tuple(kept))
