"""Rank-metric codes over GF(q^m).

Contains the maximum-rank-distance (Gabidulin) construction, the size bound
for rank-metric codes whose codewords carry a prescribed staircase of leading
zeros, and an explicit construction of distance-2 codes meeting that bound
for any such zero pattern (built by solving a linear system over the base
field inside a distance-2 Gabidulin code).  The codes compute on the base
field's row form: a Ferrers-diagram code keeps each basis matrix as one
flattened row, and ``MatGF`` appears only where the API returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BadParams, ShapeMismatch, TooLarge
from .fields import ExtensionView, FieldSpec, extension_view
from .matrices import MatGF, null_space, row_form
from .subspaces import FerrersShape

ENUMERATION_CAP = 1 << 20


class RankCodeword:
    """Length-n vector over GF(q^m) with its base-field matrix expansion."""

    __slots__ = ("view", "coords", "_matrix")

    def __init__(self, view: ExtensionView, coords):
        self.view = view
        self.coords = tuple(int(c) for c in coords)
        self._matrix: MatGF | None = None

    @property
    def matrix_form(self) -> MatGF:
        """m x n matrix over the base field; column j expands coordinate j."""
        if self._matrix is None:
            cols = [self.view.expand(c) for c in self.coords]
            rows = tuple(zip(*cols)) if cols else ()
            self._matrix = MatGF(self.view.base, rows, cols=len(self.coords))
        return self._matrix

    @property
    def rank_norm(self) -> int:
        """Rank of ``matrix_form``, taken on its transpose: the coordinates'
        expansions as rows of GF(q)^m."""
        form = row_form(self.view.base, self.view.m)
        return form.rank([form.row_of(self.view.expand(c)) for c in self.coords])

    def __sub__(self, other: RankCodeword) -> RankCodeword:
        if other.view is not self.view or len(other.coords) != len(self.coords):
            raise ShapeMismatch("codewords from different spaces")
        ext = self.view.ext
        return RankCodeword(
            self.view, tuple(ext.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankCodeword)
            and self.view is other.view
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.view), self.coords))

    def __repr__(self) -> str:
        return f"RankCodeword({self.coords}, GF({self.view.ext.order}))"


def rank_distance(x: RankCodeword, y: RankCodeword) -> int:
    """rank(x - y) of the base-field expansion; a metric."""
    return (x - y).rank_norm


class GabidulinCode:
    """MRD code from Frobenius powers of independent elements.

    Generator rows are g_j^[i] for i = 0..k-1 with g_j = alpha^(j-1) and
    [i] = q^(i mod m); the code has q^(m*k) codewords and minimum rank
    distance d = n - k + 1.
    """

    def __init__(self, view: ExtensionView, n: int, d: int):
        if n > view.m:
            raise BadParams(f"length {n} exceeds extension degree {view.m}")
        if not 1 <= d <= n:
            raise BadParams(f"need 1 <= d <= n, got d={d}")
        self.view = view
        self.n = n
        self.d = d
        self.k = n - d + 1
        ext = view.ext
        alpha = view.alpha if view.m > 1 else 1
        self.g = tuple(ext.pow(alpha, j) for j in range(n))
        self.generator = tuple(
            tuple(view.frobenius(gj, i) for gj in self.g) for i in range(self.k)
        )

    @property
    def size(self) -> int:
        return self.view.base.order ** (self.view.m * self.k)

    def encode(self, message) -> RankCodeword:
        """Extension-field-linear combination of the generator rows."""
        msg = tuple(int(m) for m in message)
        if len(msg) != self.k:
            raise BadParams(f"message must have {self.k} symbols")
        ext = self.view.ext
        coords = [0] * self.n
        for mi, row in zip(msg, self.generator):
            if mi:
                for j in range(self.n):
                    coords[j] = ext.add(coords[j], ext.mul(mi, row[j]))
        return RankCodeword(self.view, coords)

    def enumerate(self, cap: int = ENUMERATION_CAP):
        """Yield every codeword (message symbols in integer order)."""
        if self.size > cap:
            raise TooLarge(f"code has {self.size} codewords, cap is {cap}")
        ext_order = self.view.ext.order
        for msg in product(range(ext_order), repeat=self.k):
            yield self.encode(msg)

    def min_rank_distance(self, cap: int = ENUMERATION_CAP) -> int:
        """Minimum rank over nonzero codewords (the code is linear)."""
        best = None
        for cw in self.enumerate(cap):
            if any(cw.coords):
                r = cw.rank_norm
                if best is None or r < best:
                    best = r
        return best


def gabidulin(view: ExtensionView, n: int, d: int) -> GabidulinCode:
    return GabidulinCode(view, n, d)


@dataclass(frozen=True)
class ZeroPattern:
    """Staircase support: row r of an nrows x ncols matrix is free from
    column zeros[r] onward; zeros must be non-decreasing top to bottom."""

    zeros: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        if any(z < 0 or z > self.ncols for z in self.zeros):
            raise BadParams("zero counts outside [0, ncols]")
        if any(a > b for a, b in zip(self.zeros, self.zeros[1:])):
            raise BadParams("zero counts must not decrease top to bottom")

    @property
    def nrows(self) -> int:
        return len(self.zeros)

    @property
    def row_dots(self) -> tuple[int, ...]:
        return tuple(self.ncols - z for z in self.zeros)

    @property
    def dot_count(self) -> int:
        return sum(self.row_dots)

    def col_dots(self) -> tuple[int, ...]:
        return tuple(
            sum(1 for z in self.zeros if z <= c) for c in range(self.ncols)
        )

    def admits(self, m) -> bool:
        """Whether m, a MatGF or its entry rows, fits the pattern."""
        if isinstance(m, MatGF):
            if m.cols != self.ncols:
                return False
            m = m.entries
        return len(m) == self.nrows and all(
            len(row) == self.ncols and not any(row[:z]) for row, z in zip(m, self.zeros)
        )

    @classmethod
    def from_shape(cls, shape: FerrersShape) -> ZeroPattern:
        return cls(shape.leading_zero_counts(), len(shape.box_columns))


def ferrers_bound(pattern: ZeroPattern | FerrersShape, d: int) -> int:
    """Largest possible exponent e with |C| <= q^e for a rank-distance-d code
    whose codewords all carry the pattern's zeros.

    e is the smaller of: dots outside the d-1 fullest rows, and dots outside
    the d-1 fullest columns (the top rows and the rightmost columns).
    """
    if isinstance(pattern, FerrersShape):
        pattern = ZeroPattern.from_shape(pattern)
    if d < 1:
        raise BadParams("distance must be >= 1")
    total = pattern.dot_count
    rows = sorted(pattern.row_dots, reverse=True)
    cols = sorted(pattern.col_dots(), reverse=True)
    drop_rows = sum(rows[: d - 1])
    drop_cols = sum(cols[: d - 1])
    return max(0, min(total - drop_rows, total - drop_cols))


class FerrersRankCode:
    """Linear rank-metric code whose codewords respect a zero pattern.

    Each basis matrix, a ``MatGF`` or its entry rows, is checked against
    the pattern once, here, and kept flattened to one row of nrows * ncols
    entries in the field's row form; those rows are also reduced once.
    ``basis`` builds the matrices from the kept rows on each read,
    ``flat_codewords`` is the span of the reduced rows, and
    ``min_rank_distance`` ranks each codeword on its rows, unflattened.
    """

    def __init__(self, spec: FieldSpec, pattern: ZeroPattern, d: int, basis):
        self.spec, self.pattern, self.d = spec, pattern, d
        nr, nc = pattern.nrows, pattern.ncols
        rows, flat = row_form(spec, nc), []
        for b in basis:
            if not pattern.admits(b):
                raise BadParams("basis matrix violates the zero pattern")
            flat.append(rows.flatten([rows.vector(row) for row in (b.entries if isinstance(b, MatGF) else b)]))
        self._basis = tuple(flat)
        self._reduced_basis = row_form(spec, nr * nc).rref(flat)
        self.dim = len(self._reduced_basis)

    @property
    def basis(self) -> tuple[MatGF, ...]:
        """The basis matrices, built from the kept rows on each read."""
        return tuple(map(self._matrix, self._basis))

    def _matrix(self, flat) -> MatGF:
        rows = row_form(self.spec, self.pattern.ncols)
        return MatGF(self.spec, rows.to_entries(rows.unflatten(flat, self.pattern.nrows)), cols=rows.n)

    @property
    def size(self) -> int:
        return self.spec.order**self.dim

    def flat_codewords(self, cap: int = ENUMERATION_CAP):
        """Every codeword in the span, each exactly once, flattened to one
        row of nrows * ncols entries (row-major) in the field's row form
        (``row_form(spec, nrows * ncols)``), in the order of
        product(GF(q), repeat=dim), the first reduced basis row most
        significant."""
        if self.size > cap:
            raise TooLarge(f"code has {self.size} codewords, cap is {cap}")
        flat = row_form(self.spec, self.pattern.nrows * self.pattern.ncols)
        yield from flat.span(self._reduced_basis, [flat.row_of((0,) * flat.n)])

    def codewords(self, cap: int = ENUMERATION_CAP):
        """Every matrix in the span, each exactly once, in the order of
        ``flat_codewords``."""
        yield from map(self._matrix, self.flat_codewords(cap))

    def min_rank_distance(self, cap: int = ENUMERATION_CAP) -> int | None:
        """Minimum rank over nonzero codewords; None for the zero code.
        Each flat codeword is ranked as its rows; only the zero one has
        rank 0."""
        nr, rows = self.pattern.nrows, row_form(self.spec, self.pattern.ncols)
        ranks = (rows.rank(rows.unflatten(f, nr)) for f in self.flat_codewords(cap))
        return min(filter(None, ranks), default=None)


def span_code(basis, spec: FieldSpec, d: int = 2) -> FerrersRankCode:
    """Wrap explicit basis matrices as a FerrersRankCode.

    The pattern is the loosest staircase admitting every basis matrix; the
    claimed distance d is a label to be verified by the caller
    (min_rank_distance does the exhaustive check).
    """
    mats = [b.entries if isinstance(b, MatGF) else b for b in basis]
    if not mats:
        return FerrersRankCode(spec, ZeroPattern((), 0), d, ())
    nr, nc = len(mats[0]), len(mats[0][0]) if mats[0] else 0
    if any(len(m) != nr or any(len(row) != nc for row in m) for m in mats):
        raise ShapeMismatch("basis matrices differ in shape")
    # per row, the leftmost nonzero column over every matrix
    zeros = [min(next((j for j, x in enumerate(m[r]) if x), nc) for m in mats) for r in range(nr)]
    pattern = ZeroPattern(_monotone_floor(zeros), nc)
    return FerrersRankCode(spec, pattern, d, mats)


def _monotone_floor(zeros) -> tuple[int, ...]:
    """Largest non-decreasing sequence bounded above by the input."""
    out = list(zeros)
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return tuple(out)


# -- distance-2 construction -------------------------------------------------


def _anti_transpose_pattern(pat: ZeroPattern) -> ZeroPattern:
    """Transpose + 180 degree rotation; keeps the staircase form."""
    m, w = pat.nrows, pat.ncols
    new_zeros = tuple(
        sum(1 for z in pat.zeros if z > w - 1 - t) for t in range(w)
    )
    return ZeroPattern(new_zeros, m)


def _anti_transpose_matrix(m: tuple) -> tuple:
    """The entry rows m transposed and turned 180 degrees."""
    return tuple(zip(*(row[::-1] for row in reversed(m))))


def _normalize_pattern(pat: ZeroPattern):
    """Reduce to the canonical form: no all-zero rows, a full top row, and
    at least as many columns as rows.  Returns the reduced pattern plus the
    operation log needed to map codewords back to the original shape."""
    ops: list[tuple] = []
    cur = pat
    while True:
        full = sum(1 for z in cur.zeros if z == cur.ncols)
        if full:
            cur = ZeroPattern(cur.zeros[: cur.nrows - full], cur.ncols)
            ops.append(("pad_rows", full))
            continue
        if cur.nrows and cur.zeros[0] > 0:
            shift = cur.zeros[0]
            cur = ZeroPattern(tuple(z - shift for z in cur.zeros), cur.ncols - shift)
            ops.append(("pad_cols", shift))
            continue
        if cur.nrows > cur.ncols:
            cur = _anti_transpose_pattern(cur)
            ops.append(("anti_transpose",))
            continue
        return cur, ops


def _denormalize_matrix(m: tuple, ops) -> tuple:
    """The entry rows m of the normalized pattern, mapped back by ``ops``."""
    for op in reversed(ops):
        if op[0] == "anti_transpose":
            m = _anti_transpose_matrix(m)
        elif op[0] == "pad_rows":
            m = m + ((0,) * len(m[0]),) * op[1]
        elif op[0] == "pad_cols":
            m = tuple((0,) * op[1] + row for row in m)
    return m


def ferrers_d2_code(
    shape: FerrersShape | ZeroPattern, spec: FieldSpec
) -> FerrersRankCode:
    """Largest rank-distance-2 code fitting the shape's free region.

    The codewords are located inside a distance-2 Gabidulin code over
    GF(q^ncols): after normalizing the pattern, coordinate j of the general
    codeword is a_{j-1} + a_j * alpha, and each prescribed leading zero is
    one base-field-linear constraint on the a_i coordinates, one null
    space over the base field for all of them.  Each solution's rows are
    combinations in the row form; the matrices map back to the original
    orientation.
    """
    pattern = ZeroPattern.from_shape(shape) if isinstance(shape, FerrersShape) else shape
    norm, ops = _normalize_pattern(pattern)
    mm, nn = norm.nrows, norm.ncols

    if mm <= 1 or norm.dot_count <= nn:
        return FerrersRankCode(spec, pattern, 2, ())

    view, form = extension_view(spec, nn), row_form(spec, nn)
    # column j of A, the matrix of multiplication by alpha over the base
    # field, expands alpha * basis_j
    acols = [view.expand(view.ext.mul(view.alpha, b)) for b in view.basis]
    columns, arows = form.from_entries(acols), form.from_entries(list(zip(*acols)))
    eye = form.from_entries([tuple(int(i == t) for i in range(nn)) for t in range(nn)])
    zero = form.row_of((0,) * nn)
    # row r of a codeword expands a_{r-1} + alpha * a_r, that is
    # a_{r-1} + A a_r, with a_{-1} = a_{mm-1} = 0.  Over blocks 0..mm for
    # a_{-1}..a_{mm-1}, the zero in column t of row r is e_t in block r
    # plus row t of A in block r + 1; the variables are blocks 1..mm-1.
    constraints = []
    for r, zr in enumerate(norm.zeros):
        for t in range(zr):
            blocks = [zero] * (mm + 1)
            blocks[r], blocks[r + 1] = eye[t], arows[t]
            constraints.append(form.flatten(blocks[1:mm]))

    basis = []
    for x in null_space(row_form(spec, (mm - 1) * nn), constraints):
        a = [zero, *form.unflatten(x, mm - 1), zero]
        coeffs = form.to_entries(a)
        rows = [form.combine((1, *coeffs[r + 1]), (a[r], *columns)) for r in range(mm)]
        basis.append(_denormalize_matrix(tuple(form.to_entries(rows)), ops))
    return FerrersRankCode(spec, pattern, 2, basis)
