"""The packed codebook, the one nearest-codeword scan and the containment
decoder.

A code's identifying vectors are packed into integers (column 0 in the
highest bit).  Over GF(2) the view's rows are the packed rows each
``Subspace`` already keeps, shared and never packed again; over GF(q),
q > 2, rows are the generator's tuples.  Only how rows are stored,
subtracted and ranked depends on q: XOR elimination on packed rows for
q = 2 (``matrices.gf2_rank``), the generic row reduction otherwise.

The subspace distance dominates the Hamming distance of identifying
vectors, d(U, W) >= d_H(v(U), v(W)), so a word whose identifying vector is
already that far from a query cannot beat the best distance so far.  Words
sharing an identifying vector differ only in their free entries, and then
d(U, W) = 2 rank(G_U - G_W); otherwise d = 2 rank([G_U; G_W]) - k_U - k_W.

A class whose words form a coset G_0 + span(D_1..D_r) is linear in r
unknowns, so whether one of its words contains a query, or lies inside it,
is one elimination (``PackedCode.contained``).
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, combinations, product
from operator import getitem
from typing import NamedTuple

from .matrices import _rref_generic, gf2_rank, pack


def meet_exponent(shared: int, exclusive: int) -> int:
    """Number of pairs (p, i), p a column of ``shared`` and i one of
    ``exclusive`` (both packed column sets), with i right of p."""
    e = 0
    while shared:
        low = shared & -shared  # the rightmost column left in shared
        e += (exclusive & (low - 1)).bit_count()
        shared ^= low
    return e


def _first_nonzero(row):
    """(column, entry) of a tuple row's first nonzero entry, or None."""
    for c, x in enumerate(row):
        if x:
            return c, x
    return None


class CosetClass(NamedTuple):
    """A class G_0 + span(D_1..D_r) as the containment decoder reads it."""

    cid: int
    k: int
    base: list | tuple  # the rows of G_0
    base_pivots: list  # (pivot, multiples of G_0's row there)
    basis: list  # per D_j: its rows, its (pivot, multiples) pairs, unit row e_j
    index: list  # word index by the code of its coordinates x
    zero: object  # the zero row of length r


class PackedCode:
    """The words of a code with packed identifying vectors and rows, grouped
    into classes by identifying vector (each class in code order).

    ``rank(rows)``, ``sub_row(x, y)`` (x - y), ``difference(a, b)`` (row-wise
    a - b), ``multiples(row)`` (every c * row, c in GF(q)), ``entry(row, p)``
    (the entry in column p), ``lead(row)`` (a key for the first nonzero
    column and that entry, or None for zero), ``flatten(rows)`` (the rows
    joined into one vector), ``row_of(entries)`` (a tuple of entries as a
    row) and ``code(row)`` (the integer whose base-q digits are the row's
    entries) act on rows as this view stores them.
    """

    def __init__(self, spec, n: int, words):
        self.spec = spec
        self.n = n
        self.words = tuple(words)
        if spec.order == 2:
            self.rank = gf2_rank
            self.sub_row = int.__xor__
            self.multiples = lambda row: (0, row)
            self.entry = lambda row, p: row >> (n - 1 - p) & 1
            self.lead = lambda row: (row.bit_length(), 1) if row else None
            self.flatten = lambda rows: pack(rows, n)
            self.row_of = pack
            self.code = int
        else:
            self.rank = self._gfq_rank
            sub, mul = spec.sub, spec.mul
            self.sub_row = lambda x, y: tuple(map(sub, x, y))
            self.multiples = lambda row: [tuple(mul(c, x) for x in row) for c in range(spec.order)]
            self.entry = getitem
            self.lead = _first_nonzero
            self.flatten = lambda rows: tuple(chain.from_iterable(rows))
            self.row_of = tuple
            self.code = lambda row: reduce(lambda a, x: a * spec.order + x, row, 0)
        packed = [self.pack_word(w) for w in self.words]
        self.ids = [v for v, _ in packed]
        self.rows = [r for _, r in packed]
        self.classes: dict[int, list[int]] = {}
        self._meet_plans: dict[tuple[int, int], list] = {}
        for i, v in enumerate(self.ids):
            self.classes.setdefault(v, []).append(i)

    def pack_word(self, u) -> tuple[int, tuple]:
        """Packed identifying vector and generator rows of a subspace: over
        GF(2) the packed rows it keeps, otherwise its row tuples."""
        return u.id_vector.packed, u.gen.entries if u.packed is None else u.packed

    def _gfq_rank(self, rows) -> int:
        if not rows:
            return 0
        return _rref_generic(self.spec, [list(r) for r in rows], len(rows[0]))[0]

    def difference(self, a, b) -> list:
        return list(map(self.sub_row, a, b))

    def nearest(self, qid: int, qrows, candidates, best: int | None = None):
        """First candidate strictly closer to the query than ``best``.

        Candidates are word indices, scanned in the given order; a later
        word at the same distance never replaces an earlier one.  Returns
        (index, distance), or (None, best) when no candidate beats ``best``
        (None means no bound).
        """
        ids, rows, rank, difference = self.ids, self.rows, self.rank, self.difference
        kq = len(qrows)
        found = None
        for i in candidates:
            s = (qid ^ ids[i]).bit_count()
            if best is not None and s >= best:
                continue
            r = rows[i]
            if s:
                d = 2 * rank([*qrows, *r]) - kq - len(r)
            else:
                d = 2 * rank(difference(qrows, r))
            if best is None or d < best:
                best, found = d, i
        return found, best

    def scan_pairs(self, members, best: int | None = None) -> int | None:
        """Minimum distance over unordered pairs of the given words (a list
        or range of indices), by the nearest scan alone; ``best`` if no pair
        is closer."""
        ids, rows = self.ids, self.rows
        for pos, i in enumerate(members):
            _, best = self.nearest(ids[i], rows[i], members[pos + 1 :], best)
        return best

    @cached_property
    def coset_minima(self) -> dict:
        """The classes that are cosets of a linear space of matrices, by
        identifying vector, each with its minimum (None for one word).

        The differences G_i - G_0, each flattened to one vector, include
        the zero one; they form a linear space exactly when they are
        distinct and number q^r, r the rank of their span.  Then every
        pairwise difference is one of them, and the class minimum is
        2 min rank(G_i - G_0) over i > 0.  A one-word class is a coset
        with no minimum, and costs no rank call.  Computed once, for both
        ``min_distance`` and the decoder table.
        """
        minima, q = {}, self.spec.order
        for cid, members in self.classes.items():
            if len(members) == 1:
                minima[cid] = None
                continue
            diffs, index = self._differences(members)
            if len(index) == len(members) == q ** self.rank(list(index)):
                minima[cid] = 2 * min(map(self.rank, diffs[1:]))
        return minima

    def _differences(self, members) -> tuple[list, dict]:
        """The differences G_i - G_0 over a class's words i, and a dict from
        each, flattened, to its word, in class order."""
        rows = self.rows
        base = rows[members[0]]
        diffs = [self.difference(rows[i], base) for i in members]
        return diffs, dict(zip(map(self.flatten, diffs), members))

    @cached_property
    def decoder(self):
        """The containment decoder's table, built on first use.

        Returns (bound, cosets).  ``bound`` is a lower bound L on the
        minimum distance (None for at most one word): the least of each
        coset class's minimum, 2 for each other class of two or more words,
        and the least Hamming distance between two classes' identifying
        vectors.  ``cosets`` holds a ``CosetClass`` per coset class.
        """
        lows, cosets = [], []
        for cid, members in self.classes.items():
            if cid not in self.coset_minima:
                lows.append(2)
                continue
            low = self.coset_minima[cid]
            if low is not None:
                lows.append(low)
            _, index = self._differences(members)
            q, r = self.spec.order, 0
            while q**r < len(members):
                r += 1
            eye = [self.row_of(tuple(int(i == j) for i in range(r))) for j in range(r)]
            zero = self.row_of((0,) * r)
            pivots = self.pivots(cid)
            base = self.rows[members[0]]
            # a basis D_1..D_r of the differences; at decode time each D_j
            # tracks its unit row e_j, so a solution tracks its coordinates
            basis, flats, spanned = [], [next(iter(index))], {}
            for f, i in index.items():
                if len(basis) == r:
                    break
                unit = eye[len(basis)]
                if self._insert(spanned, f, unit):
                    d = self.difference(self.rows[i], base)
                    basis.append((d, self._by_pivot(pivots, d), unit))
                    # every c * D_j added to every difference so far, c in
                    # GF(q) order: the coordinates' codes count up
                    plus = self.multiples(self.multiples(f)[self.spec.neg(1)])
                    flats = [self.sub_row(g, m) for g in flats for m in plus]
            by_coords = [index[f] for f in flats]
            cosets.append(CosetClass(cid, len(base), base, self._by_pivot(pivots, base), basis, by_coords, zero))
        hamming = ((a ^ b).bit_count() for a, b in combinations(self.classes, 2))
        return min(chain(lows, hamming), default=None), cosets

    def pivots(self, vid: int) -> list[int]:
        """The columns of a packed identifying vector, ascending."""
        return [p for p in range(self.n) if vid >> (self.n - 1 - p) & 1]

    def _by_pivot(self, pivots, rows) -> list:
        return [(p, self.multiples(row)) for p, row in zip(pivots, rows)]

    def _reduce_rows(self, v, by_pivot):
        """v less v[p] times row p over the (p, multiples of row p) pairs;
        each row is zero at the other rows' p."""
        entry, sub = self.entry, self.sub_row
        for p, multiples in by_pivot:
            c = entry(v, p)
            if c:
                v = sub(v, multiples[c])
        return v

    def _reduce(self, spanned, v, w):
        """Subtract from v multiples of the stored rows until v's lead is no
        stored row's, and from w the same multiples of their tracked rows.
        ``spanned`` maps a lead column to (multiples of a row with lead
        entry 1, multiples of its tracked row).  Returns (v, w, v's lead)."""
        lead, sub = self.lead, self.sub_row
        while True:
            at = lead(v)
            if at is None or at[0] not in spanned:
                return v, w, at
            vs, ws = spanned[at[0]]
            v, w = sub(v, vs[at[1]]), sub(w, ws[at[1]])

    def _insert(self, spanned, v, w) -> bool:
        """Add v, tracking w, to ``spanned`` unless v is in its span."""
        v, w, at = self._reduce(spanned, v, w)
        if at is None:
            return False
        if at[1] != 1:
            s = self.spec.inv(at[1])
            v, w = self.multiples(v)[s], self.multiples(w)[s]
        spanned[at[0]] = (self.multiples(v), self.multiples(w))
        return True

    def contained(self, qid: int, qrows):
        """(index, distance) of the nearest word to the query Y, when a
        containment proves it; None otherwise.

        For each coset class G_0 + span(D_1..D_r) whose identifying vector
        holds the query's or lies inside it, one elimination in r unknowns
        decides whether a word U of the class has U ⊆ Y, or Y ⊆ U:
        R(G_0) + sum x_j R(D_j) = 0 with R the reduction modulo Y's rows,
        or y = sum of y[p] u_p over U's pivots p for every row y of Y.  A
        solution gives the word at distance d = |dim Y - dim U|; when
        2d < L (``decoder``) every other word is farther than d from Y.
        """
        bound, cosets = self.decoder
        kq = len(qrows)
        y_by_pivot = self._by_pivot(self.pivots(qid), qrows)
        reduce_rows, flatten, sub, n = self._reduce_rows, self.flatten, self.sub_row, self.n
        for cid, k, base, base_pivots, basis, index, zero in cosets:
            d = abs(kq - k)
            if bound is not None and 2 * d >= bound:
                continue
            if not cid & ~qid:  # U ⊆ Y
                v = flatten([reduce_rows(r, y_by_pivot) for r in base])
                # the D_j are zero in U's pivot columns, so only Y's rows
                # at the other pivots can reduce them
                outside = [(p, m) for p, m in y_by_pivot if not cid >> (n - 1 - p) & 1]
                system = [(flatten([reduce_rows(r, outside) for r in rows]), e) for rows, _, e in basis]
            elif not qid & ~cid:  # Y ⊆ U
                v = flatten([reduce_rows(y, base_pivots) for y in qrows])
                system = [
                    (flatten([sub(reduce_rows(y, pivots), y) for y in qrows]), e)
                    for _, pivots, e in basis
                ]
            else:
                continue
            spanned = {}
            for a, e in system:
                self._insert(spanned, a, e)
            # reducing v to zero tracks the x with v + sum x_j a_j = 0
            v, x, at = self._reduce(spanned, v, zero)
            if at is None:
                return index[self.code(x)], d
        return None

    def meet_keys(self, i: int, exclusive: int) -> set:
        """One key per subspace X of word i whose pivots are the word's
        pivots outside ``exclusive`` (a packed set of its pivot columns).

        With S the other pivots and I = ``exclusive``, such an X has the
        reduced rows x_p = u_p + sum of c_(p,j) u_j over j in I right of p,
        for p in S and any c in GF(q); so there are q^e of them, e =
        ``meet_exponent(S, I)``.  The key is the tuple of X's rows, so two
        words share such a subspace exactly when they share a key.
        """
        wid = self.ids[i]
        plan = self._meet_plans.get((wid, exclusive))
        if plan is None:
            plan = self._meet_plans[wid, exclusive] = self._meet_plan(wid, exclusive)
        rows, sub, multiples = self.rows[i], self.sub_row, self.multiples
        choices = []
        for p, later in plan:
            xs = [rows[p]]
            for j in later:
                xs += [sub(x, m) for x in xs for m in multiples(rows[j])[1:]]
            choices.append(xs)
        return set(product(*choices))

    def _meet_plan(self, wid: int, exclusive: int) -> list:
        """For ``meet_keys`` on words with identifying vector ``wid``: per
        row whose pivot is shared, its position and the positions of the
        later rows whose pivots are exclusive."""
        bits = [b for b in range(self.n - 1, -1, -1) if wid >> b & 1]  # rows' pivots, in row order
        later = [r for r, b in enumerate(bits) if exclusive >> b & 1]
        return [(r, [j for j in later if j > r]) for r, b in enumerate(bits) if not exclusive >> b & 1]
