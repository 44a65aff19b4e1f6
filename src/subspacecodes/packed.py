"""The packed codebook, the one nearest-codeword scan and the containment
decoder.

A code's identifying vectors are packed into integers (column 0 in the
highest bit).  The view's identifying vectors and rows are the lists the
code keeps (``SubspaceCode.ids`` and ``rows``), shared and never converted,
and every row operation goes through the field's row form
(``matrices.row_form``): XOR on packed integers over GF(2), field arithmetic
on tuples otherwise.

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

from functools import cached_property
from itertools import chain, combinations, product, repeat, starmap
from typing import NamedTuple

from .matrices import row_form


def meet_exponent(shared: int, exclusive: int) -> int:
    """Number of pairs (p, i), p a column of ``shared`` and i one of
    ``exclusive`` (both packed column sets), with i right of p."""
    e = 0
    while shared:
        low = shared & -shared  # the rightmost column left in shared
        e += (exclusive & (low - 1)).bit_count()
        shared ^= low
    return e


def hyperplane_keys(form, words):
    """Every hyperplane, a (k-1)-subspace, of every word in ``words``, row
    tuples of one length k in the row form ``form``, as the tuple of its
    reduced rows, as an iterator: (q^k - 1)/(q - 1) keys per word, all
    distinct.

    A hyperplane X of U has all of U's pivots but one, the pivot of row j,
    and its reduced rows are x_i = u_i + c_i u_j for i < j, any c_i in
    GF(q), and x_i = u_i for i > j.  That depends on the positions of the
    rows alone, never on their pivot columns, so words of one dimension are
    listed together whatever their identifying vectors, as ``class_keys``
    lists a class: one row slot at a time, a slot's column holding that row
    of every word, each column u_i - c u_j built once per call; a key is a
    choice of variant per slot, read off word by word."""
    k = len(words[0])
    if k < 2:  # none in dimension 0; in dimension 1 the zero space alone
        return repeat((), len(words) * k)
    columns = list(zip(*words))
    sub, scaled = form.sub_row, form.scaled
    keys = []
    for j, column in enumerate(columns):
        nonzero = scaled(column)  # c * row j of every word, per c != 0
        slots = [[x, *(tuple(map(sub, x, m)) for m in nonzero)] for x in columns[:j]]
        slots += ([x] for x in columns[j + 1 :])
        keys.append(starmap(zip, product(*slots)))
    return chain.from_iterable(chain.from_iterable(keys))


def _least(values, floor: int) -> int:
    """The least of ``values``, read only up to the first that equals
    ``floor``, a lower bound on them all."""
    low = None
    for v in values:
        if v == floor:
            return v
        if low is None or v < low:
            low = v
    return low


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
    """The words of a code as their packed identifying vectors ``ids`` and
    rows ``rows``, grouped into classes by identifying vector (each class in
    code order).  Rows are in the field's row form ``form``, and only its
    primitives touch them.

    What the view learns about one class it keeps, each on first use: the
    class's coset analysis (``coset``) and, for a coset, its minimum
    (``coset_minimum``), so that a verify and the decoder table share them
    and a verify takes only the classes it needs; the class's row columns;
    and the join slots of each (class, exclusive set) (``class_keys``)."""

    def __init__(self, spec, n: int, ids, rows):
        self.spec = spec
        self.n = n
        self.form = row_form(spec, n)
        self.ids = ids
        self.rows = rows
        self.classes: dict[int, list[int]] = {}
        self._cosets: dict[int, tuple | None | bool] = {}  # per class, for coset
        self._minima: dict[int, int | None] = {}  # per coset class, for coset_minimum
        self._slots: dict[tuple[int, int], list] = {}  # per (class, exclusive set), for class_keys
        self._columns: dict[int, list] = {}  # per class, row slot by row slot, for class_keys
        for i, v in enumerate(self.ids):
            self.classes.setdefault(v, []).append(i)

    @classmethod
    def of_words(cls, spec, n: int, words) -> PackedCode:
        """The view of ``Subspace``s, which need not be distinct."""
        return cls(spec, n, [w.id_vector.packed for w in words], [w.rows for w in words])

    def pack_word(self, u) -> tuple[int, tuple]:
        """Packed identifying vector and the rows a subspace keeps."""
        return u.id_vector.packed, u.rows

    def nearest(self, qid: int, qrows, candidates, best: int | None = None, floor: int = 0):
        """First candidate strictly closer to the query than ``best``.

        Candidates are word indices, scanned in the given order; a later
        word at the same distance never replaces an earlier one.  ``floor``
        is a lower bound on every candidate's distance, so the scan stops
        at the first candidate that meets it; at 0, the default, that is a
        word equal to the query.  Returns (index, distance), or (None,
        best) when no candidate beats ``best`` (None means no bound).
        """
        ids, rows, rank, sub = self.ids, self.rows, self.form.rank, self.form.sub_row
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
                d = 2 * rank(list(map(sub, qrows, r)))
            if best is None or d < best:
                best, found = d, i
                if d <= floor:
                    break
        return found, best

    def scan_pairs(self, members, best: int | None = None, floor: int = 0) -> int | None:
        """Minimum distance over unordered pairs of the given words (a list
        or range of indices), by the nearest scan alone; ``best`` if no pair
        is closer.  ``floor`` is a lower bound on every pair's distance, and
        the scan stops at the first pair that meets it."""
        ids, rows = self.ids, self.rows
        for pos, i in enumerate(members):
            if best is not None and best <= floor:
                break
            _, best = self.nearest(ids[i], rows[i], members[pos + 1 :], best, floor)
        return best

    def coset(self, cid: int):
        """The one coset analysis of class ``cid``, kept on the view: a basis
        D_1..D_r is taken from the differences G_i - G_0 (``_differences``) in
        class order, each outside the span of those before, until the span is
        as large as the class, as it is once it holds every difference.  The
        span grows in place: a new D_j appends x + c D_j for each nonzero c and
        each x so far, so the last D_j's coefficient is the most significant.
        The class is a coset exactly when each element of the span is one of
        its differences, and then this is (the flat D_j, the last first, and
        its words in coefficient order, the first D_j's coefficient the most
        significant); it is None for a class with a repeated word, and False
        for any other class."""
        if cid in self._cosets:
            return self._cosets[cid]
        sub, scaled = self.form.sub_row, self.form.scaled
        members = self.classes[cid]
        index = self._differences(members)
        zero = next(iter(index))  # G_0 - G_0
        basis, spanned, seen = [], [zero], {zero}  # the span in coefficient order, and as a set
        for f in index:
            if f not in seen:
                basis.append(f)
                # x + c f = x - c (-f), each c != 0 in turn
                grown = [sub(x, m) for (m,) in scaled([sub(zero, f)]) for x in spanned]
                spanned += grown
                if len(spanned) >= len(index):
                    break
                seen.update(grown)
        by_coords = list(map(index.get, spanned))
        if len(index) < len(members):
            out = None  # a repeated word
        elif None in by_coords:
            out = False
        else:
            out = basis[::-1], by_coords
        self._cosets[cid] = out
        return out

    @cached_property
    def cosets(self) -> dict:
        """Each class's ``coset`` by identifying vector, for the decoder: the
        coset classes and the classes with a repeated word (None); no other
        class is listed."""
        return {cid: c for cid in self.classes if (c := self.coset(cid)) is not False}

    def coset_minimum(self, cid: int) -> int | None:
        """The minimum of a coset class (``coset``), kept on the view (None
        for one word): 2 min rank(G_i - G_0) over i > 0, as every pairwise
        difference is one of the G_i - G_0.  A screen with no elimination
        (``RowForm.rank_at_most_one``) finds a difference of rank 1 if there
        is one; otherwise ranking them in class order stops at the first of
        rank 2.  Only a class whose minimum rank is above 2 (a lifted
        Gabidulin code at d = 6, say) ranks every difference."""
        if cid in self._minima:
            return self._minima[cid]
        rank, sub, rank_at_most_one = self.form.rank, self.form.sub_row, self.form.rank_at_most_one
        base, *others = [self.rows[i] for i in self.classes[cid]]
        if not others:
            d = None
        elif any(rank_at_most_one(map(sub, r, base)) for r in others):
            d = 2
        else:
            d = 2 * _least((rank(list(map(sub, r, base))) for r in others), 2)
        self._minima[cid] = d
        return d

    @cached_property
    def coset_minima(self) -> dict:
        """The coset classes (``coset``), by identifying vector, each with its
        ``coset_minimum``."""
        return {cid: self.coset_minimum(cid) for cid in self.classes if self.coset(cid)}

    def _differences(self, members) -> dict:
        """A dict from each difference G_i - G_0 over a class's words i,
        flattened, to its word, in class order.  Flattening is linear, so
        each word is flattened once and the differences are of flat rows."""
        flatten, sub = self.form.flatten, self.form.sub_row
        flats = [flatten(self.rows[i]) for i in members]
        base = flats[0]
        return dict(zip([sub(f, base) for f in flats], members))

    @cached_property
    def decoder(self):
        """The containment decoder's table, built on first use from ``cosets``.

        Returns (bound, cosets).  ``bound`` is a lower bound L on the
        minimum distance (None for at most one word): the least of each
        coset class's minimum, 2 for each other class of two or more words,
        and the least Hamming distance between two classes' identifying
        vectors.  ``cosets`` holds a ``CosetClass`` per coset class.
        """
        lows, cosets = [], []
        for cid, members in self.classes.items():
            coset, low = self.cosets.get(cid), self.coset_minima.get(cid, 2)
            if low is not None:
                lows.append(low)
            if not coset:
                continue
            flats, by_coords = coset
            r, pivots, base = len(flats), self.pivots(cid), self.rows[members[0]]
            # each D_j tracks its unit row e_j, so a solution tracks its coordinates
            eye = [self.form.row_of(tuple(int(i == j) for i in range(r))) for j in range(r)]
            diffs = [self.form.unflatten(f, len(base)) for f in flats]
            basis = [(d, self._by_pivot(pivots, d), e) for d, e in zip(diffs, eye)]
            zero = self.form.row_of((0,) * r)
            cosets.append(CosetClass(cid, len(base), base, self._by_pivot(pivots, base), basis, by_coords, zero))
        hamming = ((a ^ b).bit_count() for a, b in combinations(self.classes, 2))
        return min(chain(lows, hamming), default=None), cosets

    def pivots(self, vid: int) -> list[int]:
        """The columns of a packed identifying vector, ascending."""
        return [p for p in range(self.n) if vid >> (self.n - 1 - p) & 1]

    def _by_pivot(self, pivots, rows) -> list:
        return [(p, self.form.multiples(row)) for p, row in zip(pivots, rows)]

    def _reduce_rows(self, v, by_pivot):
        """v less v[p] times row p over the (p, multiples of row p) pairs;
        each row is zero at the other rows' p."""
        entry, sub = self.form.entry, self.form.sub_row
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
        lead, sub = self.form.lead, self.form.sub_row
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
            v, w = self.form.multiples(v)[s], self.form.multiples(w)[s]
        spanned[at[0]] = (self.form.multiples(v), self.form.multiples(w))
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
        reduce_rows, flatten, sub, n = self._reduce_rows, self.form.flatten, self.form.sub_row, self.n
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
                return index[self.form.code(x)], d
        return None

    def class_keys(self, cid: int, exclusive: int):
        """One key per word of class ``cid`` and per subspace X of that word
        whose pivots are the word's pivots outside ``exclusive`` (a packed
        set of its pivot columns), as an iterator, a word's keys in no fixed
        order.

        With S the other pivots and I = ``exclusive``, such an X has the
        reduced rows x_p = u_p + sum of c_(p,j) u_j over j in I right of p,
        for p in S and any c in GF(q); so each word has q^e of them, e =
        ``meet_exponent(S, I)``, all distinct.  The key is the tuple of X's
        rows, so two words share such a subspace exactly when they share a
        key.  The rows are built for the whole class at once, one row slot
        at a time: a slot's column holds that row of every word, and each of
        its q^e_p variants is one ``sub_row`` map over such columns; a key
        is a choice of variant per slot, read off word by word.  Each
        class's columns and each (class, exclusive set)'s slots are kept on
        the view, built on first use.
        """
        slots = self._slots.get((cid, exclusive))
        if slots is None:
            slots = self._slots[cid, exclusive] = self._meet_slots(cid, exclusive)
        if not slots:  # X is the zero space, one key per word
            return repeat((), len(self.classes[cid]))
        return chain.from_iterable(starmap(zip, product(*slots)))

    def _class_columns(self, cid: int) -> list:
        """Class ``cid``'s row columns, kept on the view: column r holds row
        r of every word, in class order."""
        columns = self._columns.get(cid)
        if columns is None:
            columns = self._columns[cid] = list(zip(*[self.rows[i] for i in self.classes[cid]]))
        return columns

    def _meet_slots(self, cid: int, exclusive: int) -> list:
        """Per row slot of ``_meet_plan(cid, exclusive)``, the column of its
        variants' rows, one row per word of the class."""
        plan = self._meet_plan(cid, exclusive)
        if not plan:
            return []
        columns = self._class_columns(cid)
        sub, scaled = self.form.sub_row, self.form.scaled
        slots = []
        for p, later in plan:
            xs = [columns[p]]
            for j in later:
                nonzero = scaled(columns[j])  # c * row j of every word, per c != 0
                xs += [tuple(map(sub, x, m)) for x in xs for m in nonzero]
            slots.append(xs)
        return slots

    def _meet_plan(self, cid: int, exclusive: int) -> list:
        """For ``class_keys`` on words with identifying vector ``cid``: per
        row whose pivot is shared, its position and the positions of the
        later rows whose pivots are exclusive."""
        bits = [b for b in range(self.n - 1, -1, -1) if cid >> b & 1]  # rows' pivots, in row order
        later = [r for r, b in enumerate(bits) if exclusive >> b & 1]
        return [(r, [j for j in later if j > r]) for r, b in enumerate(bits) if not exclusive >> b & 1]
