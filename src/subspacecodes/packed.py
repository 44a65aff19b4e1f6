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
is one linear system, solved by the row form's ``rref`` and ``remainder``
(``PackedCode.contained``).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, repeat, starmap
from typing import NamedTuple

from .matrices import RowForm, row_form


def meet_exponent(shared: int, exclusive: int) -> int:
    """Number of pairs (p, i), p a column of ``shared`` and i one of
    ``exclusive`` (both packed column sets), with i right of p."""
    e = 0
    while shared:
        low = shared & -shared  # the rightmost column left in shared
        e += (exclusive & (low - 1)).bit_count()
        shared ^= low
    return e


def variant_slots(form, columns, plan) -> list:
    """The variant columns of row slots, for the words whose row columns
    are ``columns`` (column r holds row r of every word, in the row form
    ``form``).  ``plan`` lists per slot a row position p and the positions
    of the later rows j that vary it, and the slot's column holds, per
    word, u_p + sum of c_j u_j over every choice of the c_j in GF(q); each
    variant is one ``sub_row`` map over whole columns, and each varying
    row is scaled once per call."""
    sub, scaled = form.sub_row, form.scaled
    nonzero = {}  # per varying row j: c * row j of every word, per c != 0
    slots = []
    for p, later in plan:
        xs = [columns[p]]
        for j in later:
            if j not in nonzero:
                nonzero[j] = scaled(columns[j])
            xs += [tuple(map(sub, x, m)) for x in xs for m in nonzero[j]]
        slots.append(xs)
    return slots


def key_runs(slots, count: int):
    """The keys of ``slots`` (``variant_slots``) in runs, one run per choice
    of variant in each slot: an iterator of the chosen rows' tuples, one
    per word, read off word by word.  With no slot, one run of (), the zero
    space, for each of the ``count`` words.  A caller chains the runs
    itself, so that a key passes through one chain however many batches of
    slots it gathers."""
    if not slots:
        return (repeat((), count),)
    return starmap(zip, product(*slots))


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
    lists a class: per j, the slots of ``variant_slots`` with row j the one
    varying row."""
    columns = list(zip(*words))
    k = len(columns)
    plans = ([(i, [j] if i < j else []) for i in range(k) if i != j] for j in range(k))
    runs = (key_runs(variant_slots(form, columns, plan), len(words)) for plan in plans)
    return chain.from_iterable(chain.from_iterable(runs))


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
    """A class G_0 + span(D_1..D_r) as the containment decoder reads it: its
    words' coordinates x are rows of GF(q)^r, in the row form ``coords``."""

    cid: int
    base: list | tuple  # the rows of G_0
    basis: list  # per D_j: its rows and the unit row e_j of GF(q)^r
    coords: RowForm  # the row form of GF(q)^r
    index: list  # word index by the code of its coordinates x


class PackedCode:
    """The words of a code as their packed identifying vectors ``ids`` and
    rows ``rows``, grouped into classes by identifying vector (each class in
    code order).  Rows are in the field's row form ``form``, and only its
    primitives touch them.

    What the view learns about one class it keeps, each on first use: the
    class's coset analysis (``coset``), which a verify and the containment
    decoder's table (``decoder``: per coset class, its G_0, its D_j and its
    words by coordinates) share, and, for a coset, its minimum
    (``coset_minimum``), which a verify takes only for the classes it
    needs; and the join slots of each (class, exclusive set)
    (``class_keys``).  The decoder reads no minimum of its own: its bound
    is the code's minimum distance, which its caller passes to
    ``contained``."""

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

    def _differences(self, members) -> dict:
        """A dict from each difference G_i - G_0 over a class's words i,
        flattened, to its word, in class order.  Flattening is linear, so
        each word is flattened once and the differences are of flat rows."""
        flatten, sub = self.form.flatten, self.form.sub_row
        flats = [flatten(self.rows[i]) for i in members]
        base = flats[0]
        return dict(zip([sub(f, base) for f in flats], members))

    @cached_property
    def decoder(self) -> list:
        """The containment decoder's table, built on first use: a
        ``CosetClass`` per coset class (``coset``), in class order, each
        D_j unflattened into rows and paired with its unit row e_j, so that a
        solution of ``contained``'s system carries its coordinates."""
        cosets = []
        for cid, members in self.classes.items():
            coset = self.coset(cid)
            if not coset:
                continue
            flats, by_coords = coset
            r, base = len(flats), self.rows[members[0]]
            coords = row_form(self.spec, r)
            eye = [coords.row_of([int(i == j) for i in range(r)]) for j in range(r)]
            basis = [(self.form.unflatten(f, len(base)), e) for f, e in zip(flats, eye)]
            cosets.append(CosetClass(cid, base, basis, coords, by_coords))
        return cosets

    def pivots(self, vid: int) -> list[int]:
        """The columns of a packed identifying vector, ascending."""
        return [p for p in range(self.n) if vid >> (self.n - 1 - p) & 1]

    def contained(self, qid: int, qrows, bound: int | None):
        """(index, distance) of the nearest word to the query Y, when a
        containment proves it; None otherwise.

        For each coset class G_0 + span(D_1..D_r) whose identifying vector
        holds the query's or lies inside it, a word U = G_0 + sum x_j D_j of
        the class has U ⊆ Y, or Y ⊆ U, exactly when v + sum x_j a_j = 0, a
        system in the r unknowns x_j.  For U ⊆ Y, v = R(G_0) and a_j =
        R(D_j), with R the remainder by Y's rows.  For Y ⊆ U, every row y
        of Y must be sum y[p] u_p over U's pivots p: v is that sum over G_0
        less y, and a_j the sum over D_j (``combine``), for each y in turn.
        The remainder of v ‖ 0 by the reduced rows a_j ‖ e_j is zero at its
        head exactly when a solution exists, and its tail is then x, whose
        code indexes the class's words.  That word is at distance d =
        |dim Y - dim U|.  ``bound`` is the code's minimum distance d(C)
        (None for one word), and the word is returned only when 2d < d(C):
        then every other word W has d(W, Y) >= d(U, W) - d >= d(C) - d > d.
        The classes are tried in the order of ``decoder``, the table built
        on first use.
        """
        kq, n, qpivots = len(qrows), self.n, self.pivots(qid)
        entry, flatten, sub = self.form.entry, self.form.flatten, self.form.sub_row
        remainder, combine = self.form.remainder, self.form.combine
        for cid, base, basis, coords, index in self.decoder:
            d = abs(kq - len(base))
            if bound is not None and 2 * d >= bound:
                continue
            if not cid & ~qid:  # U ⊆ Y
                v = flatten([remainder(g, qrows) for g in base])
                # the D_j are zero at U's pivots, so only Y's other rows reduce them
                outside = [y for p, y in zip(qpivots, qrows) if not cid >> (n - 1 - p) & 1]
                system = [coords.join(flatten([remainder(g, outside) for g in rows]), e) for rows, e in basis]
            elif not qid & ~cid:  # Y ⊆ U
                pivots = self.pivots(cid)
                coeffs = [[entry(y, p) for p in pivots] for y in qrows]
                v = flatten([sub(combine(c, base), y) for c, y in zip(coeffs, qrows)])
                system = [coords.join(flatten([combine(c, rows) for c in coeffs]), e) for rows, e in basis]
            else:
                continue
            zero = coords.row_of((0,) * len(basis))
            # the reduced rows a_j ‖ e_j take v ‖ 0 to (v + sum x_j a_j) ‖ x
            # for some x, with a zero head exactly when x solves the system;
            # the q^r codes below len(index) are those of a zero head
            x = coords.code(coords.remainder(coords.join(v, zero), coords.rref(system)))
            if x < len(index):
                return index[x], d
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
        at a time (``variant_slots`` on ``_meet_plan``), and each (class,
        exclusive set)'s slots are kept on the view, built on first use.
        """
        members = self.classes[cid]
        slots = self._slots.get((cid, exclusive))
        if slots is None:
            columns = list(zip(*map(self.rows.__getitem__, members)))
            slots = self._slots[cid, exclusive] = variant_slots(self.form, columns, self._meet_plan(cid, exclusive))
        return chain.from_iterable(key_runs(slots, len(members)))

    def _meet_plan(self, cid: int, exclusive: int) -> list:
        """For ``class_keys`` on words with identifying vector ``cid``: per
        row whose pivot is shared, its position and the positions of the
        later rows whose pivots are exclusive."""
        bits = [b for b in range(self.n - 1, -1, -1) if cid >> b & 1]  # rows' pivots, in row order
        later = [r for r, b in enumerate(bits) if exclusive >> b & 1]
        return [(r, [j for j in later if j > r]) for r, b in enumerate(bits) if not exclusive >> b & 1]
