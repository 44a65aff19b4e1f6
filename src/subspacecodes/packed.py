"""The packed codebook and the one nearest-codeword scan.

A code's identifying vectors are packed into integers once (column 0 in
the highest bit), and over GF(2) so are its generator rows; over GF(q),
q > 2, rows stay tuples.  Only how rows are stored, subtracted and ranked
depends on q: XOR elimination on packed rows for q = 2, the generic row
reduction otherwise.

The subspace distance dominates the Hamming distance of identifying
vectors, d(U, W) >= d_H(v(U), v(W)), so a word whose identifying vector is
already that far from a query cannot beat the best distance so far.  Words
sharing an identifying vector differ only in their free entries, and then
d(U, W) = 2 rank(G_U - G_W); otherwise d = 2 rank([G_U; G_W]) - k_U - k_W.
"""

from __future__ import annotations

from itertools import chain, product

from .matrices import _rref_rows


def pack(fields, width: int = 1) -> int:
    """Concatenate ``width``-bit fields, the first in the highest bits.

    With the default width a 0/1 vector packs bit by bit: "1100" packs to
    0b1100.  Packed rows of n bits pack into one integer with width n.
    """
    v = 0
    for f in fields:
        v = (v << width) | f
    return v


def gf2_rank(rows) -> int:
    """Rank of packed GF(2) rows."""
    lead: dict[int, int] = {}
    for v in rows:
        while v:
            b = v.bit_length()
            cur = lead.get(b)
            if cur is None:
                lead[b] = v
                break
            v ^= cur
    return len(lead)


def meet_exponent(shared: int, exclusive: int) -> int:
    """Number of pairs (p, i), p a column of ``shared`` and i one of
    ``exclusive`` (both packed column sets), with i right of p."""
    e = 0
    while shared:
        low = shared & -shared  # the rightmost column left in shared
        e += (exclusive & (low - 1)).bit_count()
        shared ^= low
    return e


class PackedCode:
    """The words of a code with packed identifying vectors and rows, grouped
    into classes by identifying vector (each class in code order).

    ``rank(rows)``, ``sub_row(x, y)`` (x - y), ``difference(a, b)`` (row-wise
    a - b) and ``multiples(row)`` (every c * row, c in GF(q)) act on rows as
    this view stores them.
    """

    def __init__(self, spec, n: int, words):
        self.spec = spec
        self.n = n
        self.words = tuple(words)
        if spec.order == 2:
            self.rank = gf2_rank
            self.sub_row = int.__xor__
            self.multiples = lambda row: (0, row)
        else:
            self.rank = self._gfq_rank
            sub, mul = spec.sub, spec.mul
            self.sub_row = lambda x, y: tuple(map(sub, x, y))
            self.multiples = lambda row: [tuple(mul(c, x) for x in row) for c in range(spec.order)]
        packed = [self.pack_word(w) for w in self.words]
        self.ids = [v for v, _ in packed]
        self.rows = [r for _, r in packed]
        self.classes: dict[int, list[int]] = {}
        for i, v in enumerate(self.ids):
            self.classes.setdefault(v, []).append(i)

    def pack_word(self, u) -> tuple[int, list | tuple]:
        """Packed identifying vector and generator rows of a subspace."""
        rows = u.gen.entries
        if self.spec.order == 2:
            rows = [pack(r) for r in rows]
        return pack(u.id_vector.bits), rows

    def _gfq_rank(self, rows) -> int:
        if not rows:
            return 0
        return _rref_rows(self.spec, [list(r) for r in rows], len(rows[0]))[0]

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

    def coset_min(self, members) -> int | None:
        """Minimum distance inside a class that is a coset of a linear space.

        The differences G_i - G_0, each flattened to one vector, include
        the zero one; they form a linear space exactly when they are
        distinct and number q^r, r the rank of their span.  Then every
        pairwise difference is one of them and the minimum is
        2 min rank(G_i - G_0) over i > 0.  None if the class is not a coset.
        """
        rows = self.rows
        base = rows[members[0]]
        diffs = [self.difference(rows[i], base) for i in members]
        if self.spec.order == 2:
            flat = [pack(d, self.n) for d in diffs]
        else:
            flat = [tuple(chain.from_iterable(d)) for d in diffs]
        if len(set(flat)) != len(flat) or len(flat) != self.spec.order ** self.rank(flat):
            return None
        return 2 * min(self.rank(d) for d in diffs[1:])

    def meet_keys(self, i: int, exclusive: int) -> set:
        """One key per subspace X of word i whose pivots are the word's
        pivots outside ``exclusive`` (a packed set of its pivot columns).

        With S the other pivots and I = ``exclusive``, such an X has the
        reduced rows x_p = u_p + sum of c_(p,j) u_j over j in I right of p,
        for p in S and any c in GF(q); so there are q^e of them, e =
        ``meet_exponent(S, I)``.  The key is the tuple of X's rows, so two
        words share such a subspace exactly when they share a key.
        """
        n, wid = self.n, self.ids[i]
        later, choices = [], []
        # rows from the right, each beside its pivot's bit
        for row, bit in zip(reversed(self.rows[i]), (b for b in range(n) if wid >> b & 1)):
            if exclusive >> bit & 1:
                later.append(self.multiples(row))
                continue
            rows = [row]
            for multiples in later:
                rows = [self.sub_row(x, m) for x in rows for m in multiples]
            choices.append(rows)
        choices.reverse()
        return set(product(*choices))
