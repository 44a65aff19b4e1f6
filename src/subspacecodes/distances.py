"""The subspace (dimension) metric and its fast evaluation.

d(U, W) = dim U + dim W - 2 dim(U ∩ W).  The naive route computes the rank
of the stacked generator matrices.  The fast route compares identifying
vectors first: s = Hamming distance of the pivot indicators is a lower bound
on d with the same parity, and after eliminating the pivots exclusive to one
side the remainder reduces to a rank of difference rows, so
d = s + 2 * rank(U~ - W~).  Both routes eliminate in the field's row form
(``matrices.row_form``, XOR on packed rows over GF(2)), the fast one on the
rows the subspaces keep (``Subspace.rows``).
"""

from __future__ import annotations

from itertools import chain, combinations, compress
from operator import not_

from .errors import AmbientMismatch, TooFewCodewords
from .matrices import rank, row_form, vconcat
from .packed import PackedCode, meet_exponent
from .subspaces import Subspace


def _check_pair(u: Subspace, w: Subspace) -> None:
    if u.n != w.n or u.spec != w.spec:
        raise AmbientMismatch("subspaces live in different ambient spaces")


def dim_intersection(u: Subspace, w: Subspace) -> int:
    _check_pair(u, w)
    return u.k + w.k - rank(vconcat(u.gen, w.gen))


def distance_naive(u: Subspace, w: Subspace) -> int:
    """2 rank([U; W]) - k1 - k2, straight from the definition."""
    _check_pair(u, w)
    return 2 * rank(vconcat(u.gen, w.gen)) - u.k - w.k


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def distance_fast(u: Subspace, w: Subspace) -> int:
    """Identifying-vector algorithm; always equals distance_naive.

    s = Hamming distance of the identifying vectors, the number of pivots
    exclusive to one side.  The rows of U and W with a shared pivot pair up
    in order, and their differences D are zero at every shared pivot, as
    are the s rows E whose pivot is exclusive; so rank([U; W]) is the
    number of shared pivots plus rank([E; D]), and d = 2 rank([E; D]) - s.
    Eliminating E's pivots from D leaves the paper's U~ - W~, so this is
    d = s + 2 rank(U~ - W~).  The rows are the ones the subspaces keep, in
    their field's row form.
    """
    _check_pair(u, w)
    ubits, wbits = u.id_vector.bits, w.id_vector.bits
    ushared = list(compress(wbits, ubits))  # per row of U: is its pivot W's too
    wshared = list(compress(ubits, wbits))
    form = row_form(u.spec, u.n)
    rows = [
        *compress(u.rows, map(not_, ushared)),
        *compress(w.rows, map(not_, wshared)),
        *map(form.sub_row, compress(u.rows, ushared), compress(w.rows, wshared)),
    ]
    return 2 * form.rank(rows) - hamming(ubits, wbits)


# How many join keys cost as much as one ranked pair, kept below the measured
# ratio.  On the 573-word shortened w8k4 code (GF(2), n = 7; Python 3.11, two
# cores) a key, built and then hashed or probed, costs about 0.13 us (the 44
# joins of one verify at weight 4 list 9,145 keys in 1.2 ms) and a ranked
# pair about 1.4 us (``PackedCode.nearest`` on one pair of words from classes
# at Hamming distance h <= 2), a ratio of about 10.  At 8 rather than 4 that
# verify joins the class pairs it would otherwise scan and makes 204 fewer
# rank calls; the GF(3) w7k3 verify does the same work at either weight.
JOIN_WEIGHT = 8


def min_distance(code) -> int:
    """Minimum pairwise distance over all unordered codeword pairs.

    Exact, and built on the code's structure.  Words sharing an identifying
    vector form a class, and two words of a class are at distance 0, 2 or
    at least 4.  The view's one coset analysis of each class
    (``PackedCode.cosets``) finds the cosets of a linear space of
    matrices, whose minimum is 2 min rank(G_i - G_0)
    (``PackedCode.coset_minima``), and the classes with a repeated word,
    whose minimum is 0.  In any other class two words at distance 2 share
    a hyperplane, a (k-1)-subspace, whose pivots are all but one of the
    class's: listing the hyperplanes of every word of the class
    (``PackedCode.class_keys`` once per pivot) settles the class as 2 when
    the list holds a duplicate.  A class with no shared hyperplane has
    minimum at least 4; that is only a lower bound, so it never becomes the
    best so far, and the class's pairs are scanned at the end, only if the
    best then exceeds 4.

    Pairs of classes go in order of the Hamming distance h of their
    identifying vectors, a lower bound on every distance between them,
    until h reaches the best so far.  With S the pivots two classes share,
    d(U, W) = h + 2(|S| - dim(U ∩ W)), so d = h exactly when U and W share
    a subspace with pivot set S, and d >= h + 2 otherwise.  When listing
    those subspaces (``class_keys``, |A| q^e_A keys for class A) costs no
    more than ranking the |A| |B| pairs, a hash join settles the class
    pair: the side with fewer keys is hashed and the other side's keys
    probe it until the first hit.  A key costs under an eighth of a ranked
    pair (``JOIN_WEIGHT``), so the join is taken when
    |A| q^e_A + |B| q^e_B <= 8 |A| |B|.  A shared key gives d = h; with
    none, the pair can only matter if the best so far exceeds h + 2, and
    only then are its pairs scanned.  Either route is exact, so the weight
    only decides which runs.

    Every scan stops at its floor, a lower bound on each pair it reaches
    (``PackedCode.nearest``'s ``floor``): h for a class pair scanned
    without a join, h + 2 after a join with no shared key, and 4 in a
    deferred class.  No later pair can be closer than the first one at
    its floor, so no pair after it is ranked.
    """
    if not hasattr(code, "packed"):  # Subspaces, not a code
        code = tuple(code)
    if len(code) < 2:
        raise TooFewCodewords("minimum distance needs at least two codewords")
    if hasattr(code, "packed"):
        view = code.packed
    else:
        spec, n = code[0].spec, code[0].n
        if any(w.spec != spec or w.n != n for w in code):
            raise AmbientMismatch("codewords live in different ambient spaces")
        view = PackedCode.of_words(spec, n, code)

    ids, rows, q, minima = view.ids, view.rows, view.spec.order, view.coset_minima
    best, deferred = None, []
    for cid, members in view.classes.items():
        if cid in minima:
            d = minima[cid]  # None for a one-word class
        elif cid in view.cosets:  # not a coset: a repeated word
            d = 0  # the hyperplane join would say 2
        elif _shares_hyperplane(view, cid):
            d = 2
        else:
            deferred.append(members)
            continue
        if d is not None and (best is None or d < best):
            best = d

    pairs = sorted(((a ^ b).bit_count(), a, b) for a, b in combinations(view.classes, 2))
    for h, a, b in pairs:
        if best is not None and h >= best:
            break
        ours, others = view.classes[a], view.classes[b]
        s, x, y = a & b, a & ~b, b & ~a
        na, nb = len(ours) * q ** meet_exponent(s, x), len(others) * q ** meet_exponent(s, y)
        floor = h  # a lower bound on every pair of the two classes
        if na + nb <= JOIN_WEIGHT * len(ours) * len(others):
            sides = ((a, x), (b, y)) if na <= nb else ((b, y), (a, x))  # the fewer keys hashed
            if _meets(view, *sides):
                best = h
                continue
            floor = h + 2
            if best is not None and best <= floor:
                continue
        for i in ours:
            _, best = view.nearest(ids[i], rows[i], others, best, floor)
            if best == floor:
                break

    for members in deferred:  # each class's minimum is at least 4
        if best is None or best > 4:
            best = view.scan_pairs(members, best, 4)
    return best


def _shares_hyperplane(view, cid) -> bool:
    """Whether two words of one class (``cid`` its packed identifying
    vector) share a hyperplane.  Each hyperplane of a word has as pivots
    all of the word's pivots but one, so ``class_keys`` with that one pivot
    exclusive lists it, and lists it once: a key listed twice is a
    hyperplane of two words."""
    keys = list(chain.from_iterable(view.class_keys(cid, 1 << b) for b in range(view.n) if cid >> b & 1))
    return len(set(keys)) < len(keys)


def _meets(view, hashed, probed) -> bool:
    """Whether a word of one class and a word of another share a subspace
    on their shared pivots.  ``hashed`` and ``probed`` are each (the class's
    identifying vector, its exclusive pivots); the keys of ``hashed`` go in
    a set, and those of ``probed`` are listed only up to the first hit."""
    return not set(view.class_keys(*hashed)).isdisjoint(view.class_keys(*probed))
