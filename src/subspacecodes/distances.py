"""The subspace (dimension) metric and its fast evaluation.

d(U, W) = dim U + dim W - 2 dim(U ∩ W).  The naive route computes the rank
of the stacked generator matrices.  The fast route compares identifying
vectors first: s = Hamming distance of the pivot indicators is a lower bound
on d with the same parity, and after eliminating the pivots exclusive to one
side the remainder reduces to a rank of difference rows, so
d = s + 2 * rank(U~ - W~).  Both routes eliminate in the field's row form
(``matrices.row_form``, XOR on packed rows over GF(2)), the fast one on the
rows the subspaces keep (``Subspace.rows``).  The naive route and
``dim_intersection`` stack the generators (``Subspace.gen``) as the
reference the tests hold the fast route to; ranking the kept rows directly
would make the naive route faster than the fast one over GF(2).
"""

from __future__ import annotations

import gc
from itertools import combinations, compress, takewhile
from operator import not_

from .errors import AmbientMismatch, TooFewCodewords
from .matrices import rank, row_form, vconcat
from .packed import PackedCode, hyperplane_keys, meet_exponent
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
# verify joined the class pairs it would otherwise scan and made 204 fewer
# rank calls; the GF(3) w7k3 verify does the same work at either weight.
# Those were near pairs, which the sieve now settles; the weight still
# decides the class pairs it leaves, at h = 2 two dimensions apart or h >= 3.
JOIN_WEIGHT = 8


def min_distance(code) -> int:
    """Minimum pairwise distance over all unordered codeword pairs.

    Exact, and built on the code's structure.  Words sharing an identifying
    vector form a class, and two words of a class are at distance 0, 2 or
    at least 4.  Two classes whose identifying vectors are at Hamming
    distance h bound every distance between them below by h, with the same
    parity.  A near pair is two classes at h = 1, or at h = 2 with one
    dimension, and a near class is a class in a near pair.

    A pair of words at distance 1 or 2 lies in one class or in a near pair,
    and then either one word is a hyperplane, a (k-1)-subspace, of the
    other, or the two words share a hyperplane.  So one sieve settles them
    all (``_sieve``): per dimension, a set of the words of every near class,
    and of every other class that is not a coset, and one of their
    hyperplanes (``hyperplane_keys``), each dimension's words listed in one
    batch.  A repeated word gives 0, a word that is a hyperplane of another
    1, and a hyperplane of two words 2; with no such collision every sieved
    class has minimum at least 4, and every near pair at least h + 2.

    A class that is not near gets its coset analysis at once
    (``PackedCode.coset``): a coset of a linear space of matrices has the
    minimum 2 min rank(G_i - G_0) (``PackedCode.coset_minimum``), a class
    with a repeated word 0, and any other class is sieved and deferred: its
    minimum, at least 4, is only a lower bound, so it never becomes the best
    so far, and its pairs are scanned at the end, only if the best then
    exceeds 4.  A near class's minimum is taken only when an upper bound can
    still change the answer: before a class-pair scan whose floor is at
    least 4 and above the best so far, and at the end if the best exceeds
    4; a near class that is not a coset is then deferred in turn.

    Pairs of classes go in order of h, a lower bound on every distance
    between them, until h reaches the best so far; at one h, the pair with
    fewer word pairs first, then by identifying vector, the smaller class
    scanned word by word against the larger.  A near pair has no pair at
    d = h, or the sieve would have set the best to h at most.  For any
    other pair, with S the pivots the two classes share,
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
    without a join, h + 2 for a near pair or after a join with no shared
    key, and 4 in a deferred class.  No later pair can be closer than the
    first one at its floor, so no pair after it is ranked.
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

    ids, rows, q, classes = view.ids, view.rows, view.spec.order, view.classes
    size = {cid: len(members) for cid, members in classes.items()}
    by_size = sorted(classes, key=lambda cid: (size[cid], cid))  # so each pair has its smaller class first
    pairs = sorted(((a ^ b).bit_count(), size[a] * size[b], a, b) for a, b in combinations(by_size, 2))
    near = {c for h, _, a, b in takewhile(lambda p: p[0] <= 2, pairs) if _near(h, a, b) for c in (a, b)}

    best, deferred, sieved = None, [], []
    for cid, members in classes.items():
        if cid in near:
            sieved.append(cid)
            continue
        coset = view.coset(cid)
        if coset:
            d = view.coset_minimum(cid)  # None for a one-word class
        elif coset is None:  # a repeated word
            d = 0
        else:
            sieved.append(cid)
            deferred.append(members)
            continue
        best = _least_of(best, d)
    if sieved:
        best = _least_of(best, _sieve(view, sieved))
    pending = [cid for cid in sieved if cid in near]  # near classes whose minimum is not yet taken

    for h, _, a, b in pairs:
        if best is not None and h >= best:
            break
        ours, others = classes[a], classes[b]
        floor = h  # a lower bound on every pair of the two classes
        if _near(h, a, b):  # no pair at d = h, or the sieve would have set the best to h at most
            floor = h + 2
        else:
            s, x, y = a & b, a & ~b, b & ~a
            na, nb = len(ours) * q ** meet_exponent(s, x), len(others) * q ** meet_exponent(s, y)
            if na + nb <= JOIN_WEIGHT * len(ours) * len(others):
                sides = ((a, x), (b, y)) if na <= nb else ((b, y), (a, x))  # the fewer keys hashed
                if _meets(view, *sides):
                    best = h
                    continue
                floor = h + 2
        if pending and floor >= 4 and (best is None or best > floor):
            best = _near_minima(view, pending, deferred, best)
        if best is not None and best <= floor:
            continue
        for i in ours:
            _, best = view.nearest(ids[i], rows[i], others, best, floor)
            if best == floor:
                break

    if best is None or best > 4:
        best = _near_minima(view, pending, deferred, best)
    for members in deferred:  # each class's minimum is at least 4
        if best is None or best > 4:
            best = view.scan_pairs(members, best, 4)
    return best


def _near(h: int, a: int, b: int) -> bool:
    """Whether classes with packed identifying vectors a and b, at Hamming
    distance h, are a near pair: h = 1, or h = 2 with one dimension."""
    return h == 1 or h == 2 and a.bit_count() == b.bit_count()


def _least_of(best: int | None, d: int | None) -> int | None:
    """The lesser of two upper bounds, either None for no bound."""
    return d if best is None or (d is not None and d < best) else best


def _sieve(view, cids) -> int | None:
    """The least distance, 0, 1 or 2, that hash sets of the words of the
    classes ``cids`` (packed identifying vectors) and of their hyperplanes
    show, one set of each per dimension; None when they show none.  Every
    key is a tuple of reduced rows, so equal keys are equal subspaces, and
    keys of different dimensions differ in length: a word listed twice is a
    repeated word (0), a hyperplane of a dimension-k word among the
    dimension-(k-1) words is a word inside another at codimension 1 (1),
    and, the words being distinct, a hyperplane listed twice lies in two
    words of one dimension (2), since the hyperplanes of one word are
    distinct.  Every pair of words of these classes at distance 2 or less
    shows so, but a word inside another at codimension 2.  The words of one
    dimension are listed in one batch whatever their classes
    (``hyperplane_keys``), the keys go straight into that dimension's set,
    and the number listed is counted, not kept.  The cyclic garbage
    collector is paused while the hyperplanes' sets are built and until the
    last is freed: their key tuples, thousands of new ones, hold only rows
    and are freed before the call returns, so a collection they started
    would walk them for nothing.  Freed while it is paused, they leave the
    collector's count where they found it; freed after, they would start
    one collection over all of them."""
    rows, classes, q, form = view.rows, view.classes, view.spec.order, view.form
    by_dim: dict[int, list] = {}
    for cid in cids:
        by_dim.setdefault(cid.bit_count(), []).extend(map(rows.__getitem__, classes[cid]))
    words = {k: set(ws) for k, ws in by_dim.items()}
    if any(len(words[k]) < len(ws) for k, ws in by_dim.items()):
        return 0
    shared = None
    was = gc.isenabled()
    gc.disable()
    try:
        for k, ws in by_dim.items():
            planes = set(hyperplane_keys(form, ws))
            if not planes.isdisjoint(words.get(k - 1, ())):
                return 1
            if len(planes) < len(ws) * (q**k - 1) // (q - 1):
                shared = 2
            planes = None  # freed before the next dimension's set is built
        return shared
    finally:
        planes = None  # the keys are freed while the collector is paused
        if was:
            gc.enable()


def _near_minima(view, pending, deferred, best):
    """``best`` lowered by the minimum of each near class in ``pending``,
    which is emptied: a coset class's ``coset_minimum``; any other class
    goes to ``deferred``, to be scanned."""
    for cid in pending:
        if view.coset(cid):
            best = _least_of(best, view.coset_minimum(cid))
        else:
            deferred.append(view.classes[cid])
    pending.clear()
    return best


def _meets(view, hashed, probed) -> bool:
    """Whether a word of one class and a word of another share a subspace
    on their shared pivots.  ``hashed`` and ``probed`` are each (the class's
    identifying vector, its exclusive pivots); the keys of ``hashed`` go in
    a set, and those of ``probed`` are listed only up to the first hit."""
    return not set(view.class_keys(*hashed)).isdisjoint(view.class_keys(*probed))
