"""The subspace (dimension) metric and its fast evaluation.

d(U, W) = dim U + dim W - 2 dim(U ∩ W).  The naive route computes the rank
of the stacked generator matrices.  The fast route compares identifying
vectors first: s = Hamming distance of the pivot indicators is a lower bound
on d with the same parity, and after eliminating the pivots exclusive to one
side the remainder reduces to a rank of difference rows, so
d = s + 2 * rank(U~ - W~).  Over GF(2) both routes eliminate by XOR, the
fast one on the packed rows the subspaces keep.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import not_, xor

from .errors import AmbientMismatch, TooFewCodewords
from .matrices import MatGF, gf2_rank, rank, vconcat
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
    d = s + 2 rank(U~ - W~).  Over GF(2) the rows are the packed ones the
    subspaces keep, subtracted by XOR.
    """
    _check_pair(u, w)
    ubits, wbits = u.id_vector.bits, w.id_vector.bits
    ushared = list(compress(wbits, ubits))  # per row of U: is its pivot W's too
    wshared = list(compress(ubits, wbits))
    if u.packed is not None:
        urows, wrows, sub, rank_of = u.packed, w.packed, xor, gf2_rank
    else:
        spec = u.spec
        urows, wrows = u.gen.entries, w.gen.entries
        sub = lambda a, b: tuple(map(spec.sub, a, b))  # noqa: E731
        rank_of = lambda rows: rank(MatGF(spec, rows, cols=u.n))  # noqa: E731
    rows = [
        *compress(urows, map(not_, ushared)),
        *compress(wrows, map(not_, wshared)),
        *map(sub, compress(urows, ushared), compress(wrows, wshared)),
    ]
    return 2 * rank_of(rows) - hamming(ubits, wbits)


def min_distance(code) -> int:
    """Minimum pairwise distance over all unordered codeword pairs.

    Exact, and built on the code's structure.  Words sharing an identifying
    vector form a class, and two words of a class are at distance 0, 2 or
    at least 4.  When a class is a coset of a linear space of matrices its
    minimum is 2 min rank(G_i - G_0) (``PackedCode.coset_minima``).  Otherwise
    equal rows give 0, and two words at distance 2 share a hyperplane, a
    (k-1)-subspace, whose pivots are all but one of the class's: listing
    each word's hyperplanes (``meet_keys`` once per pivot) settles the class
    as 2 when two words share one.  A class with no shared hyperplane has
    minimum at least 4; that is only a lower bound, so it never becomes the
    best so far, and the class's pairs are scanned at the end, only if the
    best then exceeds 4.

    Pairs of classes go in order of the Hamming distance h of their
    identifying vectors, a lower bound on every distance between them,
    until h reaches the best so far.  With S the pivots two classes share,
    d(U, W) = h + 2(|S| - dim(U ∩ W)), so d = h exactly when U and W share
    a subspace with pivot set S, and d >= h + 2 otherwise.  When listing
    those subspaces (``meet_keys``) costs no more than the |A| |B| pairs, a
    hash join settles the class pair: a shared key gives d = h; with none,
    the pair can only matter if the best so far exceeds h + 2, and only
    then are its pairs scanned.
    """
    words = code.words if hasattr(code, "words") else tuple(code)
    if len(words) < 2:
        raise TooFewCodewords("minimum distance needs at least two codewords")
    if hasattr(code, "packed"):
        view = code.packed
    else:
        spec, n = words[0].spec, words[0].n
        if any(w.spec != spec or w.n != n for w in words):
            raise AmbientMismatch("codewords live in different ambient spaces")
        view = PackedCode(spec, n, words)

    ids, rows, q, minima = view.ids, view.rows, view.spec.order, view.coset_minima
    best, deferred = None, []
    for cid, members in view.classes.items():
        if len(members) < 2:
            continue
        if cid in minima:
            d = minima[cid]
        elif len({tuple(rows[i]) for i in members}) < len(members):
            d = 0  # a repeated word; the hyperplane join would say 2
        elif _shares_hyperplane(view, cid, members):
            d = 2
        else:
            deferred.append(members)
            continue
        if best is None or d < best:
            best = d

    pairs = sorted(((a ^ b).bit_count(), a, b) for a, b in combinations(view.classes, 2))
    for h, a, b in pairs:
        if best is not None and h >= best:
            break
        ours, others = view.classes[a], view.classes[b]
        s, x, y = a & b, a & ~b, b & ~a
        cost = len(ours) * q ** meet_exponent(s, x) + len(others) * q ** meet_exponent(s, y)
        if cost <= len(ours) * len(others):
            if _meets(view, ours, x, others, y):
                best = h
                continue
            if best is not None and best <= h + 2:
                continue
        for i in ours:
            _, best = view.nearest(ids[i], rows[i], others, best)

    for members in deferred:  # each class's minimum is at least 4
        if best is None or best > 4:
            best = view.scan_pairs(members, best)
    return best


def _shares_hyperplane(view, cid, members) -> bool:
    """Whether two words of one class (``cid`` its packed identifying
    vector) share a hyperplane.  Each hyperplane of a word has as pivots
    all of the word's pivots but one, so ``meet_keys`` with that one pivot
    exclusive lists it, and lists it once."""
    pivots = [1 << b for b in range(view.n) if cid >> b & 1]
    seen = set()
    for i in members:
        keys = set().union(*(view.meet_keys(i, b) for b in pivots))
        if not seen.isdisjoint(keys):
            return True
        seen |= keys
    return False


def _meets(view, ours, x, others, y) -> bool:
    """Whether a word of ``ours`` and one of ``others`` share a subspace on
    their shared pivots; ``x`` and ``y`` are each side's exclusive pivots."""
    keys = set()
    for i in ours:
        keys |= view.meet_keys(i, x)
    return any(not keys.isdisjoint(view.meet_keys(j, y)) for j in others)
