import gc
import random
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes import codefile, distances

from subspacecodes.constructions import SubspaceCode, lift, lift_gabidulin, multilevel_fixture, puncture
from subspacecodes.errors import AmbientMismatch, TooFewCodewords
from subspacecodes.distances import (
    dim_intersection,
    distance_fast,
    distance_naive,
    hamming,
    min_distance,
)
from subspacecodes.fields import extension_view, make_field
from subspacecodes.matrices import MatGF, _rref_generic, gf2_rank, pack, rank, row_form, vconcat
from subspacecodes.packed import PackedCode, hyperplane_keys, meet_exponent
from subspacecodes.subspaces import (
    IdVector,
    Subspace,
    echelon_ferrers_shape,
    enumerate_grassmannian,
    fill_free_entries,
    from_span,
    identifying_vectors,
    literal_rows,
    zero_subspace,
)
from .conftest import brute_min_distance, coset_tables, random_subspace


def intersection_dim_oracle(u, w):
    """Definition-based: count elements of u lying in w (exhaustive)."""
    if u.k > w.k:
        u, w = w, u
    wrows = w.gen.entries
    spec = u.spec
    count = 0
    for vec in u.vectors():
        v = list(vec)
        for row, piv in zip(wrows, w.id_vector.support):
            c = v[piv]
            if c:
                v = [spec.sub(a, spec.mul(c, b)) for a, b in zip(v, row)]
        if not any(v):
            count += 1
    import math

    return round(math.log(count, spec.order)) if count > 1 else 0


def definition_distance(u, w):
    return u.k + w.k - 2 * intersection_dim_oracle(u, w)


def test_basic_examples(gf2):
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    w = from_span([(1, 0, 0, 0), (0, 1, 0, 1)], gf2, 4)
    x = from_span([(0, 0, 1, 0), (0, 0, 0, 1)], gf2, 4)
    assert distance_naive(u, u) == 0 == distance_fast(u, u)
    assert distance_naive(u, w) == 2 == distance_fast(u, w)
    assert dim_intersection(u, w) == 1
    assert distance_naive(u, x) == 4 == distance_fast(u, x)
    assert distance_naive(u, w) == definition_distance(u, w)


def test_ambient_mismatch(gf2, gf3):
    u = zero_subspace(gf2, 4)
    with pytest.raises(AmbientMismatch):
        distance_naive(u, zero_subspace(gf2, 5))
    with pytest.raises(AmbientMismatch):
        distance_fast(u, zero_subspace(gf3, 4))
    with pytest.raises(AmbientMismatch):
        min_distance([u, zero_subspace(gf2, 5)])
    with pytest.raises(AmbientMismatch):
        min_distance([u, zero_subspace(gf3, 4)])


def test_oracle_equivalence_exhaustive_g42(gf2):
    g = list(enumerate_grassmannian(4, 2, 2))
    for u in g:
        for w in g:
            d0 = definition_distance(u, w)
            assert distance_naive(u, w) == d0
            assert distance_fast(u, w) == d0


@pytest.mark.parametrize("q,n,trials", [(2, 6, 10_000), (3, 4, 10_000)])
def test_oracle_equivalence_random_projective(q, n, trials):
    spec = make_field(q, 1)
    rng = random.Random(20240809)
    for _ in range(trials):
        u = random_subspace(spec, n, rng)
        w = random_subspace(spec, n, rng)
        dn = distance_naive(u, w)
        assert distance_fast(u, w) == dn
    # the definition-based oracle is slower: spot-check a sample
    rng = random.Random(99)
    for _ in range(300):
        u = random_subspace(spec, n, rng)
        w = random_subspace(spec, n, rng)
        assert distance_naive(u, w) == definition_distance(u, w)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_oracle_equivalence_exhaustive_whole_projective_space(q, n):
    spec = make_field(q, 1)
    subs = []
    for k in range(n + 1):
        subs.extend(enumerate_grassmannian(n, k, q))
    for u in subs:
        for w in subs:
            assert distance_naive(u, w) == distance_fast(u, w)


def test_metric_axioms(gf2):
    rng = random.Random(8)
    for _ in range(10_000):
        u = random_subspace(gf2, 6, rng)
        w = random_subspace(gf2, 6, rng)
        x = random_subspace(gf2, 6, rng)
        duw = distance_fast(u, w)
        assert duw == distance_fast(w, u)
        assert duw >= 0
        assert (duw == 0) == (u == w)
        assert duw <= distance_fast(u, x) + distance_fast(x, w)


def test_hamming_lower_bound_and_parity(gf2):
    rng = random.Random(17)
    for _ in range(2000):
        u = random_subspace(gf2, 6, rng)
        w = random_subspace(gf2, 6, rng)
        d = distance_fast(u, w)
        h = hamming(u.id_vector.bits, w.id_vector.bits)
        assert d >= h
        assert (d - h) % 2 == 0


def test_rank_characterization_equal_dimension(gf2):
    # d = 2t exactly when the stacked rank is k + t, over all of G_2(4,2)
    g = list(enumerate_grassmannian(4, 2, 2))
    for u in g:
        for w in g:
            d = distance_fast(u, w)
            assert d % 2 == 0
            assert rank(vconcat(u.gen, w.gen)) == 2 + d // 2


def test_same_id_pairs_reduce_to_xor_rank(gf2):
    # for equal identifying vectors, d = 2 * rank(U - W)
    from subspacecodes.matrices import MatGF

    g = list(enumerate_grassmannian(5, 2, 2))
    for u in g:
        for w in g:
            if u.id_vector != w.id_vector:
                continue
            diff = MatGF(
                gf2,
                tuple(
                    tuple(a ^ b for a, b in zip(ru, rw))
                    for ru, rw in zip(u.gen.entries, w.gen.entries)
                ),
                cols=5,
            )
            assert distance_fast(u, w) == 2 * rank(diff)


def test_disjoint_pivots_no_shared_rows(gf2):
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    w = from_span([(0, 0, 1, 0), (0, 0, 0, 1)], gf2, 4)
    # L is empty: distance equals the identifying-vector Hamming distance
    assert distance_fast(u, w) == hamming(u.id_vector.bits, w.id_vector.bits) == 4


def test_zero_subspace_distances(gf2):
    z = zero_subspace(gf2, 5)
    u = from_span([(1, 0, 0, 0, 0)], gf2, 5)
    assert distance_fast(z, u) == 1 == distance_naive(z, u)
    assert distance_fast(z, z) == 0


def test_min_distance_two_lines(gf2):
    # any two distinct 1-dim subspaces of GF(2)^2 are at distance 2
    lines = [from_span([v], gf2, 2) for v in [(1, 0), (0, 1), (1, 1)]]
    assert min_distance(lines) == 2


def test_min_distance_matches_pairwise_loop(gf2, gf3):
    rng = random.Random(21)
    for spec, n in [(gf2, 5), (gf3, 4)]:
        words = []
        seen = set()
        while len(words) < 12:
            u = random_subspace(spec, n, rng)
            if u.key() not in seen:
                seen.add(u.key())
                words.append(u)
        brute = min(
            distance_naive(a, b)
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        )
        assert min_distance(words) == brute
    with pytest.raises(TooFewCodewords):
        min_distance([zero_subspace(gf2, 4)])


def test_fast_not_slower_than_naive_smoke(gf2):
    # wall-time smoke check at n=64, k=32: the identifying-vector route
    # must not lose to the naive stacked-rank route (min over repeats to
    # damp scheduler noise)
    import time

    rng = random.Random(64)
    pairs = [
        (random_subspace(gf2, 64, rng, k=32), random_subspace(gf2, 64, rng, k=32))
        for _ in range(30)
    ]

    def clock(fn):
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            for u, w in pairs:
                fn(u, w)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    t_fast = clock(distance_fast)
    t_naive = clock(distance_naive)
    assert t_fast <= t_naive


def pack_row(row_bits):
    v = 0
    for b in row_bits:
        v = (v << 1) | b
    return v


def test_pack_bit_order_and_width():
    assert pack((1, 1, 0, 0)) == 0b1100
    assert pack(()) == 0
    assert pack((0b101, 0b011), 3) == 0b101011
    assert pack((1,) + (0,) * 99) == 1 << 99


def test_gf2_rank_against_generic(gf2):
    rng = random.Random(1)
    for _ in range(300):
        nrows = rng.randrange(0, 8)
        ncols = rng.randrange(1, 12)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        want = rank(MatGF(gf2, rows, cols=ncols))
        assert gf2_rank([pack_row(r) for r in rows]) == want


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_n64_boundary(gf2, n):
    # rows are Python ints, so no word size limits n
    rng = random.Random(4)
    rows = [[rng.randrange(2) for _ in range(n)] for _ in range(32)]
    rows.append([a ^ b for a, b in zip(rows[0], rows[1])])
    want = rank(MatGF(gf2, rows, cols=n))
    assert gf2_rank([pack_row(r) for r in rows]) == want


@pytest.mark.parametrize(
    "name,q,puncture_at",
    [("w5k2", 2, None), ("w6k3", 2, None), ("w5k2", 3, None), ("w6k3", 2, (0, 0, 1, 0, 0, 1))],
)
def test_min_distance_bundled_codes_against_pair_scan(name, q, puncture_at):
    spec = make_field(q, 1)
    code = multilevel_fixture(name, spec)
    if puncture_at is not None:
        code = puncture(code, puncture_at)
        assert len(code) == 18
    assert min_distance(code) == brute_min_distance(code.words)
    assert min_distance(list(code.words)) == code.dmin


def _word_from_free(v, free, spec):
    """The subspace with identifying vector v and these free entries (row-major)."""
    shape = echelon_ferrers_shape(v)
    it = iter(free)
    rows = []
    for r, p in enumerate(v.support):
        row = [0] * v.n
        row[p] = 1
        for c in shape.free_positions[r]:
            row[c] = next(it)
        rows.append(row)
    return Subspace(spec, v.n, MatGF(spec, rows, cols=v.n))


def _span_vectors(gens, spec):
    """Every combination of the vectors ``gens`` (at least one), by field
    arithmetic."""
    out = set()
    for coeffs in product(range(spec.order), repeat=len(gens)):
        terms = [[spec.mul(c, x) for x in g] for c, g in zip(coeffs, gens)]
        out.add(tuple(reduce(spec.add, column) for column in zip(*terms)))
    return out


def _structured_class(v, kind, spec, rng):
    """Words with identifying vector v whose free entries form a linear
    space, an affine coset of one, or a set that is neither, by the field's
    arithmetic."""
    q = spec.order
    dots = echelon_ferrers_shape(v).dot_count
    if kind == "noncoset":
        size = rng.choice([s for s in range(3, min(q**dots, 7) + 1) if s not in (q, q * q)])
        fills = set()
        while len(fills) < size:
            fills.add(tuple(rng.randrange(q) for _ in range(dots)))
    else:
        gens = [[rng.randrange(q) for _ in range(dots)] for _ in range(rng.randrange(1, 3))]
        fills = _span_vectors(gens, spec)
        if kind == "coset":
            offset = [rng.randrange(q) for _ in range(dots)]
            fills = {tuple(map(spec.add, f, offset)) for f in fills}
    words = [_word_from_free(v, f, spec) for f in sorted(fills)]
    rng.shuffle(words)
    return words


@pytest.mark.parametrize("q", [2, 3])
def test_min_distance_structured_random_codes_against_pair_scan(q):
    # classes that are linear, affine cosets and neither, of mixed dimensions
    spec = make_field(q, 1)
    rng = random.Random(100 + q)
    n = 6
    kinds_seen = {"linear": 0, "coset": 0, "noncoset": 0}
    cosets_found = 0
    for trial in range(40):
        ids = rng.sample([v for k in range(1, n) for v in identifying_vectors(n, k)], 4)
        words = []
        for v in ids:
            dots = echelon_ferrers_shape(v).dot_count
            if dots == 0:
                words.append(_word_from_free(v, (), spec))
                continue
            kind = rng.choice(list(kinds_seen))
            if kind == "noncoset" and q**dots <= 3:
                kind = "coset"  # every set of 2 or 3 such words is a coset
            kinds_seen[kind] += 1
            words.extend(_structured_class(v, kind, spec, rng))
        words.extend(random_subspace(spec, n, rng) for _ in range(3))
        words = list({w.key(): w for w in words}.values())
        rng.shuffle(words)
        if len(words) < 2:
            continue
        code = SubspaceCode(spec, n, words)
        assert min_distance(code) == brute_min_distance(words), trial
        _, minima = coset_tables(code.packed)
        for cid, members in code.packed.classes.items():
            if len(members) > 1 and cid in minima:
                cosets_found += 1
                assert minima[cid] == code.packed.scan_pairs(members)
    assert all(kinds_seen.values()) and cosets_found and len({w.k for w in words}) > 1


def test_coset_test_rejects_non_cosets(gf2, gf3):
    for spec in (gf2, gf3):
        v = IdVector((1, 0, 0, 0, 1, 0))
        rng = random.Random(spec.order)
        linear = _structured_class(v, "linear", spec, rng)
        view = PackedCode.of_words(spec, 6, linear)
        (cid,) = view.classes
        assert cid in coset_tables(view)[1]
        odd = _structured_class(v, "noncoset", spec, rng)
        view = PackedCode.of_words(spec, 6, odd)
        (cid,) = view.classes
        assert cid not in coset_tables(view)[1]


def _affine(spec, offset, gens) -> list:
    """offset + sum c_j gens[j] over every coefficient tuple c, by field
    arithmetic, without repeats."""
    out = []
    for coeffs in product(range(spec.order), repeat=len(gens)):
        v = list(offset)
        for c, g in zip(coeffs, gens):
            v = [spec.add(a, spec.mul(c, b)) for a, b in zip(v, g)]
        out.append(tuple(v))
    return list(dict.fromkeys(out))


def _is_coset_by_definition(spec, words) -> bool:
    """Whether the words' differences G_i - G_0, flattened, are distinct and
    number q^rank, ranked by the generic elimination."""
    g0 = [x for row in words[0].gen.entries for x in row]
    diffs = [[spec.sub(x, y) for x, y in zip((x for row in w.gen.entries for x in row), g0)] for w in words]
    distinct = {tuple(d) for d in diffs}
    return len(distinct) == len(words) == spec.order ** _rref_generic(spec, diffs, len(g0))[0]


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2)])
def test_coset_verdict_agrees_with_the_definition(q, m):
    # seeded classes of one identifying vector (6 free entries): cosets of
    # every dimension, q^r distinct words that are no coset (a coset with one
    # word swapped out, and random sets), sizes that are not a power of q,
    # and a coset with a repeated word
    spec = make_field(q, m)
    q, v = spec.order, IdVector((1, 0, 0, 1, 0, 0))
    dots = echelon_ferrers_shape(v).dot_count
    rng = random.Random(1000 * q + m)
    vec = lambda: tuple(rng.randrange(q) for _ in range(dots))  # noqa: E731
    kinds = ("coset", "swapped", "random", "odd size", "repeated")
    for trial in range(60):
        kind = kinds[trial % len(kinds)]
        fills = _affine(spec, vec(), [vec() for _ in range(rng.randrange(4))])
        if kind == "swapped":
            # one word of a coset of at least 3 swapped for one outside it: two
            # cosets of one size cannot share all but one word
            while len(fills) < 3:
                fills = _affine(spec, vec(), [vec() for _ in range(3)])
            outside = next(f for f in iter(vec, None) if f not in fills)
            fills[rng.randrange(1, len(fills))] = outside
        elif kind == "random":  # as many distinct words as the coset had
            fills = list({vec() for _ in range(4 * len(fills))})[: len(fills)]
        elif kind == "odd size":
            size = rng.choice([s for s in range(2, 10) if s not in (q, q * q, q**3)])
            fills = list({vec() for _ in range(4 * size)})[:size]
        elif kind == "repeated":
            fills.insert(rng.randrange(len(fills) + 1), rng.choice(fills))
        rng.shuffle(fills)
        words = [_word_from_free(v, f, spec) for f in fills]
        view = PackedCode.of_words(spec, v.n, words)
        (cid,) = view.classes
        want = _is_coset_by_definition(spec, words)
        cosets, minima = coset_tables(view)
        assert (cid in minima) == want, (kind, fills)
        assert want == (kind == "coset") or kind == "random", kind
        if want:
            basis, by_coords = cosets[cid]
            assert sorted(by_coords) == list(range(len(words))) and q ** len(basis) == len(words)
        elif kind == "repeated":
            assert cosets[cid] is None
        else:
            assert cid not in cosets


def _check_coset_minima(code, monkeypatch) -> dict:
    """The coset minima (``coset_tables``) of a code whose classes are all
    cosets, against 2 min rank(G_i - G_0) with every difference ranked by
    the generic elimination, and against the pair scan on classes of up to
    64 words.  Its rank calls are pinned too: none for the coset test, none
    when a difference has rank 1, and otherwise one per difference in class
    order up to the first of rank 2, or every one when none has rank 2.
    Returns the minima."""
    spec, n = code.spec, code.n
    view, words = PackedCode(spec, n, code.ids, code.rows), code.words
    want, calls_wanted = {}, 0
    for cid, members in view.classes.items():
        if len(members) == 1:
            want[cid] = None
            continue
        g0 = words[members[0]].gen.entries
        ranks = [
            _rref_generic(spec, [list(map(spec.sub, x, y)) for x, y in zip(words[i].gen.entries, g0)], n)[0]
            for i in members[1:]
        ]
        want[cid] = 2 * min(ranks)
        calls_wanted += 0 if 1 in ranks else ranks.index(2) + 1 if 2 in ranks else len(ranks)
        if len(members) <= 64:
            assert brute_min_distance([words[i] for i in members]) == want[cid]
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(view.form, "rank", lambda rows, rank=view.form.rank: calls.append(rows) or rank(rows))
        assert coset_tables(view)[1] == want
    assert len(calls) == calls_wanted
    return want


def test_coset_minima_stop_at_a_rank_one_difference(monkeypatch):
    # lifted span(B1, B2), B2 of rank 1 and the more significant coefficient,
    # so the class's first q - 1 differences have rank 2 and its q-th rank 1:
    # the screen finds it, and nothing is ranked
    for q, m in ((2, 1), (3, 1), (2, 2)):
        spec = make_field(q, m)
        b1, b2 = ((1, 0, 0), (0, 1, 0)), ((0, 0, 1), (0, 0, 1))
        mats = [[[spec.add(spec.mul(a, x), spec.mul(b, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)]
                for b, a in product(range(spec.order), repeat=2)]
        code = lift(mats, spec)
        assert list(_check_coset_minima(code, monkeypatch).values()) == [2]
        assert min_distance(code) == 2 == brute_min_distance(code.words)


@pytest.mark.parametrize("fixture,q,m", [("w8k4", 2, 1), ("w6k3", 2, 1), ("w6k3", 3, 1), ("w5k2", 2, 2)])
def test_coset_minima_of_the_mrd_classes(fixture, q, m, monkeypatch):
    # every class of a multilevel code is a lifted Ferrers-diagram code of
    # rank distance 2, so ranking stops at the first difference of rank 2
    code = multilevel_fixture(fixture, make_field(q, m))
    minima = _check_coset_minima(code, monkeypatch)
    assert {d for d in minima.values() if d is not None} == {4}


def test_coset_minima_of_lifted_gabidulin_rank_every_difference(monkeypatch):
    # rank distance 3 (d = 6): no difference reaches the floor of 2, so
    # every one is ranked, as before the stop
    for q, m in ((2, 1), (3, 1), (2, 2)):
        code = lift_gabidulin(extension_view(make_field(q, m), 3), 3, 3)
        assert list(_check_coset_minima(code, monkeypatch).values()) == [6]


def test_min_distance_counts_repeated_words(gf2):
    # a repeated word is at distance 0; its class must not pass for a coset
    v = IdVector((1, 0, 0, 1, 0, 0))
    u, w, x = (_word_from_free(v, free, gf2) for free in ((0,) * 6, (1,) + (0,) * 5, (0,) * 5 + (1,)))
    assert min_distance([u, w, x]) == 2
    assert min_distance([u, w, w, x]) == 0 == brute_min_distance([u, w, w, x])


def test_min_distance_beyond_64_columns(gf2):
    # a GF(2) code with n > 64: classes of lifted words plus random words
    rng = random.Random(70)
    n = 70
    words = {}
    for pivots in ((0, 1, 2), (0, 1, 3), (5,)):
        v = IdVector.from_support(n, pivots)
        dots = echelon_ferrers_shape(v).dot_count
        base = [rng.randrange(2) for _ in range(dots)]
        for _ in range(6):
            free = list(base)
            for _ in range(2):
                free[rng.randrange(dots)] ^= 1
            w = _word_from_free(v, free, gf2)
            words[w.key()] = w
    while len(words) < 30:
        w = random_subspace(gf2, n, rng, k=rng.randrange(1, 4))
        words[w.key()] = w
    words = list(words.values())
    rng.shuffle(words)
    want = brute_min_distance(words)
    assert min_distance(words) == want == min_distance(SubspaceCode(gf2, n, words))
    assert want <= 4  # the flipped classes give close pairs


def _row_key(spec, rows):
    """Rows as a PackedCode stores them: packed ints over GF(2), else tuples."""
    return tuple(pack(r) if spec.order == 2 else tuple(r) for r in rows)


def _brute_keys(u, shared, grassmannians):
    """The key of every X inside u whose pivots are ``shared``, by filtering
    the whole Grassmannian; ``grassmannians`` caches its subspaces by
    (n, k) and then by pivots."""
    spec, n = u.spec, u.n
    at = (n, len(shared))
    if at not in grassmannians:
        grassmannians[at] = {}
        for x in enumerate_grassmannian(n, len(shared), spec.order):
            grassmannians[at].setdefault(x.id_vector.support, []).append(x)
    return [
        _row_key(spec, x.gen.entries)
        for x in grassmannians[at].get(shared, [])
        if all(u.contains(row) for row in x.gen.entries)
    ]


@pytest.mark.parametrize("q,sizes", [(2, range(1, 7)), (3, range(1, 6))])
def test_class_keys_against_brute_force(q, sizes):
    # one-word views: every X inside U whose pivots are U's pivots outside
    # I, by filtering the whole Grassmannian
    spec = make_field(q, 1)
    rng = random.Random(20 + q)
    grassmannians = {}
    checked = several = 0
    for n in sizes:
        for _ in range(3 if q == 2 else 2):
            u = random_subspace(spec, n, rng, k=rng.randrange(1, min(n, 4) + 1))
            view = PackedCode.of_words(spec, n, [u])
            pivots = u.id_vector.support
            for r in range(len(pivots) + 1):
                for excl in combinations(pivots, r):
                    shared = tuple(p for p in pivots if p not in excl)
                    want = _brute_keys(u, shared, grassmannians)
                    mask_i, mask_s = (pack(IdVector.from_support(n, c).bits) for c in (excl, shared))
                    got = list(view.class_keys(view.ids[0], mask_i))
                    assert sorted(got) == sorted(want), (u, excl)
                    assert len(got) == q ** meet_exponent(mask_s, mask_i)
                    checked += 1
                    several += len(got) > 1
    assert checked > 50 and several > 10


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_class_keys_on_multi_word_classes(p, m):
    # the keys of a whole class, as a multiset, are its words' brute-force
    # key lists put together, on the first call and on a second one; GF(4)
    # is not a prime field, and its multiples come from the field's tables
    spec = make_field(p, m)
    q = spec.order
    rng = random.Random(40 + q)
    grassmannians = {}
    checked = several = 0
    for n in (3, 4, 5):
        for v in identifying_vectors(n, rng.randrange(1, n)):
            dots = echelon_ferrers_shape(v).dot_count
            if not dots:
                continue
            words = list({
                w.key(): w for w in (_word_from_free(v, [rng.randrange(q) for _ in range(dots)], spec) for _ in range(5))
            }.values())
            view = PackedCode.of_words(spec, n, words)
            (cid,) = view.classes
            pivots = v.support
            for r in range(len(pivots) + 1):
                for excl in combinations(pivots, r):
                    shared = tuple(c for c in pivots if c not in excl)
                    want = [key for w in words for key in _brute_keys(w, shared, grassmannians)]
                    mask = pack(IdVector.from_support(n, excl).bits)
                    got = list(view.class_keys(cid, mask))
                    assert sorted(got) == sorted(want), (words, excl)
                    # again, on the slots the view kept from an earlier call
                    assert sorted(view.class_keys(cid, mask)) == sorted(got), (words, excl)
                    checked += 1
                    several += len(words) > 1 and len(got) > len(words)
    assert checked > 30 and several > 10


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_hyperplane_keys_against_brute_force(p, m):
    # the keys of a batch of words of one dimension, drawn from up to three
    # identifying vectors at once, as a multiset, are the (k-1)-subspaces
    # inside each word, found by filtering the whole Grassmannian,
    # (q^k - 1)/(q - 1) per word; dimensions 0 and 1 (no hyperplane, and
    # the zero space) are among them, and GF(4) is not a prime field
    spec = make_field(p, m)
    q = spec.order
    rng = random.Random(80 + q)
    grassmannians = {}
    checked = mixed = 0
    for n in (2, 3, 4, 5):
        for k in range(n + 1):
            forms = list(identifying_vectors(n, k))
            words = []
            for v in rng.sample(forms, min(3, len(forms))):
                dots = echelon_ferrers_shape(v).dot_count
                fills = ([rng.randrange(q) for _ in range(dots)] for _ in range(3))
                words += {w.key(): w for w in (_word_from_free(v, f, spec) for f in fills)}.values()
            rng.shuffle(words)
            want = [
                key
                for w in words
                for dropped in w.id_vector.support
                for key in _brute_keys(w, tuple(c for c in w.id_vector.support if c != dropped), grassmannians)
            ]
            got = list(hyperplane_keys(row_form(spec, n), [w.rows for w in words]))
            assert sorted(got) == sorted(want), words
            assert len(got) == len(words) * (q**k - 1) // (q - 1)
            checked += 1
            mixed += k > 1 and len({w.id_vector.support for w in words}) > 1
    assert checked == 18 and mixed == 6


@pytest.mark.parametrize("q", [2, 3])
def test_class_pair_join_either_side_hashed(q):
    # on seeded random class pairs, the join gives the same answer whichever
    # side's keys are hashed, and it says whether some pair is at d = h
    rng = random.Random(60 + q)
    outcomes = []
    for _ in range(30):
        n = rng.randrange(4, 7)
        words = _join_code(q, n, rng)
        view = PackedCode.of_words(words[0].spec, n, words)
        for a, b in combinations(view.classes, 2):
            h = (a ^ b).bit_count()
            if h > 2:
                continue
            x, y = a & ~b, b & ~a
            hit = distances._meets(view, (a, x), (b, y))
            assert distances._meets(view, (b, y), (a, x)) == hit
            pairs = product(view.classes[a], view.classes[b])
            assert hit == any(distance_naive(words[i], words[j]) == h for i, j in pairs)
            outcomes.append(hit)
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def _subspace_on(u, pivots, rng):
    """A random subspace of u with the given pivots (a subset of u's): for
    each p, u's row at p plus a random combination of u's later rows."""
    spec, rows = u.spec, u.gen.entries
    at = {p: i for i, p in enumerate(u.id_vector.support)}
    vecs = []
    for p in pivots:
        vec = list(rows[at[p]])
        for row in rows[at[p] + 1 :]:
            c = rng.randrange(spec.order)
            vec = [spec.add(a, spec.mul(c, b)) for a, b in zip(vec, row)]
        vecs.append(vec)
    return vecs


def _join_code(q, n, rng):
    """Classes of one identifying vector a and, beside each, a class with a
    pivot of a dropped (h = 1) or moved to a column outside a (h = 2).  A
    word of the second class either shares a subspace on the shared pivots
    with a word of the first (d = h) or is at d >= h + 2 from all of them.
    Words of one class are at distance >= ``far``; with far = 4 the class
    pairs at h = 2 are reached, and misses at h = 1 must be scanned."""
    spec = make_field(q, 1)
    far = rng.choice([2, 4])

    def grow(make, count):
        out = []
        for _ in range(4 * count):
            w = make()
            if w is not None and all(distance_naive(w, x) >= far for x in out):
                out.append(w)
            if len(out) == count:
                break
        return out

    def free_word(v):
        dots = echelon_ferrers_shape(v).dot_count
        return fill_free_entries(v, [rng.randrange(q) for _ in range(dots)], spec)

    words = {}
    for _ in range(rng.randrange(1, 3)):
        while True:  # forms with room for several words in each class
            a = sorted(rng.sample(range(n), rng.randrange(2, n)))
            drop = rng.choice(a)
            shared = [p for p in a if p != drop]
            moved = rng.choice([None] + [c for c in range(n) if c not in a])
            va = IdVector.from_support(n, a)
            vb = IdVector.from_support(n, shared + ([moved] if moved is not None else []))
            if min(echelon_ferrers_shape(v).dot_count for v in (va, vb)) >= 2:
                break
        parents = grow(lambda: free_word(va), rng.randrange(2, 9))
        h = 1 if moved is None else 2
        plant = rng.choice([0.0, 0.0, 0.2, 0.5])

        def child():
            if rng.random() < plant:
                vecs = _subspace_on(rng.choice(parents), shared, rng)
                if moved is not None:
                    vecs.append([0] * moved + [1] + [rng.randrange(q) for _ in range(n - moved - 1)])
                w = from_span(vecs, spec, n)
                assert w.id_vector == vb
                return w
            w = free_word(vb)
            return w if all(distance_naive(w, u) >= h + 2 for u in parents) else None

        for w in parents + grow(child, rng.randrange(2, 9)):
            words[w.key()] = w
    words = list(words.values())
    rng.shuffle(words)
    return words


@pytest.fixture
def join_outcomes(monkeypatch):
    """The result of every join that min_distance runs, in order."""
    outcomes = []
    meets = distances._meets

    def spy(*args):
        outcomes.append(meets(*args))
        return outcomes[-1]

    monkeypatch.setattr(distances, "_meets", spy)
    return outcomes


@pytest.fixture
def sieve_outcomes(monkeypatch):
    """The result of every sieve that min_distance runs, in order: 0, 1 or
    2, or None when it shows no close pair."""
    outcomes = []
    sieve = distances._sieve

    def spy(*args):
        outcomes.append(sieve(*args))
        return outcomes[-1]

    monkeypatch.setattr(distances, "_sieve", spy)
    return outcomes


@pytest.fixture
def floors(monkeypatch):
    """The floor passed to every ``PackedCode.nearest`` call, in order."""
    floors, nearest = [], PackedCode.nearest

    def spy(self, qid, qrows, candidates, best=None, floor=0):
        floors.append(floor)
        return nearest(self, qid, qrows, candidates, best, floor)

    monkeypatch.setattr(PackedCode, "nearest", spy)
    return floors


def test_min_distance_joins_against_pair_scan(sieve_outcomes):
    # mixed-dimension codes over GF(2) and GF(3) built of near pairs (h = 1,
    # or h = 2 with one dimension), which the sieve settles; a word of one
    # class inside a word of the other (d = h = 1) and no pair at d <= 2
    # must both occur
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(4, 6), st.integers(0, 2**32))
    def check(q, n, seed):
        words = _join_code(q, n, random.Random(seed))
        if len(words) >= 2:
            assert min_distance(words) == brute_min_distance(words)

    check()
    assert sieve_outcomes.count(1) >= 5 and sieve_outcomes.count(None) >= 5


def _words(spec, n, literals):
    return [Subspace.from_rows(spec, n, literal_rows(lit, spec, n)) for lit in literals]


def test_join_hit_needs_the_exclusive_rows(gf2, sieve_outcomes):
    # x_0 = u_0 + u_1 lies in U1 and U2 and is a word of B, so d = h = 1;
    # the sieve lists the hyperplane 1101 of A's words only as u_0 + c u_1,
    # the variant of row 0 by the dropped row 1
    a = _words(gf2, 4, ["1000;0100", "1001;0100", "1010;0111"])
    b = _words(gf2, 4, ["1101", "1011", "1111"])
    assert min_distance(a + b) == 1 == brute_min_distance(a + b)
    assert sieve_outcomes == [1]


def test_join_miss_scans_when_best_exceeds_h_plus_2(gf2, sieve_outcomes, floors):
    # classes of distance 4 inside, h = 1 between; no word of B lies in a
    # word of A, but pairs at d = 3 do, so the sieve's miss must fall back
    # to the scan at the floor h + 2 = 3, which its first pair meets
    a = _words(gf2, 6, ["100000;010000;001000", "100111;010011;001000"])
    b = _words(gf2, 6, ["010100;001000", "010010;001001"])
    assert min_distance(a + b) == 3 == brute_min_distance(a + b)
    assert sieve_outcomes == [None] and floors == [3]


def test_near_class_minima_are_taken_when_they_can_matter(gf2, gf3, sieve_outcomes, floors):
    # the sieve leaves a near class only the lower bound 4, so its minimum
    # is taken once an upper bound can still change the answer.  Before a
    # scan at floor 4: two classes at h = 2 of one dimension, each of
    # minimum 4, their words 4 or 6 apart; the classes' minima give 4, and
    # the pair is not scanned
    a = _words(gf2, 6, ["100000;010000;001000", "100110;010011;001000"])
    b = _words(gf2, 6, ["100001;011000;000111", "100001;011010;000100"])
    assert min_distance(a + b) == 4 == brute_min_distance(a + b)
    assert sieve_outcomes == [None] and floors == []
    # at the end: a two-word class of minimum 4 at h = 1 from a word 5 from
    # both of its words; the scan at floor 3 leaves the best at 5, above 4,
    # so the class's minimum is taken: by its coset minimum over GF(2), and
    # over GF(3), where two words are never a coset, by a scan at floor 4
    for spec, literals in (
        (gf2, ["100101;010010;001011", "100001;010110;001001", "010000;001010"]),
        (gf3, ["100201;010101;001000", "100221;010000;001000", "010001;001102"]),
    ):
        floors.clear()
        words = _words(spec, 6, literals)
        assert min_distance(words) == 4 == brute_min_distance(words)
        assert floors[0] == 3 and floors[1:] == [4] * (spec.order == 3)


def test_gf3_w6k3_shortening_against_pair_scan(gf3):
    code = puncture(multilevel_fixture("w6k3", gf3), (0, 0, 1, 0, 0, 1))
    ids = code.packed.ids
    assert len(code) == 56
    assert sum((x ^ y).bit_count() == 1 for x, y in combinations(ids, 2)) == 729
    assert min_distance(code) == brute_min_distance(code.words)


@pytest.mark.parametrize(
    "name,q,v,add_trivial,size",
    [("w8k4", 2, "01010011", False, 562), ("w6k3", 3, "002012", True, 58), ("w7k3", 3, "0001001", False, 261)],
)
def test_shortenings_the_join_settles_against_pair_scan(name, q, v, add_trivial, size, sieve_outcomes, join_outcomes):
    # shortenings with near pairs, which the sieve settles, and in the
    # 58-word code class pairs at h = 2 two dimensions apart, which only the
    # join can settle: its d = 2 is a word inside another at codimension 2
    code = puncture(multilevel_fixture(name, make_field(q, 1)), tuple(map(int, v)), add_trivial=add_trivial)
    assert len(code) == size
    d = min_distance(code)
    assert d == brute_min_distance(code.words)
    assert sieve_outcomes == [None] and join_outcomes == [True] * (d == 2)


def _sieve_code(q, rng):
    """Random words of mixed dimensions, and up to two words planted beside
    them: a repeat, a hyperplane of a word (codimension 1), a subspace of a
    word at codimension 2, or a word sharing a hyperplane with another."""
    spec = make_field(q, 1)
    n = rng.randrange(5, 8)
    words = [random_subspace(spec, n, rng, k=rng.randrange(2, n)) for _ in range(rng.randrange(2, 7))]
    words = list({w.key(): w for w in words}.values())
    for _ in range(rng.randrange(3)):
        u = rng.choice(words)
        pivots = list(u.id_vector.support)
        kind = rng.choice(["repeat", "codim 1", "codim 1", "codim 2", "codim 2", "shared", "shared", "shared"])
        if kind == "repeat":
            words.append(u)
        elif kind == "codim 2" and len(pivots) >= 2:
            for _ in range(2):
                pivots.remove(rng.choice(pivots))
            words.append(from_span(_subspace_on(u, pivots, rng), spec, n))
        elif pivots:
            pivots.remove(rng.choice(pivots))
            rows = _subspace_on(u, pivots, rng)
            if kind == "shared":
                rows.append([rng.randrange(q) for _ in range(n)])
            words.append(from_span(rows, spec, n))
    rng.shuffle(words)
    return spec, n, words


def test_sieve_against_the_definition():
    # the sieve over every class of mixed-dimension codes: the least of 0
    # for a repeated word, 1 for a word that is a hyperplane of another and
    # 2 for two words of one dimension at distance 2, by distance_naive over
    # every pair, or None; a subspace at codimension 2 is left to the rest
    # of min_distance, which must still agree with the definition
    seen = {0: 0, 1: 0, 2: 0, None: 0, "codim 2": 0}

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32))
    def check(q, seed):
        spec, n, words = _sieve_code(q, random.Random(seed))
        if len(words) < 2:
            return
        close = [
            d
            for u, w in combinations(words, 2)
            if (d := distance_naive(u, w)) < 2 or d == 2 and u.k == w.k
        ]
        want = min(close, default=None)
        view = PackedCode.of_words(spec, n, words)
        assert distances._sieve(view, list(view.classes)) == want
        assert min_distance(words) == brute_min_distance(words)
        seen[want] += 1
        codim_2 = any(distance_naive(u, w) == 2 == abs(u.k - w.k) for u, w in combinations(words, 2))
        seen["codim 2"] += codim_2 and want is None

    check()
    assert all(count >= 10 for count in seen.values()), seen


def _shortened_w8k4(spec):
    """The 573-word shortening of the puncture-aligned w8k4 code."""
    return puncture(
        multilevel_fixture("w8k4", spec, puncture_aligned=True), (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True
    )


def test_shortened_w8k4_against_flat_scan(gf2):
    # the 573-word shortening: the class step and the join against the
    # scan of all 163,878 pairs
    code = _shortened_w8k4(gf2)
    assert len(code) == 573
    view = code.packed
    assert min_distance(code) == view.scan_pairs(range(len(code))) == 3


def _far_class(v, spec, rng, count):
    """Up to ``count`` words with identifying vector v, pairwise at distance
    at least 4, each with its free entries."""
    q, dots = spec.order, echelon_ferrers_shape(v).dot_count
    out = []
    for _ in range(8 * count):
        free = [rng.randrange(q) for _ in range(dots)]
        w = _word_from_free(v, free, spec)
        if all(distance_naive(w, x) >= 4 for x, _ in out):
            out.append((w, free))
        if len(out) == count:
            break
    return out


def _in_class_code(q, rng):
    """Words of mixed dimensions, in classes that are mostly not cosets.

    Each class's words are at distance >= 4 from each other, except a
    planted pair at distance 2 (one free entry changed, so G_U - G_W has
    rank 1) in some classes; some codes repeat a word, and some add random
    words of any dimension."""
    spec = make_field(q, 1)
    n = rng.randrange(5, 8)
    forms = [v for k in range(2, n - 1) for v in identifying_vectors(n, k) if echelon_ferrers_shape(v).dot_count >= 4]
    words = []
    for v in rng.sample(forms, rng.randrange(1, 4)):
        cls = _far_class(v, spec, rng, rng.randrange(2, 7))
        if rng.random() < 0.4:
            _, free = rng.choice(cls)
            free = list(free)
            at = rng.randrange(len(free))
            free[at] = (free[at] + rng.randrange(1, q)) % q
            cls.append((_word_from_free(v, free, spec), free))
        words += [w for w, _ in cls]
    words += [random_subspace(spec, n, rng) for _ in range(rng.choice([0, 0, 1, 3]))]
    words = list({w.key(): w for w in words}.values())
    if rng.random() < 0.2:
        words.append(rng.choice(words))
    rng.shuffle(words)
    return spec, n, words


@pytest.fixture
def class_outcomes(monkeypatch, sieve_outcomes):
    """Every sieve's result, and the bound passed to every scan of a
    deferred class, in order."""
    scans = []
    scan_pairs = PackedCode.scan_pairs

    def scan_spy(self, members, best=None, floor=0):
        scans.append(best)
        return scan_pairs(self, members, best, floor)

    monkeypatch.setattr(PackedCode, "scan_pairs", scan_spy)
    return sieve_outcomes, scans, scan_pairs


def test_min_distance_in_class_joins_against_pair_scans(class_outcomes):
    # non-coset classes over GF(2) and GF(3), with and without a planted
    # pair at distance 2, repeated words and mixed dimensions: min_distance
    # against the definition and the flat scan of every pair; the sieve
    # must both find a close pair and find none
    joins, scans, scan_pairs = class_outcomes
    seen = {"noncoset": 0, "repeated": 0, "mixed": 0}

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32))
    def check(q, seed):
        spec, n, words = _in_class_code(q, random.Random(seed))
        if len(words) < 2:
            return
        want = brute_min_distance(words)
        view = PackedCode.of_words(spec, n, words)
        assert min_distance(words) == want == scan_pairs(view, range(len(words)))
        seen["noncoset"] += sum(len(m) > 1 and cid not in coset_tables(view)[1] for cid, m in view.classes.items())
        seen["repeated"] += want == 0
        seen["mixed"] += len({w.k for w in words}) > 1

    check()
    assert all(count >= 5 for count in seen.values()), seen
    assert joins.count(None) >= 10 and len(joins) - joins.count(None) >= 10
    # misses deferred and scanned (a scan under a best above 4 is pinned by
    # the next test)
    assert scans.count(None) >= 3, scans


def test_min_distance_scans_a_deferred_class_to_its_minimum_six(class_outcomes):
    # words of a lifted Gabidulin code (n = 6, k = 3, pairwise distance 6)
    # that are not a coset, and their complement span(e_3, e_4, e_5), which
    # is at distance 6 from each: the sieve misses, and the class's lower
    # bound 4 must not end the class-pair loop, whose only pair is at h = 6;
    # that pair sets the best to 6, so the deferred class is then scanned
    joins, scans, _ = class_outcomes
    for q, size in ((2, 3), (2, 5), (3, 2), (3, 4)):
        spec = make_field(q, 1)
        lifted = lift_gabidulin(extension_view(spec, 3), 3, 3)
        complement = Subspace(spec, 6, MatGF(spec, [[int(i == j) for i in range(6)] for j in (3, 4, 5)]))
        words = [*lifted.words[1 : size + 1], complement]
        assert brute_min_distance(words) == 6
        joins.clear()
        scans.clear()
        assert min_distance(words) == 6 == min_distance(SubspaceCode(spec, 6, words))
        assert joins == [None, None] and scans == [6, 6]


def test_min_distance_in_class_join_hit_and_repeat(gf2, gf3, class_outcomes):
    # three words of one non-coset class: w and x share the hyperplane
    # spanned by their common first row, u is at distance 4 from both; the
    # class is near no other, so its coset analysis runs first
    joins, _, _ = class_outcomes
    v = IdVector((1, 1, 0, 0, 0))
    u, w, x = (_word_from_free(v, free, gf2) for free in ((0, 0, 0, 0, 0, 0), (1, 1, 0, 1, 0, 1), (1, 1, 0, 1, 1, 1)))
    assert pack(v.bits) not in coset_tables(PackedCode.of_words(gf2, 5, [u, w, x]))[1]
    assert min_distance([u, w, x]) == 2 == brute_min_distance([u, w, x])
    assert joins == [2]
    # a repeated word is found by the coset analysis, and nothing is sieved
    assert min_distance([u, w, u, x]) == 0 == brute_min_distance([u, w, u, x])
    assert joins == [2]
    # two GF(3) words of one class are never a coset
    a, b = (_word_from_free(v, free, gf3) for free in ((0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)))
    assert min_distance([a, b]) == 2 and joins == [2, 2]


def test_shortened_w8k4_verify_rank_calls(gf2, monkeypatch):
    # one load and verify of the 573-word shortening, as the CLI and the
    # certify workload run it: 3 rank calls, so no class pair the sieve
    # settles can move back to the scan, no near class's coset minimum can
    # be taken while the best is at most 4, no coset minimum can rank past
    # its floor, no coset test can rank and no scan can go on past a pair at
    # its floor, unnoticed.  The 5 classes near no other have their minima
    # at once (2 of them cosets of two or more words, each a rank-2
    # difference the screen cannot settle); the smallest class pair at
    # h = 1, a 2-word and a 1-word class, gives d = 3 at its first ranked
    # pair, its floor.  The count was 15 when every class had its coset
    # minimum at once and the near pairs were joined in first-seen order
    # (14 ranked differences and 1 ranked pair), 16 when a class pair's scan
    # ranked all its pairs after one at d = h, 33 when
    # each coset test ranked the class's differences, 577 when each coset
    # class ranked every difference and a key weighed a quarter of a ranked pair, 2,362
    # when a key weighed as much as a ranked pair, 12,534 without the
    # in-class join, and 91,542 with no class pair joined.  Over GF(2) the
    # join keys take each class's row columns as they are
    # (``RowForm.scaled``), so no row is scaled on its own, as ``combine``
    # of one row would (4,482 calls of the former ``multiples`` when each
    # later exclusive slot scaled its rows one by one), and the coset
    # analysis takes its basis by span lookups, which scale no row over
    # GF(2) either.
    code = _shortened_w8k4(gf2)
    text = codefile.dumps_code(code)
    calls, combined = [], []
    form = row_form(gf2, code.n)  # the row form the code's view ranks with
    rank, combine = form.rank, form.combine

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    def counting_combine(coeffs, rows):
        combined.append(rows)
        return combine(coeffs, rows)

    monkeypatch.setattr(form, "rank", counting)
    monkeypatch.setattr(form, "combine", counting_combine)
    assert min_distance(codefile.loads_code(text)) == 3
    assert len(calls) == 3
    assert combined == []


def test_shortened_w8k4_verifies_in_few_rank_calls_in_any_order(gf2, monkeypatch):
    # the 573-word shortening in 300 word orders, order s shuffled by
    # random.Random(s): d = 3 every time, in exactly 3 rank calls, as in
    # construction order.  Class pairs at one h go by their number of word
    # pairs, then by identifying vector, not in the order their words are
    # first seen, so the first pair scanned, a 2-word and a 1-word class at
    # h = 1, is the same in every order, and it holds a pair at d = 3.
    # Before each class pair's scan stopped at its floor, 29 of these orders
    # ranked all 8,192 pairs of a 32-word and a 256-word class after a join
    # at h = 1 found no shared key (8,216 calls at most); with the floors
    # and first-seen order, 15 to 55
    code = _shortened_w8k4(gf2)
    form = row_form(gf2, code.n)
    calls = []
    rank = form.rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(form, "rank", counting)
    counts = set()
    for seed in range(300):
        words = list(code.words)
        random.Random(seed).shuffle(words)
        calls.clear()
        assert min_distance(SubspaceCode(gf2, code.n, words)) == 3
        counts.add(len(calls))
    assert counts == {3}, counts


def test_shortened_w8k4_verify_takes_no_near_class_apart(gf2, monkeypatch):
    # 17 of the 573-word code's 22 classes are near classes; the verify's
    # answer, 3, is below the floor 4 that the sieve gives each of them, so
    # none gets a coset analysis: only the 5 classes near no other are
    # differenced
    code = _shortened_w8k4(gf2)
    view = code.packed
    near = set()
    for a, b in combinations(view.classes, 2):
        h = (a ^ b).bit_count()
        if h == 1 or h == 2 and a.bit_count() == b.bit_count():
            near |= {a, b}
    seen, differences = [], PackedCode._differences

    def spy(self, members):
        seen.append(self.ids[members[0]])
        return differences(self, members)

    monkeypatch.setattr(PackedCode, "_differences", spy)
    assert min_distance(code) == 3
    assert len(near) == 17 and sorted(seen) == sorted(set(view.classes) - near)


def test_sieve_lists_each_dimension_once(gf2, monkeypatch):
    # the 573-word verify lists the hyperplanes of its sieved words in one
    # batch per dimension, whatever their classes: 282 words of dimension 4
    # and 282 of dimension 3, 6,204 keys in all, and it keeps no join
    # slots on the view
    calls, lister = [], distances.hyperplane_keys

    def spy(form, words):
        keys = list(lister(form, words))
        calls.append((len(words[0]), len(words), len(keys)))
        return iter(keys)

    monkeypatch.setattr(distances, "hyperplane_keys", spy)
    code = _shortened_w8k4(gf2)
    assert min_distance(code) == 3
    assert sorted(calls) == [(3, 282, 1974), (4, 282, 4230)]
    assert code.packed._slots == {}


@pytest.mark.parametrize("enabled", [True, False])
def test_sieve_keys_start_no_collection(gf2, enabled):
    # the sieve of the 573-word code's 17 near classes lists 6,204
    # hyperplane keys, and none of them starts a run of the cyclic garbage
    # collector: it is paused while they live, then left as it was found
    view = _shortened_w8k4(gf2).packed
    near = [cid for cid in view.classes if any((cid ^ b).bit_count() == 1 for b in view.classes)]
    runs = []
    collect = lambda phase, info: runs.append(phase)  # noqa: E731
    was = gc.isenabled()
    gc.collect()
    gc.callbacks.append(collect)
    (gc.enable if enabled else gc.disable)()
    try:
        assert distances._sieve(view, near) is None
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(collect)
        (gc.enable if was else gc.disable)()
    assert runs == []


@pytest.mark.parametrize("q", [2, 3])
def test_nearest_with_a_true_floor_is_nearest_without(q):
    # any floor at most the least distance from the query to a candidate
    # leaves the answer alone: the first candidate at the least distance,
    # if it beats best, by distance_naive
    spec = make_field(q, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2**32), st.data())
    def check(n, seed, data):
        rng = random.Random(seed)
        words = [random_subspace(spec, n, rng) for _ in range(rng.randrange(2, 12))]
        view = PackedCode.of_words(spec, n, words)
        qid, qrows = view.pack_word(random_subspace(spec, n, rng) if rng.random() < 0.7 else rng.choice(words))
        query = Subspace.from_rows(spec, n, qrows)
        candidates = rng.sample(range(len(words)), rng.randrange(1, len(words) + 1))
        dists = [distance_naive(query, words[i]) for i in candidates]
        low = min(dists)
        best = data.draw(st.sampled_from([None, low, low + 1, low + 2, n + 1]))
        floor = data.draw(st.integers(0, low))
        want = (candidates[dists.index(low)], low) if best is None or low < best else (None, best)
        assert view.nearest(qid, qrows, candidates, best, floor) == want == view.nearest(qid, qrows, candidates, best)

    check()


def test_class_keys_builds_each_slot_once(monkeypatch):
    # a second class_keys call with the same class and exclusive set gives
    # the same keys and builds no variant: no row is subtracted or scaled
    for q in (2, 3):
        spec = make_field(q, 1)
        code = _shortened_w8k4(spec) if q == 2 else multilevel_fixture("w6k3", spec)
        view = PackedCode(spec, code.n, code.ids, code.rows)
        form = row_form(spec, code.n)
        built = []
        sub, scaled = form.sub_row, form.scaled
        monkeypatch.setattr(form, "sub_row", lambda a, b: built.append(1) or sub(a, b))
        monkeypatch.setattr(form, "scaled", lambda rows: built.append(1) or scaled(rows))
        asked = several = 0
        for cid, members in view.classes.items():
            for b in range(code.n):
                if not cid >> b & 1:
                    continue
                for exclusive in (1 << b, cid & ~(1 << b)):
                    first = sorted(view.class_keys(cid, exclusive))
                    before = len(built)
                    assert sorted(view.class_keys(cid, exclusive)) == first
                    assert len(built) == before
                    asked += 1
                    several += len(members) > 1 and len(first) > len(members)
        assert asked > 20 and several > 5 and built, (q, asked, several)
        monkeypatch.undo()


def test_one_word_class_joins_at_e_0(gf2, gf3, monkeypatch, join_outcomes):
    # A = 100000;010000;001000;000100 is alone in its class, and B's two
    # words (at distance 4 from each other) have A's pivots 2 and 3: h = 2
    # with dimensions 4 and 2, no near pair, so the sieve cannot settle it.
    # A's exclusive pivots 0 and 1 are left of the shared ones and B has
    # none, so e = 0 on both sides, and the join costs 1 + 2 keys against 2
    # ranked pairs.  It finds that B's first word lies in A at codimension
    # 2, so d = h = 2, with no rank call once the classes' own minima are
    # known.
    for spec in (gf2, gf3):
        literals = ["100000;010000;001000;000100", "001000;000100", "001010;000101"]
        code = SubspaceCode(spec, 6, _words(spec, 6, literals))
        want = brute_min_distance(code.words)
        coset_tables(code.packed)  # ranks B's differences before counting
        calls = []
        form = row_form(spec, 6)

        def counting(rows, rank=form.rank):
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(form, "rank", counting)
        assert min_distance(code) == 2 == want
        assert calls == [], spec
    assert join_outcomes == [True, True]


def test_one_word_classes_make_no_rank_call(gf2, gf3, monkeypatch):
    # counted as in test_shortened_w8k4_verify_rank_calls: every class of
    # these codes has one word, so none is ranked, and each is a coset
    # with no minimum
    calls = []
    for spec in (gf2, gf3):
        form = row_form(spec, 6)

        def counting(rows, rank=form.rank):
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(form, "rank", counting)
        words = [
            from_span([[int(j == c) for j in range(6)] for c in cols], spec, 6)
            for cols in combinations(range(6), 3)
        ]
        view = PackedCode.of_words(spec, 6, words)
        assert coset_tables(view)[1] == dict.fromkeys(view.classes) and len(view.classes) == 20
    assert calls == []


def test_packed_code_keeps_the_rows_its_words_keep(gf2, monkeypatch):
    from subspacecodes import matrices, subspaces

    code = codefile.loads_code(codefile.dumps_code(multilevel_fixture("w6k3", gf2)))
    words = code.words + (from_span([(1, 0, 1, 1, 0, 0)], gf2, 6),)
    calls = []

    def counting(fields, width=1):
        calls.append(fields)
        return pack(fields, width)

    for module in (matrices, subspaces):
        monkeypatch.setattr(module, "pack", counting)
    view = PackedCode.of_words(gf2, 6, words)
    assert calls == []
    assert all(r is w.rows for r, w in zip(view.rows, words))
    assert view.ids == [w.id_vector.packed for w in words]
    assert view.pack_word(words[0]) == (words[0].id_vector.packed, words[0].rows)
