import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes import codefile, distances, packed

from subspacecodes.constructions import SubspaceCode, lift_gabidulin, multilevel_fixture, puncture
from subspacecodes.errors import AmbientMismatch, TooFewCodewords
from subspacecodes.distances import (
    dim_intersection,
    distance_fast,
    distance_naive,
    hamming,
    min_distance,
)
from subspacecodes.fields import extension_view, make_field
from subspacecodes.matrices import MatGF, rank, vconcat
from subspacecodes.packed import PackedCode, gf2_rank, meet_exponent, pack
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
from .conftest import random_subspace


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


def brute_min_distance(words):
    """Exhaustive pair scan with the definition-level distance."""
    return min(
        distance_naive(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
    )


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


def _span_vectors(gens, q, length):
    out = set()
    for coeffs in product(range(q), repeat=len(gens)):
        out.add(tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) % q for j in range(length)))
    return out


def _structured_class(v, kind, spec, rng):
    """Words with identifying vector v whose free entries form a linear
    space, an affine coset of one, or a set that is neither."""
    q = spec.order
    dots = echelon_ferrers_shape(v).dot_count
    if kind == "noncoset":
        size = rng.choice([s for s in range(3, min(q**dots, 7) + 1) if s not in (q, q * q)])
        fills = set()
        while len(fills) < size:
            fills.add(tuple(rng.randrange(q) for _ in range(dots)))
    else:
        gens = [[rng.randrange(q) for _ in range(dots)] for _ in range(rng.randrange(1, 3))]
        fills = _span_vectors(gens, q, dots)
        if kind == "coset":
            offset = [rng.randrange(q) for _ in range(dots)]
            fills = {tuple((a + b) % q for a, b in zip(f, offset)) for f in fills}
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
        minima = code.packed.coset_minima
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
        view = PackedCode(spec, 6, linear)
        (cid,) = view.classes
        assert cid in view.coset_minima
        odd = _structured_class(v, "noncoset", spec, rng)
        view = PackedCode(spec, 6, odd)
        (cid,) = view.classes
        assert cid not in view.coset_minima


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


@pytest.mark.parametrize("q,sizes", [(2, range(1, 7)), (3, range(1, 6))])
def test_meet_keys_against_brute_force(q, sizes):
    # every X inside U whose pivots are U's pivots outside I, by filtering
    # the whole Grassmannian
    spec = make_field(q, 1)
    rng = random.Random(20 + q)
    by_support = {}
    checked = several = 0
    for n in sizes:
        for _ in range(3 if q == 2 else 2):
            u = random_subspace(spec, n, rng, k=rng.randrange(1, min(n, 4) + 1))
            view = PackedCode(spec, n, [u])
            pivots = u.id_vector.support
            for r in range(len(pivots) + 1):
                for excl in combinations(pivots, r):
                    shared = tuple(p for p in pivots if p not in excl)
                    key = (n, len(shared))
                    if key not in by_support:
                        by_support[key] = {}
                        for x in enumerate_grassmannian(n, len(shared), q):
                            by_support[key].setdefault(x.id_vector.support, []).append(x)
                    want = {
                        _row_key(spec, x.gen.entries)
                        for x in by_support[key].get(shared, [])
                        if all(u.contains(row) for row in x.gen.entries)
                    }
                    mask_i, mask_s = (pack(IdVector.from_support(n, c).bits) for c in (excl, shared))
                    got = view.meet_keys(0, mask_i)
                    assert got == want, (u, excl)
                    assert len(got) == q ** meet_exponent(mask_s, mask_i)
                    checked += 1
                    several += len(got) > 1
    assert checked > 50 and several > 10


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


def test_min_distance_joins_against_pair_scan(join_outcomes):
    # mixed-dimension codes over GF(2) and GF(3) whose class pairs go
    # through the join; both outcomes must occur
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(4, 6), st.integers(0, 2**32))
    def check(q, n, seed):
        words = _join_code(q, n, random.Random(seed))
        if len(words) >= 2:
            assert min_distance(words) == brute_min_distance(words)

    check()
    assert join_outcomes.count(True) >= 5 and join_outcomes.count(False) >= 5


def _words(spec, n, literals):
    return [Subspace(spec, n, MatGF(spec, literal_rows(lit, spec, n), cols=n)) for lit in literals]


def test_join_hit_needs_the_exclusive_rows(gf2, join_outcomes):
    # x_0 = u_0 + u_1 lies in U1 and U2 and is a word of B, so d = h = 1;
    # B's key 1101 arises from A only through the exclusive row u_1
    a = _words(gf2, 4, ["1000;0100", "1001;0100", "1010;0111"])
    b = _words(gf2, 4, ["1101", "1011", "1111"])
    assert min_distance(a + b) == 1 == brute_min_distance(a + b)
    assert join_outcomes == [True]


def test_join_miss_scans_when_best_exceeds_h_plus_2(gf2, join_outcomes):
    # classes of distance 4 inside, h = 1 between; no word of B lies in a
    # word of A, but pairs at d = 3 do, so the miss must fall back to the scan
    a = _words(gf2, 6, ["100000;010000;001000", "100111;010011;001000"])
    b = _words(gf2, 6, ["010100;001000", "010010;001001"])
    assert min_distance(a + b) == 3 == brute_min_distance(a + b)
    assert join_outcomes == [False]


def test_gf3_w6k3_shortening_against_pair_scan(gf3):
    code = puncture(multilevel_fixture("w6k3", gf3), (0, 0, 1, 0, 0, 1))
    ids = code.packed.ids
    assert len(code) == 56
    assert sum((x ^ y).bit_count() == 1 for x, y in combinations(ids, 2)) == 729
    assert min_distance(code) == brute_min_distance(code.words)


def test_shortened_w8k4_against_flat_scan(gf2):
    # the 573-word shortening: the class step and the join against the
    # scan of all 163,878 pairs
    code = puncture(
        multilevel_fixture("w8k4", gf2, puncture_aligned=True), (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True
    )
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
def class_outcomes(monkeypatch):
    """Every in-class hyperplane join's result, and the bound passed to
    every scan of a deferred class, in order."""
    joins, scans = [], []
    shares, scan_pairs = distances._shares_hyperplane, PackedCode.scan_pairs

    def join_spy(*args):
        joins.append(shares(*args))
        return joins[-1]

    def scan_spy(self, members, best=None):
        scans.append(best)
        return scan_pairs(self, members, best)

    monkeypatch.setattr(distances, "_shares_hyperplane", join_spy)
    monkeypatch.setattr(PackedCode, "scan_pairs", scan_spy)
    return joins, scans, scan_pairs


def test_min_distance_in_class_joins_against_pair_scans(class_outcomes):
    # non-coset classes over GF(2) and GF(3), with and without a planted
    # pair at distance 2, repeated words and mixed dimensions: min_distance
    # against the definition and the flat scan of every pair
    joins, scans, scan_pairs = class_outcomes
    seen = {"noncoset": 0, "repeated": 0, "mixed": 0}

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32))
    def check(q, seed):
        spec, n, words = _in_class_code(q, random.Random(seed))
        if len(words) < 2:
            return
        want = brute_min_distance(words)
        view = PackedCode(spec, n, words)
        assert min_distance(words) == want == scan_pairs(view, range(len(words)))
        seen["noncoset"] += sum(len(m) > 1 and cid not in view.coset_minima for cid, m in view.classes.items())
        seen["repeated"] += want == 0
        seen["mixed"] += len({w.k for w in words}) > 1

    check()
    assert all(count >= 5 for count in seen.values()), seen
    assert joins.count(True) >= 10 and joins.count(False) >= 10
    # misses deferred and scanned (a scan under a best above 4 is pinned by
    # the next test)
    assert scans.count(None) >= 3, scans


def test_min_distance_scans_a_deferred_class_to_its_minimum_six(class_outcomes):
    # words of a lifted Gabidulin code (n = 6, k = 3, pairwise distance 6)
    # that are not a coset, and their complement span(e_3, e_4, e_5), which
    # is at distance 6 from each: the join misses, and the class's lower
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
        assert joins == [False, False] and scans == [6, 6]


def test_min_distance_in_class_join_hit_and_repeat(gf2, gf3, class_outcomes):
    # three words of one non-coset class: w and x share the hyperplane
    # spanned by their common first row, u is at distance 4 from both
    joins, _, _ = class_outcomes
    v = IdVector((1, 1, 0, 0, 0))
    u, w, x = (_word_from_free(v, free, gf2) for free in ((0, 0, 0, 0, 0, 0), (1, 1, 0, 1, 0, 1), (1, 1, 0, 1, 1, 1)))
    assert pack(v.bits) not in PackedCode(gf2, 5, [u, w, x]).coset_minima
    assert min_distance([u, w, x]) == 2 == brute_min_distance([u, w, x])
    assert joins == [True]
    # a repeated word is found before the join, which would report 2
    assert min_distance([u, w, u, x]) == 0 == brute_min_distance([u, w, u, x])
    assert joins == [True]
    # two GF(3) words of one class are never a coset
    a, b = (_word_from_free(v, free, gf3) for free in ((0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)))
    assert min_distance([a, b]) == 2 and joins == [True, True]


def test_shortened_w8k4_verify_rank_calls(gf2, monkeypatch):
    # one load and verify of the 573-word shortening, as the CLI runs it:
    # the in-class join leaves at most 2,500 rank calls (12,534 without it)
    code = puncture(
        multilevel_fixture("w8k4", gf2, puncture_aligned=True), (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True
    )
    text = codefile.dumps_code(code)
    calls = []
    rank = packed.gf2_rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(packed, "gf2_rank", counting)
    assert min_distance(codefile.loads_code(text)) == 3
    assert 0 < len(calls) <= 2500


def test_one_word_classes_make_no_rank_call(gf2, gf3, monkeypatch):
    # counted as in test_shortened_w8k4_verify_rank_calls: every class of
    # these codes has one word, so none is ranked, and each is a coset
    # with no minimum
    calls = []
    rank = packed.gf2_rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(packed, "gf2_rank", counting)
    for spec in (gf2, gf3):
        words = [
            from_span([[int(j == c) for j in range(6)] for c in cols], spec, 6)
            for cols in combinations(range(6), 3)
        ]
        view = PackedCode(spec, 6, words)
        monkeypatch.setattr(view, "rank", counting)
        assert view.coset_minima == dict.fromkeys(view.classes) and len(view.classes) == 20
    assert calls == []


def test_packed_code_keeps_the_rows_its_words_keep(gf2, monkeypatch):
    from subspacecodes import matrices, subspaces

    code = codefile.loads_code(codefile.dumps_code(multilevel_fixture("w6k3", gf2)))
    words = code.words + (from_span([(1, 0, 1, 1, 0, 0)], gf2, 6),)
    calls = []

    def counting(fields, width=1):
        calls.append(fields)
        return pack(fields, width)

    for module in (matrices, subspaces, packed):
        monkeypatch.setattr(module, "pack", counting)
    view = PackedCode(gf2, 6, words)
    assert calls == []
    assert all(r is w.packed for r, w in zip(view.rows, words))
    assert view.ids == [w.id_vector.packed for w in words]
    assert view.pack_word(words[0]) == (words[0].id_vector.packed, words[0].packed)
