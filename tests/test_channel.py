import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.channel import (
    ChannelConfig,
    min_distance_decode,
    simulate,
    transmit,
)
from subspacecodes.constructions import SubspaceCode, multilevel_fixture, puncture
from subspacecodes.distances import distance_fast, distance_naive, min_distance
from subspacecodes.errors import AmbientMismatch, InfeasibleParams, TooFewCodewords
from subspacecodes.matrices import MatGF, mat_mul, rank, row_form
from subspacecodes.packed import PackedCode
from subspacecodes.fields import make_field
from subspacecodes.subspaces import IdVector, Subspace, echelon_ferrers_shape, fill_free_entries, from_span, to_literal
from .conftest import brute_min_distance, coset_tables, random_subspace
from .test_distances import _shortened_w8k4, _structured_class


def test_transmit_identity(gf2):
    rng = random.Random(1)
    v = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    assert transmit(v, 0, 0, rng) == v


def test_transmit_full_erasure(gf2):
    rng = random.Random(2)
    v = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    assert transmit(v, 2, 0, rng).k == 0


def test_transmit_dimensions_always(gf2):
    rng = random.Random(3)
    for _ in range(300):
        v = random_subspace(gf2, 6, rng)
        rho = rng.randrange(0, v.k + 1)
        tmax = 6 - (v.k - rho)
        t = rng.randrange(0, tmax + 1)
        u = transmit(v, rho, t, rng)
        assert u.k == v.k - rho + t


def test_transmit_distance_structure(gf2):
    # with rho erasures and t errors the output is within rho + t of v
    rng = random.Random(4)
    v = from_span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], gf2, 6)
    for _ in range(200):
        u = transmit(v, 1, 1, rng)
        assert u.k == 3
        # H(V) is a 2-dim common subspace, so d is 0 or 2 (0 iff E fell
        # back inside V)
        assert distance_naive(v, u) in (0, 2)


# sha256 over 400 seeded transmit outputs, fixed before the GF(2) channel
# ran on packed rows: per (q, t, rho) case and seed, the sent word, the
# received space and the generator's next draw, so that the output and
# the number of draws both stay the same
TRANSMIT_DIGEST = "fc767c4432ec6a15ea06683059d7a7df9d1dfcc4a1376fad0e61e00fa81002b1"


def test_transmit_outputs_and_draws_are_pinned():
    lines = []
    for q, name in ((2, "w6k3"), (3, "w5k2")):
        words = multilevel_fixture(name, make_field(q, 1)).words
        for t, rho in ((0, 0), (1, 0), (0, 1), (1, 1), (0, None)):  # None: erase everything
            for seed in range(40):
                rng = random.Random(f"{q}/{t}/{rho}/{seed}")
                v = words[rng.randrange(len(words))]
                r = v.k if rho is None else rho
                u = transmit(v, r, t, rng)
                lines.append(f"{q} {t} {r} {seed} {to_literal(v)} {to_literal(u)} {rng.random()!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRANSMIT_DIGEST


def test_transmit_infeasible(gf2):
    rng = random.Random(5)
    v = from_span([(1, 0, 0)], gf2, 3)
    with pytest.raises(InfeasibleParams):
        transmit(v, 2, 0, rng)
    with pytest.raises(InfeasibleParams):
        transmit(v, 0, 3, rng)


def test_packets_roundtrip(gf2):
    rng = random.Random(6)
    sent = [(1, 0, 0, 1, 0), (0, 1, 0, 0, 1)]
    v = from_span(sent, gf2, 5)
    for _ in range(50):
        # y = Hp with random full-rank H
        while True:
            h = MatGF(gf2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)])
            if rank(h) == 2:
                break
        y = mat_mul(h, MatGF(gf2, sent))
        assert from_span(y.entries, gf2, 5) == v
    assert from_span([], gf2, 5).k == 0
    dup = from_span([sent[0], sent[0], sent[1]], gf2, 5)
    assert dup == v


def test_packets_with_error_rows(gf2):
    # y = Hp + Ge: the received row space sits inside span(p) + span(e)
    rng = random.Random(11)
    p = [(1, 0, 0, 1, 0), (0, 1, 0, 0, 1)]
    e = [(0, 0, 1, 1, 1)]
    v = from_span(p, gf2, 5)
    ve = from_span(p + e, gf2, 5)
    for _ in range(50):
        L = rng.randrange(1, 5)
        y = []
        for _ in range(L):
            h = [rng.randrange(2) for _ in range(2)]
            g = [rng.randrange(2)]
            row = [0] * 5
            for c, src in zip(h + g, p + e):
                if c:
                    row = [a ^ b for a, b in zip(row, src)]
            y.append(tuple(row))
        u = from_span(y, gf2, 5)
        for vec in u.gen.entries:
            assert ve.contains(vec)


def test_decode_trivial_and_errors(gf2):
    code = multilevel_fixture("w5k2", gf2)
    word, dist = min_distance_decode(code, code.words[3])
    assert word == code.words[3] and dist == 0
    with pytest.raises(TooFewCodewords):
        min_distance_decode(SubspaceCode(gf2, 5, []), code.words[0])


def test_decode_matches_unfiltered_scan(gf2):
    code = multilevel_fixture("w6k3", gf2)
    rng = random.Random(7)
    for _ in range(1000):
        u = random_subspace(gf2, 6, rng)
        got_word, got_dist = min_distance_decode(code, u)
        # unfiltered exhaustive argmin with first-wins tie break
        best = None
        best_w = None
        for w in code.words:
            d = distance_fast(w, u)
            if best is None or d < best:
                best, best_w = d, w
        assert got_dist == best
        assert got_word == best_w


def unfiltered_argmin(code, u):
    """Index and distance of the first closest word, by the definition."""
    dists = [distance_naive(w, u) for w in code.words]
    best = min(dists)
    return dists.index(best), best


def test_decode_ties_go_to_the_first_word(gf2):
    # every line of GF(2)^2 is at distance 1 from the zero space
    lines = [from_span([v], gf2, 2) for v in [(1, 0), (0, 1), (1, 1)]]
    zero = from_span([], gf2, 2)
    for order in (lines, lines[::-1], lines[1:] + lines[:1]):
        assert min_distance_decode(SubspaceCode(gf2, 2, order), zero) == (order[0], 1)


@pytest.mark.parametrize("q,n,size", [(2, 4, 12), (3, 3, 10), (2, 70, 12)])
def test_decode_matches_unfiltered_argmin_with_ties(q, n, size):
    # small random codes of mixed dimension give many equidistant words;
    # n = 70 checks that the packed rows have no width limit
    spec = make_field(q, 1)
    rng = random.Random(q * 1000 + n)
    ties = 0
    for _ in range(10):
        words = {}
        while len(words) < size:
            w = random_subspace(spec, n, rng, k=rng.randrange(1, 4))
            words[w.key()] = w
        code = SubspaceCode(spec, n, list(words.values()))
        for _ in range(10):
            u = random_subspace(spec, n, rng, k=rng.randrange(0, 4))
            i, d = unfiltered_argmin(code, u)
            assert min_distance_decode(code, u) == (code.words[i], d)
            ties += sum(distance_naive(w, u) == d for w in code.words) > 1
    assert ties > 0


def test_decode_rejects_other_ambient_space(gf2, gf3):
    code = multilevel_fixture("w5k2", gf2)
    with pytest.raises(AmbientMismatch):
        min_distance_decode(code, from_span([], gf2, 6))
    with pytest.raises(AmbientMismatch):
        min_distance_decode(code, from_span([], gf3, 5))


def test_decode_single_erasure(gf2):
    code = multilevel_fixture("w5k2", gf2)
    rng = random.Random(8)
    for w in code.words:
        u = transmit(w, 1, 0, rng)
        decoded, d = min_distance_decode(code, u)
        assert decoded == w and d == 1


def test_guarantee_property(gf2):
    # distance-4 codes decode perfectly whenever 2(t + rho) < 4
    for name in ("w5k2", "w6k3"):
        code = multilevel_fixture(name, gf2)
        for t, rho in [(0, 0), (1, 0), (0, 1)]:
            stats = simulate(code, ChannelConfig(rho=rho, t=t, seed=123, trials=1000))
            assert stats.successes == stats.trials == 1000
            assert stats.success_rate == 1.0


def test_boundary_parameters_recorded_not_asserted(gf2):
    code = multilevel_fixture("w6k3", gf2)
    stats = simulate(code, ChannelConfig(rho=1, t=1, seed=5, trials=300))
    assert 0.0 < stats.success_rate < 1.0


def test_simulation_deterministic(gf2):
    code = multilevel_fixture("w5k2", gf2)
    cfg = ChannelConfig(rho=1, t=1, seed=42, trials=200)
    a = simulate(code, cfg, keep_outcomes=True)
    b = simulate(code, cfg, keep_outcomes=True)
    assert a.successes == b.successes
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.sent == ob.sent
        assert oa.received == ob.received
        assert oa.decoded == ob.decoded
        assert oa.success == ob.success


def test_simulate_infeasible(gf2):
    code = multilevel_fixture("w5k2", gf2)
    with pytest.raises(InfeasibleParams):
        simulate(code, ChannelConfig(rho=3, t=0, seed=0, trials=10))
    with pytest.raises(InfeasibleParams):
        ChannelConfig(rho=-1, t=0)


def test_comparing_a_word_with_itself_builds_no_matrix(gf2, gf3, matrices_built):
    # a decoded codeword is the very object that was sent, so comparing
    # them needs no generator; equal subspaces that are distinct objects
    # still compare by their generators
    for spec in (gf2, gf3):
        code = multilevel_fixture("w5k2", spec)
        code.packed
        rng = random.Random(13)
        start = len(matrices_built)
        u = code.words[3]
        assert u == u and not u != u
        for _ in range(30):
            sent = code.words[rng.randrange(len(code))]
            decoded, _ = min_distance_decode(code, transmit(sent, 0, 1, rng))
            assert decoded == sent
        assert len(matrices_built) == start
        assert u == Subspace.from_rows(spec, u.n, u.rows) and u != code.words[4]


def test_trial_outcomes(gf2):
    code = multilevel_fixture("w5k2", gf2)
    stats = simulate(code, ChannelConfig(rho=0, t=1, seed=9, trials=50), keep_outcomes=True)
    for outcome in stats.outcomes:
        assert outcome.success == (outcome.decoded == outcome.sent)
        assert outcome.received.k == outcome.sent.k + 1
        assert outcome.channel_distance == 1  # t=1 error dim, disjoint by construction


def _decoding_case(rng: random.Random):
    """A small code over GF(2), GF(3), GF(4) or GF(9) of mixed dimensions
    whose classes are single words, linear spaces, cosets or neither, and
    received spaces: channel outputs of its words within and past the
    decoding radius, one word as sent, and random spaces.  One code in four
    has one word, and it may be the zero space.  A class with more than 81
    choices of its free entries is a single word, which keeps the classes
    over GF(4) and GF(9) small."""
    spec = make_field(*rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)]))
    q, n = spec.order, rng.randrange(0, 6)
    words = {}
    if rng.randrange(4) == 0:
        w = random_subspace(spec, n, rng, k=rng.choice([0, n]))
        words[w.key()] = w
    else:
        for _ in range(rng.randrange(1, 4)):
            v = IdVector.from_support(n, rng.sample(range(n), rng.randrange(n + 1)))
            dots = echelon_ferrers_shape(v).dot_count
            kind = rng.choice(["one", "linear", "coset", "noncoset"])
            if dots == 0 or kind == "one" or q**dots > 81 or (kind == "noncoset" and q**dots <= 3):
                fill = [fill_free_entries(v, [rng.randrange(q) for _ in range(dots)], spec)]
            else:
                fill = _structured_class(v, kind, spec, rng)
            words.update((w.key(), w) for w in fill)
        for _ in range(rng.randrange(3)):
            w = random_subspace(spec, n, rng)
            words[w.key()] = w
    code = SubspaceCode(spec, n, list(words.values()))
    received = [random_subspace(spec, n, rng) for _ in range(3)]
    for _ in range(4):
        sent = rng.choice(code.words)
        rho = rng.randrange(sent.k + 1)
        t = rng.randrange(n - sent.k + rho + 1)
        received.append(transmit(sent, min(rho, 1), min(t, 1), rng))
        received.append(transmit(sent, rho, t, rng))
    received.append(rng.choice(code.words))  # received as sent
    return code, received


def _check_decoding_case(code, received) -> dict:
    """Every decoder stage against the definition; returns what was seen."""
    view, q = code.packed, code.spec.order
    bound = code.dmin if len(code) > 1 else None  # the bound min_distance_decode passes
    seen = Counter(zero_dim=0 in code.dims)
    if len(code) > 1:
        assert bound == brute_min_distance(code.words)
    else:
        assert bound is None
    seen["noncoset"] = sum(len(m) > 1 and cid not in coset_tables(view)[1] for cid, m in view.classes.items())
    for u in received:
        i, d = unfiltered_argmin(code, u)
        assert min_distance_decode(code, u) == (code.words[i], d)
        qid, qrows = view.pack_word(u)
        assert view.nearest(qid, qrows, range(len(code))) == (i, d)
        dists = [distance_naive(w, u) for w in code.words]
        seen["ties"] += dists.count(d) > 1
        seen["zero_received"] += u.k == 0
        seen["full_received"] += u.k == u.n > 0
        hit = view.contained(qid, qrows, bound)
        if hit is None:
            seen["scans"] += 1
            continue
        seen["hits"] += 1
        seen[f"hits_q{q}"] += 1
        members = view.classes[view.ids[i]]
        seen["one_word_hits"] += len(members) == 1  # r = 0
        seen["one_unknown_hits"] += len(members) == q and bool(view.coset(view.ids[i]))  # r = 1
        assert hit == (i, d) and dists.count(d) == 1
        assert len(code) == 1 or 2 * d < brute_min_distance(code.words)
        assert code.words[i].k == u.k + d or code.words[i].k == u.k - d
    return seen


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_containment_stage_against_flat_scan_and_definition(seed):
    _check_decoding_case(*_decoding_case(random.Random(seed)))


def test_containment_cases_cover_hits_scans_ties_and_non_cosets():
    # besides hits and scans, the solve's edges: a class of one word (no
    # unknown, so only v = 0 is tested), a coset of q words (one unknown),
    # the zero space and the whole space received, and hits over every
    # field drawn
    totals = Counter()
    one_word = 0
    for seed in range(120):
        code, received = _decoding_case(random.Random(seed))
        one_word += len(code) == 1
        totals.update(_check_decoding_case(code, received))
    wanted = ["hits", "scans", "ties", "noncoset", "zero_dim", "one_word_hits", "one_unknown_hits"]
    wanted += ["zero_received", "full_received", "hits_q2", "hits_q3", "hits_q4", "hits_q9"]
    assert all(totals[key] for key in wanted) and one_word, totals


@pytest.mark.parametrize(
    "name,p,m", [("w8k4", 2, 1), ("w6k3", 3, 1), ("w5k2", 3, 2)], ids=["w8k4-2", "w6k3-3", "w5k2-9"]
)
def test_containment_solve_returns_the_sent_word(name, p, m):
    # inside the radius a single error or erasure always leaves a containment;
    # over GF(9), with -1 != 1 and arithmetic digit by digit, an erasure
    # solves Y ⊆ U in the unknowns of a class of many words
    code = multilevel_fixture(name, make_field(p, m))
    q = code.spec.order
    view = code.packed
    rng = random.Random(q)
    for t, rho in [(1, 0), (0, 1)]:
        for _ in range(100):
            j = rng.randrange(len(code))
            u = transmit(code.words[j], rho, t, rng)
            assert view.contained(*view.pack_word(u), code.dmin) == (j, 1)


@pytest.mark.parametrize("add_trivial,size", [(True, 573), (False, 571)])
def test_containment_settles_single_faults_on_the_shortenings(gf2, add_trivial, size, monkeypatch):
    # the 573-word shortening and the 571 without its two trivial words have
    # d = 3, so one error or one erasure leaves the sent word alone at
    # distance 1, and 2 * 1 < d: the containment stage settles every such
    # trial on a word of a coset class, and the nearest scan does not run.
    # A bound read off the classes was 1 on both, as two of their
    # identifying vectors differ in one place, and sent every trial to the
    # scan.  The 200 words of the three classes that are no coset (of 128,
    # 64 and 8 words) are left to the scan
    aligned = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    code = puncture(aligned, (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=add_trivial)
    assert (len(code), code.dmin) == (size, 3)
    view, scans = code.packed, []
    in_coset = [bool(view.coset(cid)) for cid in view.ids]
    assert in_coset.count(False) == 200
    nearest = PackedCode.nearest
    monkeypatch.setattr(PackedCode, "nearest", lambda *args: scans.append(1) or nearest(*args))
    rng = random.Random(size)
    settled = 0
    for t, rho in [(1, 0), (0, 1)]:
        feasible = [j for j, w in enumerate(code.words) if rho <= w.k <= code.n - t]
        for j in rng.sample(feasible, 40):
            u = transmit(code.words[j], rho, t, rng)
            scans.clear()
            assert min_distance_decode(code, u) == (code.words[j], 1)
            assert unfiltered_argmin(code, u) == (j, 1)
            assert scans == ([] if in_coset[j] else [1])
            settled += in_coset[j]
    assert settled >= 40


def test_containment_bound_on_bundled_codes(gf2, gf3):
    # the bound is the code's minimum distance, and a one-word code has
    # none: its one word is the answer at any distance
    for name, spec in [("w5k2", gf2), ("w6k3", gf2), ("w5k2", gf3)]:
        code = multilevel_fixture(name, spec)
        assert code.dmin == min_distance(code.words) == 4
    one = SubspaceCode(gf2, 3, [from_span([(1, 0, 0)], gf2, 3)])
    assert one.packed.contained(*one.packed.pack_word(from_span([], gf2, 3)), None) == (0, 1)
    assert min_distance_decode(one, from_span([], gf2, 3)) == (one.words[0], 1)


def test_verify_then_decode_ranks_each_class_once(gf2, gf3, monkeypatch):
    # the decoder's bound is the verified minimum distance, and its table
    # reads the classes' coset analyses alone: after a verify through
    # code.dmin, the first decode makes no rank call, so the coset minima
    # the verify left (``left`` rank calls on a view of its own) are never
    # taken.  The verify takes those it needs, each as often as a view of
    # its own ranks for it; in the 573-word GF(2) shortening it takes two
    # that rank
    calls, both_ranked = [], 0
    for code in (puncture(multilevel_fixture("w6k3", gf3), (0, 0, 1, 0, 0, 1)), _shortened_w8k4(gf2)):
        brute = brute_min_distance(code.words)  # ranks on the same row form: not counted
        form = row_form(code.spec, code.n)  # the row form the code's view ranks with
        rank = form.rank

        def spy(rows, rank=rank):
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(form, "rank", spy)
        own = PackedCode(code.spec, code.n, code.ids, code.rows)
        per_class = {}
        for cid in filter(own.coset, own.classes):
            before = len(calls)
            own.coset_minimum(cid)
            per_class[cid] = len(calls) - before
        # one erasure of the first word of a coset class of two or more words
        j = next(own.classes[cid][0] for cid in per_class if len(own.classes[cid]) > 1)
        received = transmit(code.words[j], 1, 0, random.Random(j))
        calls.clear()
        d = code.dmin
        verified = len(calls)
        taken = set(code.packed._minima)  # the classes whose minima the verify took
        left = sum(n for cid, n in per_class.items() if cid not in taken)
        assert d == brute > 2 and verified
        assert min_distance_decode(code, received) == (code.words[j], 1)
        assert taken < set(per_class) and left and len(calls) == verified
        assert set(code.packed._minima) == taken
        both_ranked += any(per_class[cid] for cid in taken)
    assert both_ranked == 1


@pytest.mark.parametrize("name,q,m,special", [
    ("w6k3", 2, 1, None), ("w6k3", 3, 1, (0, 0, 1, 0, 0, 1)), ("w5k2", 2, 2, None)
])
def test_verify_then_decode_takes_each_class_differences_once(name, q, m, special, monkeypatch):
    # the classes' one coset analysis serves the verify and the decoder
    # table, so each class's words are flattened and differenced once
    code = multilevel_fixture(name, make_field(q, m))
    if special:
        code = puncture(code, special)
    view, seen = code.packed, []
    differences = PackedCode._differences

    def spy(self, members):
        seen.append(tuple(members))
        return differences(self, members)

    monkeypatch.setattr(PackedCode, "_differences", spy)
    assert code.dmin == brute_min_distance(code.words)
    view.decoder  # noqa: B018 -- builds the table
    assert sorted(seen) == sorted(map(tuple, view.classes.values()))
    assert view.contained(*view.pack_word(code.words[0]), code.dmin) == (0, 0)


def test_simulate_names_the_smallest_infeasible_dimension(gf2):
    words = [from_span(rows, gf2, 4) for rows in ([(1, 0, 0, 0)], [(0, 1, 0, 0), (0, 0, 1, 0)], [])]
    code = SubspaceCode(gf2, 4, words)
    with pytest.raises(InfeasibleParams, match="for a 1-dim codeword"):
        simulate(SubspaceCode(gf2, 4, words[:2]), ChannelConfig(rho=2, t=0, trials=1))
    with pytest.raises(InfeasibleParams, match="for a 0-dim codeword"):
        simulate(code, ChannelConfig(rho=1, t=0, trials=1))
    with pytest.raises(InfeasibleParams, match="for a 1-dim codeword"):
        simulate(code, ChannelConfig(rho=0, t=4, trials=1))
    with pytest.raises(InfeasibleParams, match="for a 2-dim codeword"):
        simulate(code, ChannelConfig(rho=0, t=3, trials=1))
    assert simulate(code, ChannelConfig(rho=0, t=2, trials=3)).trials == 3


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["w5k2", "w6k3"])
def test_kept_outcomes_against_the_channel_model(name, q):
    # one outcome per trial; success is decoding to the sent word; the
    # margin is 2(t + rho) on a constant-dimension code; and the received
    # space is within t + rho of the sent one, at the same parity: rho
    # erasures and t errors, less twice the error dimensions that land
    # inside the sent word (so 0 occurs when t = rho)
    code = multilevel_fixture(name, make_field(q, 1))
    for t, rho in [(1, 0), (0, 1), (1, 1)]:
        cfg = ChannelConfig(rho=rho, t=t, seed=100 * q + 10 * t + rho, trials=40)
        stats = simulate(code, cfg, keep_outcomes=True)
        assert len(stats.outcomes) == stats.trials == 40
        assert stats.successes == sum(o.success for o in stats.outcomes)
        for o in stats.outcomes:
            assert o.success == (o.decoded == o.sent)
            assert o.margin == 2 * (t + rho)
            assert o.channel_distance == distance_naive(o.sent, o.received)
            assert o.channel_distance <= t + rho
            assert (t + rho - o.channel_distance) % 2 == 0
            assert o.received.k == o.sent.k - rho + t
