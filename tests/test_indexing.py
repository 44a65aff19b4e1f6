import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.errors import BadLength, BadParams
from subspacecodes.indexing import (
    box_partition_coeffs,
    decode_extended,
    decode_full,
    decode_full_compact,
    encode_extended,
    encode_full,
    encode_full_compact,
    fibonacci,
    gaussian_power_bounds,
    partition_count,
    partition_fib,
    suffix_family,
)
from subspacecodes.fields import make_field
from subspacecodes.subspaces import (
    enumerate_grassmannian,
    free_entries_row_major,
    from_literal,
    from_span,
    gaussian,
    to_literal,
)


def partitions_in_box_oracle(total, k, w):
    """Brute-force: partitions of `total` with at most k parts, each <= w."""

    def gen(remaining, max_part, parts_left):
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    return sum(1 for _ in gen(total, w, k))


def test_partition_values():
    assert partition_count(5) == 7
    assert partition_count(0) == 1
    assert partition_fib(5) == (7, 8)
    assert partition_fib(0) == (1, 1)
    assert partition_count(16) == 231


def test_fibonacci_table():
    # the classic table: F(0)..F(16)
    want = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    assert [fibonacci(i) for i in range(17)] == want


def test_partition_below_fibonacci():
    for i in range(41):
        p, f = partition_fib(i)
        assert p <= f


def test_box_coeffs_examples():
    assert box_partition_coeffs(4, 2) == (1, 1, 2, 1, 1)
    assert sum(a * 2**l for l, a in enumerate(box_partition_coeffs(4, 2))) == 35
    assert box_partition_coeffs(5, 1) == (1,) * 5  # single-row box
    # partitions of 5 in a 4x4 box: 41, 32, 311, 221, 2111 (5 and 11111 do
    # not fit); the enumerator oracle below agrees
    assert box_partition_coeffs(8, 4)[5] == 5 == partitions_in_box_oracle(5, 4, 4)


def test_box_coeffs_of_large_boxes():
    assert box_partition_coeffs(1200, 1) == (1,) * 1200  # no recursion depth limit
    coeffs = box_partition_coeffs(20, 10)
    assert len(coeffs) == 101 and coeffs == coeffs[::-1]
    for l in (0, 1, 7, 16, 25):
        assert coeffs[l] == partitions_in_box_oracle(l, 10, 10)


def test_box_coeffs_match_bruteforce_oracle():
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)]:
        w = n - k
        coeffs = box_partition_coeffs(n, k)
        for l, a in enumerate(coeffs):
            assert a == partitions_in_box_oracle(l, k, w)


def test_gaussian_polynomial_identity():
    for q in (2, 3, 5):
        for n in range(1, 11):
            for k in range(n + 1):
                coeffs = box_partition_coeffs(n, k)
                assert sum(a * q**l for l, a in enumerate(coeffs)) == gaussian(n, k, q)


def test_top_coefficients():
    # leading coefficients 1, 1, 2 whenever both box sides are >= 2
    for n, k in [(4, 2), (6, 3), (7, 3), (8, 4)]:
        coeffs = box_partition_coeffs(n, k)
        assert coeffs[-1] == 1 and coeffs[-2] == 1 and coeffs[-3] == 2


def test_coefficient_symmetry():
    for n in range(2, 11):
        for k in range(1, n):
            coeffs = box_partition_coeffs(n, k)
            assert coeffs == coeffs[::-1]


def test_suffix_family_small():
    assert suffix_family(1) == ((),)
    assert suffix_family(2) == ((0,), (1,))
    fam5 = ["".join(map(str, s)) for s in suffix_family(5)]
    assert fam5 == [
        "0000",
        "0001",
        "0011",
        "0101",
        "0111",
        "1011",
        "1101",
        "1111",
    ]
    assert len(suffix_family(8)) == fibonacci(9) == 34


def test_suffix_family_distinct_and_sized():
    for i in range(1, 14):
        fam = suffix_family(i)
        assert len(set(fam)) == len(fam) == fibonacci(i + 1)
        assert list(fam) == sorted(fam)  # ascending by integer value
        for s in fam:
            assert len(s) == i - 1
            # all-zero, 0..01, or z 1 t 1 with t free of two consecutive zeros
            word = "".join(map(str, s))
            core = word.lstrip("0")
            assert core in ("", "1") or (core[0] == core[-1] == "1" and "00" not in core[1:-1])


def test_power_bounds_binary():
    for n in range(3, 17):
        for k in range(2, n - 1):
            lo, hi = gaussian_power_bounds(n, k, 2)
            assert lo and hi
    with pytest.raises(BadParams):
        gaussian_power_bounds(2, 1, 2)


def test_power_bounds_binary_fails_at_k_of_n_minus_1():
    # [n, n-1] over GF(2) is 2^n - 1, one short of the claimed strict lower
    # bound 2^(k(n-k)+1) = 2^n: the honest booleans record the failure
    for n in range(3, 17):
        lo, hi = gaussian_power_bounds(n, n - 1, 2)
        assert not lo and hi
        assert gaussian(n, n - 1, 2) == 2**n - 1


def test_power_bounds_general_q():
    assert gaussian_power_bounds(4, 2, 3) == (True, True)
    for q in (3, 4, 5, 7):
        for n in range(2, 13):
            for k in range(1, n):
                lo, hi = gaussian_power_bounds(n, k, q)
                assert lo and hi


def test_encode_extended_templates(gf2):
    # trailing 1 with zero free bits: the lifted identity
    n, k = 5, 2
    bits = (0,) * (k * (n - k)) + (1,)
    u = encode_extended(bits, n, k)
    assert u.gen.entries == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    with pytest.raises(BadLength):
        encode_extended((0, 1), n, k)
    with pytest.raises(BadParams):
        encode_extended((0,) * 4, 4, 3)  # needs n-k >= 2


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
def test_encode_extended_injective_and_invertible(n, k):
    kw = k * (n - k)
    images = set()
    for bits in product((0, 1), repeat=kw + 1):
        u = encode_extended(bits, n, k)
        assert u.k == k and u.n == n
        assert decode_extended(u, n, k) == bits
        images.add(u.key())
    assert len(images) == 2 ** (kw + 1)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_encode_extended_class_counts(n, k):
    from collections import Counter

    kw = k * (n - k)
    counts = Counter()
    for bits in product((0, 1), repeat=kw + 1):
        u = encode_extended(bits, n, k)
        counts[u.id_vector.bits] += 1
    top = (1,) * k + (0,) * (n - k)
    id2 = (1,) * (k - 1) + (0, 1) + (0,) * (n - k - 1)
    id3 = (1,) * (k - 1) + (0, 0, 1) + (0,) * (n - k - 2)
    id4 = (1,) * (k - 2) + (0, 1, 1) + (0,) * (n - k - 1)
    assert counts[top] == 2**kw
    assert counts[id2] == 2 ** (kw - 1)
    assert counts[id3] == 2 ** (kw - 2)
    assert counts[id4] == 2 ** (kw - 2)
    assert set(counts) == {top, id2, id3, id4}


@pytest.mark.parametrize("n,k,total", [(5, 2, 155), (6, 3, 1395)])
def test_encode_full_bijection(n, k, total):
    seen = set()
    count = 0
    for u in enumerate_grassmannian(n, k, 2):
        bits = encode_full(u)
        assert len(bits) == k * (n - k) + 2
        assert bits not in seen
        seen.add(bits)
        assert decode_full(bits, n, k) == u
        count += 1
    assert count == total


def test_encode_full_top_class():
    # lifted-identity class uses the suffix 10 after all free entries
    us = list(enumerate_grassmannian(4, 2, 2))
    top = [u for u in us if u.id_vector.bits == (1, 1, 0, 0)]
    for u in top:
        bits = encode_full(u)
        assert bits[-2:] == (1, 0)
    # the deepest class is the all-marker vector
    last = [u for u in us if u.id_vector.bits == (0, 0, 1, 1)]
    assert encode_full(last[0]) == (1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_encode_full_roundtrip(n, k):
    for u in enumerate_grassmannian(n, k, 2):
        assert decode_full(encode_full(u), n, k) == u


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_compact_variant_roundtrip(n, k):
    seen = set()
    for u in enumerate_grassmannian(n, k, 2):
        bits = encode_full_compact(u)
        assert len(bits) == k * (n - k) + 2
        assert bits not in seen
        seen.add(bits)
        assert decode_full_compact(bits, n, k) == u


def test_decode_full_rejects_garbage():
    with pytest.raises(BadLength):
        decode_full((0, 1), 5, 2)
    with pytest.raises(BadParams):
        # all-zero vector has no valid tail (tail must contain the marker)
        decode_full((0,) * 8, 5, 2)


def _bit_string(bits) -> str:
    return "".join(map(str, bits))


# sha256 over every (subspace, bits) line, fixed when the three modes were
# separate code paths; any change to an encoding changes its digest
GRASSMANNIAN_DIGESTS = [
    ("full", 6, 3, "041703389e5fa53c1f94f7a8cd132a8d5689a430dc89a4a92a9e252a99ea0243"),
    ("compact", 6, 3, "3da70d0162c7c55204052199117cf4ca226d5515450299d02b5128054105e4dd"),
    ("full", 7, 3, "bbfc416c48c384aaab484cb562b5ef39e168e889f59da991c62ab0c13180909f"),
    ("compact", 7, 3, "3170892a358a126ecc06d64a09ca0416b53260c028de521145a7b8bbf16d661a"),
]
EXTENDED_DIGESTS = [
    (5, 2, "995b41d445b3d4bff884224e86a27cc6048faef3f257ed6f0993e58ee0f49593"),
    (6, 3, "ff8c17124e460e9d4f3ff17015e21bed839b5224a49d450e9ed291977b4ff068"),
    (7, 3, "5904e4c8ce072b08583734ca84ed39ff1d00abd1be22cf080910bbf9ee2ac22f"),
]
ENCODERS = {"full": encode_full, "compact": encode_full_compact}
DECODERS = {"full": decode_full, "compact": decode_full_compact}


@pytest.mark.parametrize(
    "mode,n,k,digest", GRASSMANNIAN_DIGESTS, ids=[f"{m}-{n}-{k}" for m, n, k, _ in GRASSMANNIAN_DIGESTS]
)
def test_grassmannian_encodings_pinned(mode, n, k, digest):
    enc = ENCODERS[mode]
    lines = (f"{to_literal(u)} {_bit_string(enc(u))}" for u in enumerate_grassmannian(n, k, 2))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("n,k,digest", EXTENDED_DIGESTS, ids=[f"{n}-{k}" for n, k, _ in EXTENDED_DIGESTS])
def test_extended_encoding_pinned(n, k, digest):
    lines = (
        f"{_bit_string(b)} {to_literal(encode_extended(b, n, k))}"
        for b in product((0, 1), repeat=k * (n - k) + 1)
    )
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_extended_is_free_entries_plus_tail():
    n, k = 6, 3
    tails = {(1,), (1, 0), (1, 0, 0), (0, 0, 0)}
    for b in product((0, 1), repeat=k * (n - k) + 1):
        u = encode_extended(b, n, k)
        free = free_entries_row_major(u)
        assert b[: len(free)] == free and b[len(free) :] in tails


def _subspaces(n, k):
    rows = st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=k, max_size=k)
    gf2 = make_field(2, 1)
    return rows.map(lambda r: from_span(r, gf2, n)).filter(lambda u: u.k == k)


@pytest.mark.parametrize("mode", ["full", "compact"])
@pytest.mark.parametrize("n,k", [(8, 4), (9, 4)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grassmannian_roundtrip_at_benchmark_sizes(mode, n, k, data):
    u = data.draw(_subspaces(n, k))
    bits = ENCODERS[mode](u)
    assert len(bits) == k * (n - k) + 2
    assert DECODERS[mode](bits, n, k) == u


@pytest.mark.parametrize("n,k", [(8, 4), (12, 6)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extended_roundtrip_at_benchmark_sizes(n, k, data):
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k * (n - k) + 1, max_size=k * (n - k) + 1)))
    u = encode_extended(bits, n, k)
    assert (u.n, u.k) == (n, k)
    assert decode_extended(u, n, k) == bits


def test_encoders_check_field_and_dimensions():
    gf2, gf3 = make_field(2, 1), make_field(3, 1)
    with pytest.raises(BadParams):
        encode_full(from_literal("1000;0100", gf3, 4))
    with pytest.raises(BadParams):
        encode_full_compact(from_literal("1000;0120", gf3, 4))
    with pytest.raises(BadParams):
        decode_extended(from_literal("10000", gf2, 5), 5, 2)  # a 1-subspace
    with pytest.raises(BadParams):
        decode_extended(from_literal("1000;0100", gf2, 4), 5, 2)  # another ambient space
    with pytest.raises(BadParams):
        decode_extended(from_literal("0010;0001", gf2, 4), 4, 2)  # not in the image
