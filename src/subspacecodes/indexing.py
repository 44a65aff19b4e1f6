"""Index encoding for binary Grassmannians.

Since 2^(k(n-k)+1) < |G_2(n,k)| < 2^(k(n-k)+2) for 1 < k < n, all bit
vectors of length k(n-k)+1 map injectively into k-subspaces of GF(2)^n
(encode_extended), and conversely every k-subspace maps to a distinct bit
vector of length k(n-k)+2 (encode_full).  The full map keys each echelon
class (identifying vector) by its deficit i = k(n-k) - #free entries: the
class's free entries become the prefix and the tail is the marker 100
followed by one of F(i+1) suffix vectors; feasibility holds because the
number of classes at deficit i is a box-partition count p_box(i) <= p(i)
<= F(i+1).

Every mode (extended, full, compact) is the same codec: the free entries of
the echelon form in row-major order, then the tail of the identifying-vector
class (_to_bits, _from_bits).  The modes differ only in their cached
class-to-tail tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import BadLength, BadParams, TooLarge
from .fields import make_field
from .subspaces import (
    ENUMERATION_CAP,
    IdVector,
    Subspace,
    echelon_ferrers_shape,
    fill_free_entries,
    free_entries_row_major,
    gaussian,
    identifying_vectors,
)

Bits = tuple[int, ...]


def fibonacci(i: int) -> int:
    """F(0) = 0, F(1) = 1, F(i) = F(i-1) + F(i-2)."""
    if i < 0:
        raise BadParams("negative index")
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def partition_count(i: int) -> int:
    """Unrestricted partition function p(i)."""
    if i < 0:
        raise BadParams("negative index")
    table = [1] + [0] * i
    for part in range(1, i + 1):
        for total in range(part, i + 1):
            table[total] += table[total - part]
    return table[i]


def partition_fib(i: int) -> tuple[int, int]:
    """(p(i), F(i+1)); the partition count never exceeds the Fibonacci term."""
    return partition_count(i), fibonacci(i + 1)


@lru_cache(maxsize=None)
def box_partition_coeffs(n: int, k: int) -> tuple[int, ...]:
    """Coefficients a_0..a_{k(n-k)} of the Gaussian polynomial [n k]_q.

    a_l is the number of partitions of l whose diagram fits a k by n-k box;
    computed row by row with the Pascal-type recurrence
    G(n,k) = G(n-1,k-1) + q^k G(n-1,k), where G(n-1,n) = 0.
    """
    if not 0 <= k <= n:
        raise BadParams(f"need 0 <= k <= n, got n={n} k={k}")
    row = [[1]]  # G(nn, kk) for kk = 0..min(nn, k), starting at nn = 0
    for nn in range(1, n + 1):
        new = [[1]]
        for kk in range(1, min(nn, k) + 1):
            out = [0] * (kk * (nn - kk) + 1)
            for i, c in enumerate(row[kk - 1]):
                out[i] += c
            for i, c in enumerate(row[kk] if kk < nn else ()):
                out[i + kk] += c
            new.append(out)
        row = new
    return tuple(row[k])


def suffix_family(i: int) -> tuple[Bits, ...]:
    """The F(i+1) suffix vectors of length i-1, ascending by integer value.

    A member is all-zero, or 0..01, or z 1 t 1 with z all-zero and t free of
    two consecutive zeros (lengths >= 0 adding up to i-3).
    """
    if i < 1:
        raise BadParams("need i >= 1")
    length = i - 1
    out: set[Bits] = {(0,) * length}
    if length >= 1:
        out.add((0,) * (length - 1) + (1,))
    for z_len in range(0, length - 1):
        t_len = length - 2 - z_len
        for t in _no_double_zero(t_len):
            out.add((0,) * z_len + (1,) + t + (1,))
    result = tuple(sorted(out))
    assert len(result) == fibonacci(i + 1)
    return result


def _no_double_zero(length: int):
    if length == 0:
        yield ()
        return
    for prefix in _no_double_zero(length - 1):
        if not prefix or prefix[-1] == 1:
            yield prefix + (0,)
        yield prefix + (1,)


def gaussian_power_bounds(n: int, k: int, q: int) -> tuple[bool, bool]:
    """Strict power sandwiches of the Gaussian coefficient, exact arithmetic.

    q = 2: 2^(k(n-k)+1) < [n k] < 2^(k(n-k)+2), requires 1 < k < n.
    q > 2: q^(k(n-k)) < [n k] < q^(k(n-k)+1).
    """
    if q == 2 and not 1 < k < n:
        raise BadParams("binary sandwich needs 1 < k < n")
    if q < 2:
        raise BadParams("q must be at least 2")
    g = gaussian(n, k, q)
    e = k * (n - k)
    if q == 2:
        return (2 ** (e + 1) < g, g < 2 ** (e + 2))
    return (q**e < g, g < q ** (e + 1))


# -- the one codec: free entries plus a class tail ----------------------------

_GF2 = make_field(2, 1)


def _as_bits(v) -> Bits:
    bits = tuple(map(int, v))
    if not set(bits) <= {0, 1}:
        raise BadParams("expected a 0/1 vector")
    return bits


def _to_bits(u: Subspace, n: int, k: int, tail_of: dict[Bits, Bits]) -> Bits:
    """The free entries of u's echelon form in row-major order, then the
    tail of its identifying-vector class."""
    if u.spec.order != 2:
        raise BadParams("the index encodings are defined over GF(2)")
    if u.n != n or u.k != k:
        raise BadParams(
            f"expected a {k}-subspace of GF(2)^{n}, got a {u.k}-subspace of GF(2)^{u.n}"
        )
    tail = tail_of.get(u.id_vector.bits)
    if tail is None:
        raise BadParams("subspace is not in the image of the encoding")
    return free_entries_row_major(u) + tail


def _from_bits(
    bits, length: int, id_of: dict[Bits, IdVector], tail_of: dict[Bits, Bits]
) -> Subspace:
    """Inverse of _to_bits: the shortest tail naming a class whose filled
    echelon form re-encodes to exactly these bits."""
    bits = _as_bits(bits)
    if len(bits) != length:
        raise BadLength(f"expected {length} bits, got {len(bits)}")
    for cut in range(length - 1, -1, -1):
        v = id_of.get(bits[cut:])
        if v is None:
            continue
        u = fill_free_entries(v, bits[:cut], _GF2)
        if _to_bits(u, u.n, u.k, tail_of) == bits:
            return u
    raise BadParams("bit vector is not in the image of the encoding")


def _inverse(tail_of: dict[Bits, Bits]) -> tuple[dict[Bits, Bits], dict[Bits, IdVector]]:
    """(tail per identifying vector, identifying vector per tail)."""
    return tail_of, {tail: IdVector(idbits) for idbits, tail in tail_of.items()}


# -- injection of length k(n-k)+1 vectors -------------------------------------


@lru_cache(maxsize=None)
def _extended_tables(n: int, k: int):
    """Four classes: the lifted identity (deficit 0) with tail 1, the one
    class of deficit 1 with tail 10, and the two of deficit 2 with tails 100
    and 000."""
    if k < 2 or n - k < 2:
        raise BadParams("extended encoding needs k >= 2 and n-k >= 2")
    w = n - k
    return _inverse(
        {
            (1,) * k + (0,) * w: (1,),
            (1,) * (k - 1) + (0, 1) + (0,) * (w - 1): (1, 0),
            (1,) * (k - 1) + (0, 0, 1) + (0,) * (w - 2): (1, 0, 0),
            (1,) * (k - 2) + (0, 1, 1) + (0,) * (w - 1): (0, 0, 0),
        }
    )


def encode_extended(v, n: int, k: int) -> Subspace:
    """Injective map of length k(n-k)+1 bit vectors into G_2(n,k).

    The trailing bits choose one of four identifying vectors (tails 1, 10,
    100, 000); the remaining bits fill that echelon form's free entries in
    row-major order.  decode_extended inverts exactly.
    """
    tail_of, id_of = _extended_tables(n, k)
    return _from_bits(v, k * (n - k) + 1, id_of, tail_of)


def decode_extended(u: Subspace, n: int, k: int) -> Bits:
    """Inverse of encode_extended on its image."""
    return _to_bits(u, n, k, _extended_tables(n, k)[0])


# -- total map on the Grassmannian --------------------------------------------


@lru_cache(maxsize=None)
def _class_tables(n: int, k: int):
    """Per identifying vector: the tail bits of its vectors; and the reverse
    lookup from tail to identifying vector."""
    # the lifted-identity class alone holds 2^(k(n-k)) subspaces, so a large
    # k(n-k) exceeds the cap without computing the Gaussian coefficient
    if k * (n - k) >= ENUMERATION_CAP.bit_length() or gaussian(n, k, 2) > ENUMERATION_CAP:
        raise TooLarge(f"Grassmannian of ({n},{k}) exceeds the enumeration cap")
    tail_of: dict[Bits, Bits] = {}
    for i, ids in _classes_by_deficit(n, k).items():
        if i == 0:
            suffixes: tuple[Bits, ...] = ((1, 0),)
        else:
            suffixes = tuple((1, 0, 0) + s for s in suffix_family(i))
        if len(ids) > len(suffixes):
            raise AssertionError("not enough suffixes for the classes")
        tail_of.update(zip(ids, suffixes))
    return _inverse(tail_of)


def _classes_by_deficit(n: int, k: int) -> dict[int, list[Bits]]:
    """Identifying vectors keyed by deficit k(n-k) - #free entries, each list
    in enumeration order."""
    kw = k * (n - k)
    by_deficit: dict[int, list[Bits]] = {}
    for v in identifying_vectors(n, k):
        by_deficit.setdefault(kw - echelon_ferrers_shape(v).dot_count, []).append(v.bits)
    return by_deficit


def encode_full(u: Subspace) -> Bits:
    """Map a binary subspace to its k(n-k)+2 bit vector.

    Prefix: the free entries of the canonical generator matrix in row-major
    order; tail: the marker and suffix of the subspace's echelon class.
    """
    return _to_bits(u, u.n, u.k, _class_tables(u.n, u.k)[0])


def decode_full(bits, n: int, k: int) -> Subspace:
    """Inverse of encode_full, by locating the unique parsing tail."""
    tail_of, id_of = _class_tables(n, k)
    return _from_bits(bits, k * (n - k) + 2, id_of, tail_of)


# -- compact variant -----------------------------------------------------------


@lru_cache(maxsize=None)
def _compact_tables(n: int, k: int):
    """The full tables with the deep classes reassigned.

    With threshold x, classes of deficit <= x-3 keep their standard tails;
    each deeper class gets a final-x pattern that no shallow tail reaches,
    padded on the left with zeros.
    """
    from math import comb

    tail_of = dict(_class_tables(n, k)[0])
    kw = k * (n - k)
    coeffs = box_partition_coeffs(n, k)
    total_classes = comb(n, k)
    x = None
    for cand in range(2, kw + 3):
        kept = sum(coeffs[i] for i in range(min(cand - 2, kw + 1)))
        used = sum(
            coeffs[i] * 2 ** (cand - 2 - i) for i in range(min(cand - 2, kw + 1))
        )
        if total_classes - kept <= 2**cand - used:
            x = cand
            break
    if x is None:
        raise BadParams("no feasible threshold for the compact encoding")

    by_deficit = _classes_by_deficit(n, k)
    blocked = set()
    for i in range(min(x - 2, kw + 1)):
        for idbits in by_deficit.get(i, ()):
            tail = tail_of[idbits]
            blocked.update(pad + tail for pad in product((0, 1), repeat=x - len(tail)))
    free_patterns = (pat for pat in product((0, 1), repeat=x) if pat not in blocked)
    for i in sorted(by_deficit):
        if i > x - 3:
            for idbits in by_deficit[i]:
                tail_of[idbits] = (0,) * (i + 2 - x) + next(free_patterns)
    return _inverse(tail_of)


def encode_full_compact(u: Subspace) -> Bits:
    """Compact variant: deep classes reuse final-bit patterns unreachable by
    the shallow classes, shortening no vector but wasting fewer suffixes."""
    return _to_bits(u, u.n, u.k, _compact_tables(u.n, u.k)[0])


def decode_full_compact(bits, n: int, k: int) -> Subspace:
    """Inverse of encode_full_compact."""
    tail_of, id_of = _compact_tables(n, k)
    return _from_bits(bits, k * (n - k) + 2, id_of, tail_of)
