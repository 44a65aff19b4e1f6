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
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadLength, BadParams, TooLarge
from .fields import make_field
from .matrices import MatGF
from .subspaces import (
    ENUMERATION_CAP,
    IdVector,
    Subspace,
    echelon_ferrers_shape,
    fill_shape,
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
    computed by the Pascal-type recurrence G(n,k) = G(n-1,k-1) + q^k G(n-1,k).
    """
    if not 0 <= k <= n:
        raise BadParams(f"need 0 <= k <= n, got n={n} k={k}")

    def poly(nn: int, kk: int) -> list[int]:
        if kk == 0 or kk == nn:
            return [1]
        a = poly(nn - 1, kk - 1)
        b = poly(nn - 1, kk)
        out = [0] * (kk * (nn - kk) + 1)
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i + kk] += c
        return out

    return tuple(poly(n, k))


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


# -- injection of length k(n-k)+1 vectors -------------------------------------

_GF2 = make_field(2, 1)


def _check_extended_params(n: int, k: int) -> None:
    if k < 2 or n - k < 2:
        raise BadParams("extended encoding needs k >= 2 and n-k >= 2")


def _blocks(x: Bits, count: int, w: int) -> list[Bits]:
    return [x[i * w : (i + 1) * w] for i in range(count)]


def _as_bits(v) -> Bits:
    bits = tuple(int(b) for b in v)
    if any(b not in (0, 1) for b in bits):
        raise BadParams("expected a 0/1 vector")
    return bits


def encode_extended(v, n: int, k: int) -> Subspace:
    """Injective map of length k(n-k)+1 bit vectors into G_2(n,k).

    The trailing bits choose one of four identifying vectors (cases ...1,
    ...10, ...100, ...000); the remaining bits fill that echelon form's free
    entries.  decode_extended inverts exactly.
    """
    _check_extended_params(n, k)
    v = _as_bits(v)
    w = n - k
    if len(v) != k * w + 1:
        raise BadLength(f"expected {k * w + 1} bits, got {len(v)}")

    if v[-1] == 1:
        bl = _blocks(v[: k * w], k, w)
        rows = [(0,) * r + (1,) + (0,) * (k - 1 - r) + bl[r] for r in range(k)]
    elif v[-2:] == (1, 0):
        x = v[: k * w - 1]
        bl = _blocks(x, k - 1, w)
        tail = x[(k - 1) * w :]  # w-1 bits
        rows = [
            (0,) * r + (1,) + (0,) * (k - 2 - r) + (bl[r][0], 0) + bl[r][1:]
            for r in range(k - 1)
        ]
        rows.append((0,) * (k - 1) + (0, 1) + tail)
    elif v[-3:] == (1, 0, 0):
        x = v[: k * w - 2]
        bl = _blocks(x, k - 1, w)
        tail = x[(k - 1) * w :]  # w-2 bits
        rows = [
            (0,) * r + (1,) + (0,) * (k - 2 - r) + bl[r][:2] + (0,) + bl[r][2:]
            for r in range(k - 1)
        ]
        rows.append((0,) * (k - 1) + (0, 0, 1) + tail)
    else:  # ...000
        x = v[: k * w - 2]
        bl = _blocks(x, k - 1, w)
        tail = x[(k - 1) * w :]  # w-2 bits: the k-th block minus two entries
        rows = [
            (0,) * r + (1,) + (0,) * (k - 3 - r) + (bl[r][0], 0, 0) + bl[r][1:]
            for r in range(k - 2)
        ]
        rows.append((0,) * (k - 1) + (1, 0) + bl[k - 2][:-1])
        rows.append((0,) * k + (1,) + (bl[k - 2][-1],) + tail)
    return Subspace(_GF2, n, MatGF(_GF2, tuple(rows), cols=n))


def _extended_ids(n: int, k: int) -> dict[Bits, int]:
    w = n - k
    id1 = (1,) * k + (0,) * w
    id2 = (1,) * (k - 1) + (0, 1) + (0,) * (w - 1)
    id3 = (1,) * (k - 1) + (0, 0, 1) + (0,) * (w - 2)
    id4 = (1,) * (k - 2) + (0, 1, 1) + (0,) * (w - 1)
    return {id1: 1, id2: 2, id3: 3, id4: 4}


def decode_extended(u: Subspace, n: int, k: int) -> Bits:
    """Inverse of encode_extended on its image."""
    _check_extended_params(n, k)
    if u.n != n or u.k != k:
        raise BadParams("subspace has the wrong ambient dimension or dimension")
    w = n - k
    case = _extended_ids(n, k).get(u.id_vector.bits)
    g = u.gen.entries
    if case is None:
        raise BadParams("subspace is not in the image of the encoding")
    if case == 1:
        x = tuple(b for r in range(k) for b in g[r][k:])
        return x + (1,)
    if case == 2:
        blocks = [(g[r][k - 1],) + g[r][k + 1 :] for r in range(k - 1)]
        tail = g[k - 1][k + 1 :]
        return tuple(b for bl in blocks for b in bl) + tail + (1, 0)
    if case == 3:
        blocks = [g[r][k - 1 : k + 1] + g[r][k + 2 :] for r in range(k - 1)]
        tail = g[k - 1][k + 2 :]
        return tuple(b for bl in blocks for b in bl) + tail + (1, 0, 0)
    blocks = [(g[r][k - 2],) + g[r][k + 1 :] for r in range(k - 2)]
    block_km1 = g[k - 2][k + 1 :] + (g[k - 1][k + 1],)
    tail = g[k - 1][k + 2 :]
    return (
        tuple(b for bl in blocks for b in bl) + block_km1 + tail + (0, 0, 0)
    )


# -- total map on the Grassmannian --------------------------------------------


@lru_cache(maxsize=None)
def _class_tables(n: int, k: int):
    """Per identifying vector: the tail bits of its vectors; and the reverse
    lookup keyed by (deficit, tail)."""
    if gaussian(n, k, 2) > ENUMERATION_CAP:
        raise TooLarge(f"Grassmannian of ({n},{k}) exceeds the enumeration cap")
    kw = k * (n - k)
    by_deficit: dict[int, list[Bits]] = {}
    for v in identifying_vectors(n, k):
        dots = echelon_ferrers_shape(v).dot_count
        by_deficit.setdefault(kw - dots, []).append(v.bits)
    tail_of: dict[Bits, Bits] = {}
    id_of: dict[Bits, Bits] = {}
    for i, ids in by_deficit.items():
        if i == 0:
            suffixes: tuple[Bits, ...] = ((1, 0),)
        else:
            suffixes = tuple((1, 0, 0) + s for s in suffix_family(i))
        if len(ids) > len(suffixes):
            raise AssertionError("not enough suffixes for the classes")
        for idbits, tail in zip(ids, suffixes):
            tail_of[idbits] = tail
            id_of[tail] = idbits
    return tail_of, id_of


def encode_full(u: Subspace) -> Bits:
    """Map a binary subspace to its k(n-k)+2 bit vector.

    Prefix: the free entries of the canonical generator matrix in row-major
    order; tail: the marker and suffix of the subspace's echelon class.
    """
    if u.spec.order != 2:
        raise BadParams("the full encoding is defined over GF(2)")
    tail_of, _ = _class_tables(u.n, u.k)
    tail = tail_of[u.id_vector.bits]
    return free_entries_row_major(u) + tail


def decode_full(bits, n: int, k: int) -> Subspace:
    """Inverse of encode_full, by locating the unique parsing tail."""
    bits = _as_bits(bits)
    kw = k * (n - k)
    if len(bits) != kw + 2:
        raise BadLength(f"expected {kw + 2} bits, got {len(bits)}")
    _, id_of = _class_tables(n, k)
    for i in range(kw + 1):
        tail = bits[kw - i :]
        idbits = id_of.get(tail)
        if idbits is None:
            continue
        u = _fill_from_prefix(IdVector(idbits), bits[: kw - i])
        if encode_full(u) == bits:
            return u
    raise BadParams("bit vector is not in the image of the encoding")


def _fill_from_prefix(v: IdVector, prefix: Bits) -> Subspace:
    shape = echelon_ferrers_shape(v)
    cols = shape.box_columns
    col_of = {c: j for j, c in enumerate(cols)}
    mat = [[0] * len(cols) for _ in range(v.weight)]
    it = iter(prefix)
    for r in range(v.weight):
        for c in shape.free_positions[r]:
            mat[r][col_of[c]] = next(it)
    return fill_shape(v, mat, _GF2)


# -- compact variant -----------------------------------------------------------


@lru_cache(maxsize=None)
def _compact_tables(n: int, k: int):
    """Threshold x and the assignment of final-x patterns to shallow-suffix
    classes (deficit <= x-3 keeps the standard tails; deeper classes get a
    reserved final-x pattern padded with zeros)."""
    from math import comb

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

    tail_of, _ = _class_tables(n, k)
    kept_tails = []
    by_deficit: dict[int, list[Bits]] = {}
    for v in identifying_vectors(n, k):
        dots = echelon_ferrers_shape(v).dot_count
        i = kw - dots
        if i <= x - 3:
            kept_tails.append(tail_of[v.bits])
        else:
            by_deficit.setdefault(i, []).append(v.bits)

    blocked = set()
    for tail in kept_tails:
        pad = x - len(tail)
        for m in range(2**pad):
            free_bits = tuple((m >> (pad - 1 - s)) & 1 for s in range(pad))
            blocked.add(free_bits + tail)
    free_patterns = [
        pat
        for m in range(2**x)
        if (pat := tuple((m >> (x - 1 - s)) & 1 for s in range(x))) not in blocked
    ]

    assign: dict[Bits, Bits] = {}
    reverse: dict[Bits, Bits] = {}
    slot = 0
    for i in sorted(by_deficit):
        for idbits in by_deficit[i]:
            pat = free_patterns[slot]
            slot += 1
            tail = (0,) * (i + 2 - x) + pat
            assign[idbits] = tail
            reverse[tail] = idbits
    return x, assign, reverse


def encode_full_compact(u: Subspace) -> Bits:
    """Compact variant: deep classes reuse final-bit patterns unreachable by
    the shallow classes, shortening no vector but wasting fewer suffixes."""
    if u.spec.order != 2:
        raise BadParams("the full encoding is defined over GF(2)")
    _, assign, _ = _compact_tables(u.n, u.k)
    idbits = u.id_vector.bits
    if idbits in assign:
        return free_entries_row_major(u) + assign[idbits]
    return encode_full(u)


def decode_full_compact(bits, n: int, k: int) -> Subspace:
    bits = _as_bits(bits)
    kw = k * (n - k)
    if len(bits) != kw + 2:
        raise BadLength(f"expected {kw + 2} bits, got {len(bits)}")
    _, assign, reverse = _compact_tables(n, k)
    for i in range(kw + 1):
        tail = bits[kw - i :]
        idbits = reverse.get(tail)
        if idbits is not None:
            u = _fill_from_prefix(IdVector(idbits), bits[: kw - i])
            if encode_full_compact(u) == bits:
                return u
    _, id_of = _class_tables(n, k)
    for i in range(kw + 1):
        tail = bits[kw - i :]
        idbits = id_of.get(tail)
        if idbits is not None and idbits not in assign:
            u = _fill_from_prefix(IdVector(idbits), bits[: kw - i])
            if encode_full_compact(u) == bits:
                return u
    raise BadParams("bit vector is not in the image of the compact encoding")
