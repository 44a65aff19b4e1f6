import math
import random

import pytest

from subspacecodes.errors import BadParams, ShapeMismatch
from subspacecodes.fields import extension_view, make_field
from subspacecodes.matrices import MatGF, rank
from subspacecodes.rankcodes import (
    RankCodeword,
    ZeroPattern,
    ferrers_bound,
    ferrers_d2_code,
    gabidulin,
    rank_distance,
    span_code,
)
from subspacecodes.subspaces import IdVector, echelon_ferrers_shape
from subspacecodes.fixtures import (
    D2_BASIS_3X3,
    D2_BASIS_3X4,
    D2_BASIS_4X4,
    d2_basis_3xn,
)

# Known optimal sizes of distance-2 codes per identifying vector, used both
# as size and bound oracles (the bound is met with equality at distance 2).
D2_SIZES = {
    "11000": 8,
    "00110": 1,
    "111000": 64,
    "100110": 4,
    "010101": 2,
    "001011": 1,
    "1110000": 256,
    "1001100": 16,
    "0101010": 8,
    "0010110": 2,
    "0100101": 2,
    "0011001": 4,
    "1000011": 1,
    "1111000": 256,
    "1100110": 16,
    "1010101": 8,
    "1001011": 2,
    "0101101": 2,
    "0110011": 4,
    "0011110": 1,
    "11110000": 4096,
    "11001100": 256,
    "10101010": 64,
    "10010110": 16,
    "01011010": 16,
    "01100110": 16,
    "00111100": 16,
    "11000011": 16,
    "10100101": 16,
    "10011001": 16,
    "01010101": 8,
    "01101001": 32,
    "00110011": 4,
    "00001111": 1,
}


def test_rank_distance_basic(gf2):
    view = extension_view(gf2, 3)
    x = RankCodeword(view, (1, 2, 3))
    assert rank_distance(x, x) == 0
    # all coordinates equal one nonzero element: rank 1
    y = RankCodeword(view, (0, 0, 0))
    one = RankCodeword(view, (5, 5, 5))
    assert rank_distance(one, y) == 1


def test_rank_distance_matches_matrix_oracle(gf2):
    view = extension_view(gf2, 3)
    ext = view.ext
    rng = random.Random(4)
    for _ in range(200):
        a = RankCodeword(view, [rng.randrange(8) for _ in range(3)])
        b = RankCodeword(view, [rng.randrange(8) for _ in range(3)])
        diff = [ext.sub(x, y) for x, y in zip(a.coords, b.coords)]
        mat = MatGF(gf2, tuple(zip(*(view.expand(c) for c in diff))), cols=3)
        assert rank_distance(a, b) == rank(mat)


def test_rank_codeword_matrix_form(gf2):
    view = extension_view(gf2, 4)
    cw = RankCodeword(view, (3, 7, 0, 9))
    m = cw.matrix_form
    assert (m.rows, m.cols) == (4, 4)
    for j, c in enumerate(cw.coords):
        assert tuple(m.entries[r][j] for r in range(4)) == view.expand(c)


def test_gabidulin_2_3_3(gf2):
    view = extension_view(gf2, 3)
    code = gabidulin(view, 3, 2)
    words = list(code.enumerate())
    assert len(words) == 64 == code.size
    assert len({w.coords for w in words}) == 64
    # exhaustive pair check (2016 pairs)
    dists = [
        rank_distance(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    ]
    assert len(dists) == 2016
    assert min(dists) == 2


def test_gabidulin_full_distance(gf2):
    view = extension_view(gf2, 3)
    code = gabidulin(view, 3, 3)
    words = list(code.enumerate())
    assert len(words) == 8
    for w in words:
        if any(w.coords):
            assert w.rank_norm == 3


def test_gabidulin_sizes(gf2, gf3):
    view = extension_view(gf2, 4)
    assert gabidulin(view, 4, 2).size == 2**12
    assert gabidulin(view, 4, 4).size == 2**4
    view3 = extension_view(gf3, 3)
    assert gabidulin(view3, 3, 2).size == 3**6
    with pytest.raises(BadParams):
        gabidulin(view, 5, 2)


def test_gabidulin_2_4_4_count_and_sampled_distance(gf2):
    # size checked exactly; rank distance checked on sampled pairs
    view = extension_view(gf2, 4)
    code = gabidulin(view, 4, 2)
    words = list(code.enumerate())
    assert len(words) == len({w.coords for w in words}) == 2**12
    rng = random.Random(9)
    for _ in range(400):
        a, b = rng.sample(words, 2)
        assert rank_distance(a, b) >= 2


def test_gabidulin_gf3_min_distance(gf3):
    view = extension_view(gf3, 2)
    code = gabidulin(view, 2, 2)
    assert code.size == 9
    assert code.min_rank_distance() == 2


def test_gabidulin_encode_linear(gf2):
    view = extension_view(gf2, 3)
    code = gabidulin(view, 3, 2)
    ext = view.ext
    rng = random.Random(6)
    for _ in range(50):
        m1 = [rng.randrange(8), rng.randrange(8)]
        m2 = [rng.randrange(8), rng.randrange(8)]
        s = [ext.add(a, b) for a, b in zip(m1, m2)]
        lhs = code.encode(s).coords
        rhs = tuple(
            ext.add(a, b)
            for a, b in zip(code.encode(m1).coords, code.encode(m2).coords)
        )
        assert lhs == rhs


def test_gabidulin_singleton_chain(gf2):
    # min rank distance <= min Hamming distance <= n - log_{q^m} M + 1,
    # with the rank end tight for MRD codes
    view = extension_view(gf2, 3)
    for d in (1, 2, 3):
        code = gabidulin(view, 3, d)
        words = list(code.enumerate())
        min_hamming = min(
            sum(1 for x, y in zip(a.coords, b.coords) if x != y)
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        )
        logsize = math.log(code.size, view.ext.order)
        md = code.min_rank_distance()
        assert md == d
        assert md <= min_hamming <= 3 - logsize + 1 + 1e-9


@pytest.mark.parametrize("word,size", sorted(D2_SIZES.items()))
def test_ferrers_d2_code_sizes_and_bound(word, size, gf2):
    shape = echelon_ferrers_shape(IdVector.from_string(word))
    code = ferrers_d2_code(shape, gf2)
    assert code.size == size
    assert 2 ** ferrers_bound(shape, 2) == size


@pytest.mark.parametrize(
    "word", ["11000", "111000", "100110", "010101", "1001100", "11001100", "01101001"]
)
def test_ferrers_d2_code_distance_and_fit(word, gf2):
    from subspacecodes.subspaces import fits_shape

    shape = echelon_ferrers_shape(IdVector.from_string(word))
    code = ferrers_d2_code(shape, gf2)
    pattern = ZeroPattern.from_shape(shape)
    n_nonzero = 0
    for m in code.codewords():
        assert pattern.admits(m)
        assert fits_shape(shape, m.entries)
        if any(any(r) for r in m.entries):
            n_nonzero += 1
            assert rank(m) >= 2
    assert n_nonzero == code.size - 1
    if code.size > 1:
        assert code.min_rank_distance() == 2


def test_ferrers_bound_full_rectangle():
    # full k x w box, general d: exponent (w)(k-d+1) when k <= w
    for k in (2, 3):
        for w in range(k, 6):
            for d in range(1, k + 1):
                pat = ZeroPattern((0,) * k, w)
                assert ferrers_bound(pat, d) == w * (k - d + 1)


def test_ferrers_bound_never_below_d2_code():
    for word in D2_SIZES:
        shape = echelon_ferrers_shape(IdVector.from_string(word))
        gf2 = make_field(2, 1)
        code = ferrers_d2_code(shape, gf2)
        assert code.size <= 2 ** ferrers_bound(shape, 2)


def test_ferrers_d2_sizes_on_bigger_grid(gf2):
    # size meets the bound on every identifying vector of several (n, k)
    from subspacecodes.subspaces import identifying_vectors

    for n, k in [(5, 2), (6, 3), (7, 3), (7, 4), (8, 4)]:
        for v in identifying_vectors(n, k):
            shape = echelon_ferrers_shape(v)
            code = ferrers_d2_code(shape, gf2)
            assert code.size == 2 ** ferrers_bound(shape, 2)


def test_ferrers_d2_code_gf3():
    gf3 = make_field(3, 1)
    shape = echelon_ferrers_shape(IdVector.from_string("100110"))
    code = ferrers_d2_code(shape, gf3)
    assert code.size == 3 ** ferrers_bound(shape, 2)
    assert code.min_rank_distance() == 2


def test_ferrers_d2_code_composite_base_gf4():
    # the construction solves its system over GF(4), exercising the
    # composite-base coordinate expansion
    gf4 = make_field(2, 2)
    from subspacecodes.subspaces import identifying_vectors

    for v in identifying_vectors(5, 2):
        shape = echelon_ferrers_shape(v)
        code = ferrers_d2_code(shape, gf4)
        assert code.size == 4 ** ferrers_bound(shape, 2)
        if code.size > 1:
            assert code.min_rank_distance() == 2


@pytest.mark.parametrize(
    "name,basis,dim",
    [
        ("3x3", D2_BASIS_3X3, 5),
        ("3x4", D2_BASIS_3X4, 7),
        ("4x4", D2_BASIS_4X4, 11),
        ("3x5", d2_basis_3xn(5), 9),
        ("3x6", d2_basis_3xn(6), 11),
    ],
)
def test_span_fixtures_distance_exactly_2(name, basis, dim, gf2):
    code = span_code(basis, gf2)
    assert code.dim == dim
    assert code.size == 2**dim
    assert code.min_rank_distance() == 2


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_codewords_in_product_order(p, m):
    # every combination of the reduced flattened basis, in
    # product(GF(q), repeat=dim) order with the first basis row most
    # significant, by field arithmetic entry by entry
    from itertools import product

    from subspacecodes.matrices import _rref_generic

    spec = make_field(p, m)
    rng = random.Random(p + m)
    for nr, nc, size in ((2, 3, 3), (3, 2, 4), (1, 4, 2), (2, 2, 5)):
        basis = [[[rng.randrange(spec.order) for _ in range(nc)] for _ in range(nr)] for _ in range(size)]
        basis.append([[spec.add(a, b) for a, b in zip(r, s)] for r, s in zip(basis[0], basis[1])])
        code = span_code(basis, spec)
        flat = [[x for row in b for x in row] for b in basis]
        dim = _rref_generic(spec, flat, nr * nc)[0]
        want = []
        for coeffs in product(range(spec.order), repeat=dim):
            acc = [0] * (nr * nc)
            for c, row in zip(coeffs, flat[:dim]):
                acc = [spec.add(a, spec.mul(c, x)) for a, x in zip(acc, row)]
            want.append(tuple(tuple(acc[r * nc : (r + 1) * nc]) for r in range(nr)))
        got = [cw.entries for cw in code.codewords()]
        assert got == want and len(set(got)) == spec.order**dim == code.size
        assert all(cw.cols == nc for cw in code.codewords())


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_rank_code_of_entry_rows_equals_the_one_of_matrices(p, m, matrices_built):
    # a FerrersRankCode built from each basis matrix's entry rows, lists or
    # tuples, equals the one built from the same MatGFs: the same basis
    # read back, codewords and distance; only reading builds matrices
    from subspacecodes.rankcodes import FerrersRankCode

    spec = make_field(p, m)
    rng = random.Random(41 * p + m)
    for zeros, nc in (((0, 0), 3), ((0, 1, 1), 3), ((0, 0, 2, 4), 4), ((), 2)):
        pattern = ZeroPattern(zeros, nc)
        entries = [
            [[rng.randrange(spec.order) if c >= z else 0 for c in range(nc)] for z in zeros]
            for _ in range(rng.randrange(1, 4))
        ]
        mats = [MatGF(spec, e, cols=nc) for e in entries]
        built = len(matrices_built)
        of_rows = FerrersRankCode(spec, pattern, 2, entries)
        of_tuples = FerrersRankCode(spec, pattern, 2, [tuple(map(tuple, e)) for e in entries])
        assert len(matrices_built) == built
        of_mats = FerrersRankCode(spec, pattern, 2, mats)
        assert of_rows.basis == of_tuples.basis == of_mats.basis == tuple(mats)
        assert list(of_rows.codewords()) == list(of_mats.codewords())
        assert of_rows.min_rank_distance() == of_tuples.min_rank_distance() == of_mats.min_rank_distance()
    with pytest.raises(BadParams, match="^basis matrix violates the zero pattern$"):
        FerrersRankCode(spec, ZeroPattern((0, 1), 2), 2, [[[0, 1], [1, 1]]])
    # entry rows are checked as a MatGF checks its entries
    for bad in ([[[0, 1], [1, spec.order]]], [[[0, 1], [-1, 0]]]):
        with pytest.raises(ShapeMismatch, match="^entry -?[0-9]+ outside GF"):
            span_code(bad, spec)
    with pytest.raises(ShapeMismatch, match="^basis matrices differ in shape$"):
        span_code([[[0, 1], [1]]], spec)


def test_span_code_empty(gf2):
    code = span_code([], gf2)
    assert code.size == 1
    assert list(code.codewords())[0].rows == 0


def test_zero_pattern_validation():
    with pytest.raises(BadParams):
        ZeroPattern((2, 1), 3)  # zeros must not decrease downward
    with pytest.raises(BadParams):
        ZeroPattern((0, 5), 3)
    pat = ZeroPattern((0, 1, 3), 3)
    assert pat.row_dots == (3, 2, 0)
    assert pat.col_dots() == (1, 2, 2)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_min_rank_distance_against_the_definition(p, m):
    # the minimum over the nonzero codewords of the MatGF rank, on seeded
    # span codes, and None for the zero code
    spec = make_field(p, m)
    rng = random.Random(31 * p + m)
    for _ in range(12):
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        size = rng.randrange(0, 4)
        basis = [[[rng.randrange(spec.order) for _ in range(nc)] for _ in range(nr)] for _ in range(size)]
        code = span_code(basis, spec)
        ranks = [rank(cw) for cw in code.codewords() if any(map(any, cw.entries))]
        assert code.min_rank_distance() == min(ranks, default=None)
    assert span_code([], spec).min_rank_distance() is None
    assert span_code([[[0, 0], [0, 0]]], spec).min_rank_distance() is None


def test_min_rank_distance_builds_no_matrix_per_codeword(gf2, matrices_built):
    code = span_code(D2_BASIS_4X4, gf2)
    matrices_built.clear()
    assert code.min_rank_distance() == 2
    assert matrices_built == []


@pytest.mark.parametrize("p,m,deg", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_rank_norm_is_the_rank_of_the_matrix_form(p, m, deg):
    view = extension_view(make_field(p, m), deg)
    rng = random.Random(p * m * deg)
    for _ in range(60):
        cw = RankCodeword(view, [rng.randrange(view.ext.order) for _ in range(rng.randrange(0, 4))])
        assert cw.rank_norm == rank(cw.matrix_form)
