from inspect import isgenerator
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.constructions import SubspaceCode
from subspacecodes.errors import (
    BadParams,
    LengthMismatch,
    ParseError,
    ShapeMismatch,
    ShapeViolation,
    TooLarge,
)
from subspacecodes.fields import FieldSpec, make_field
from subspacecodes.matrices import MatGF, _rref_generic, row_space_equal
from subspacecodes.subspaces import (
    IdVector,
    Subspace,
    _prime_power,
    count_with_id,
    echelon_ferrers_shape,
    enumerate_grassmannian,
    fill_free_entries,
    fill_shape,
    free_entries_row_major,
    literal_rows,
    from_literal,
    from_span,
    full_space,
    gaussian,
    identifying_vector,
    identifying_vectors,
    orthogonal_complement,
    read_point_part,
    subspaces_with_id,
    to_literal,
    zero_subspace,
)
from .conftest import span_size


def test_from_span_known(gf2):
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    assert u.k == 2
    assert u.gen.entries == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert from_span([], gf2, 4).k == 0
    dep = from_span([(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)], gf2, 4)
    assert dep.k == 2
    assert span_size(gf2, [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)], 4) == 4
    with pytest.raises(LengthMismatch):
        from_span([(1, 0)], gf2, 4)
    with pytest.raises(ShapeMismatch, match="entry 2 outside GF"):
        from_span([(1, 0, 2, 0)], gf2, 4)


def test_identifying_vector_examples(gf2):
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    assert str(identifying_vector(u)) == "1100"
    u1 = from_span([(1, 0, 0, 0), (0, 1, 0, 1)], gf2, 4)
    assert str(identifying_vector(u1)) == "1100"
    assert u != u1
    assert str(identifying_vector(zero_subspace(gf2, 4))) == "0000"


def test_echelon_ferrers_shape_example():
    # 0110100 with n=7, k=3: dots per row (3,3,2)
    shape = echelon_ferrers_shape(IdVector.from_string("0110100"))
    assert shape.row_dots == (3, 3, 2)
    assert shape.dot_count == 8
    assert shape.free_positions == ((3, 5, 6), (3, 5, 6), (5, 6))
    # lifted form: k ones first -> full rectangle
    top = echelon_ferrers_shape(IdVector.from_string("1110000"))
    assert top.row_dots == (4, 4, 4)
    # k ones last -> no dots
    bottom = echelon_ferrers_shape(IdVector.from_string("0000111"))
    assert bottom.dot_count == 0


def test_ferrers_property_row_dots_nonincreasing():
    for n, k in [(6, 3), (7, 3), (7, 4), (8, 4)]:
        for v in identifying_vectors(n, k):
            dots = echelon_ferrers_shape(v).row_dots
            assert all(a >= b for a, b in zip(dots, dots[1:]))


def test_count_with_id_examples():
    assert count_with_id(IdVector.from_string("1100"), 2) == 16
    assert count_with_id(IdVector.from_string("0011"), 2) == 1
    assert count_with_id(IdVector.from_string("0011"), 5) == 1
    assert count_with_id(IdVector.from_string("0110100"), 2) == 256


def test_count_with_id_matches_exhaustive_grouping(gf2):
    # group all of G_2(7,3) by identifying vector and compare counts
    from collections import Counter

    counts = Counter()
    for u in enumerate_grassmannian(7, 3, 2):
        counts[u.id_vector.bits] += 1
    for bits, cnt in counts.items():
        assert cnt == count_with_id(IdVector(bits), 2)


def test_fill_shape_example(gf2):
    v = IdVector.from_string("0110100")
    m1 = [(1, 1, 1), (1, 1, 0), (0, 1, 1)]
    u = fill_shape(v, m1, gf2)
    assert u.gen.entries == (
        (0, 1, 0, 1, 0, 1, 1),
        (0, 0, 1, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 1, 1),
    )
    m2 = [(1, 1, 0), (1, 1, 0), (1, 1, 1)]
    with pytest.raises(ShapeViolation):
        fill_shape(v, m2, gf2)
    zero_fill = fill_shape(v, [(0, 0, 0)] * 3, gf2)
    assert zero_fill.gen.entries == (
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
    )


def test_fill_shape_roundtrip_small(gf2, gf3):
    for spec, n, k in [(gf2, 5, 2), (gf2, 6, 3), (gf2, 7, 3), (gf3, 4, 2)]:
        for u in enumerate_grassmannian(n, k, spec.order):
            again = fill_shape(u.id_vector, read_point_part(u), spec)
            assert again == u


def test_fill_free_entries_inverts_free_entries_row_major(gf2, gf3):
    for spec, n, k in [(gf2, 5, 2), (gf2, 6, 3), (gf3, 4, 2), (gf3, 5, 3)]:
        for u in enumerate_grassmannian(n, k, spec.order):
            assert fill_free_entries(u.id_vector, free_entries_row_major(u), spec) == u
    v = IdVector.from_string("0110100")
    with pytest.raises(LengthMismatch):
        fill_free_entries(v, (1,) * 6, gf2)  # the form has 7 free entries


def test_subspaces_with_id_integer_order(gf3):
    v = IdVector.from_string("1010")
    got = [free_entries_row_major(u) for u in subspaces_with_id(v, gf3)]
    assert got == list(product(range(3), repeat=3))


def test_gaussian_values():
    assert gaussian(4, 0, 2) == 1 and gaussian(4, 4, 2) == 1
    assert gaussian(4, 2, 2) == 35
    assert gaussian(6, 3, 2) == 1395
    assert gaussian(4, 2, 3) == 130


def test_gaussian_matches_exhaustive_enumeration(gf2):
    subs = set()
    for vecs in combinations([v for v in product((0, 1), repeat=4) if any(v)], 2):
        u = from_span(vecs, gf2, 4)
        if u.k == 2:
            subs.add(u.key())
    assert len(subs) == gaussian(4, 2, 2) == 35


def test_gaussian_symmetry_and_bounds():
    for n in range(1, 13):
        for k in range(n + 1):
            for q in (2, 3, 4, 5):
                assert gaussian(n, k, q) == gaussian(n, n - k, q)
                if 0 < k < n:
                    e = k * (n - k)
                    assert q**e < gaussian(n, k, q) < 4 * q**e


def test_sum_of_class_sizes_is_gaussian():
    # identity over identifying vectors, q in {2,3}, n <= 7
    for q in (2, 3):
        for n in range(1, 8):
            for k in range(n + 1):
                total = sum(
                    count_with_id(v, q) for v in identifying_vectors(n, k)
                )
                assert total == gaussian(n, k, q)


def test_enumeration_order_and_distinctness(gf2):
    listed = list(enumerate_grassmannian(2, 1, 2))
    assert [to_literal(u) for u in listed] == ["10", "11", "01"]
    g42 = list(enumerate_grassmannian(4, 2, 2))
    assert len(g42) == 35
    assert len({u.key() for u in g42}) == 35
    for a, b in zip(g42, g42[1:]):
        assert not row_space_equal(a.gen, b.gen)
    single = list(enumerate_grassmannian(5, 0, 2))
    assert len(single) == 1 and single[0].k == 0


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        list(enumerate_grassmannian(30, 15, 2, cap=1000))


def test_orthogonal_complement(gf2):
    assert orthogonal_complement(full_space(gf2, 4)).k == 0
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 0)], gf2, 4)
    w = orthogonal_complement(u)
    assert w == from_span([(0, 0, 1, 0), (0, 0, 0, 1)], gf2, 4)
    for s in enumerate_grassmannian(5, 2, 2):
        c = orthogonal_complement(s)
        assert c.k == 3
        assert orthogonal_complement(c) == s


def test_complement_preserves_distance(gf2):
    from subspacecodes.distances import distance_fast

    g42 = list(enumerate_grassmannian(4, 2, 2))
    for u in g42:
        for w in g42:
            assert distance_fast(u, w) == distance_fast(
                orthogonal_complement(u), orthogonal_complement(w)
            )


def test_literals(gf2, gf3):
    u = from_literal("1000;0101", gf2, 4)
    assert to_literal(u) == "1000;0101"
    assert from_literal("", gf2, 4).k == 0
    assert to_literal(zero_subspace(gf2, 4)) == ""
    with pytest.raises(ParseError):
        from_literal("1030", gf3, 4)  # digit 3 invalid over GF(3)
    with pytest.raises(ParseError):
        from_literal("10;0100", gf2, 4)
    with pytest.raises(ParseError):
        from_literal("10²0", gf3, 4)  # a digit to str.isdigit, not to int()


def test_negative_ambient_dimension_is_rejected(gf2):
    with pytest.raises(BadParams, match="ambient dimension must be >= 0, got -1"):
        literal_rows("", gf2, -1)
    with pytest.raises(BadParams, match="ambient dimension must be >= 0, got -1"):
        from_literal("", gf2, -1)
    with pytest.raises(BadParams, match="ambient dimension must be >= 0, got -2"):
        from_span([], gf2, -2)
    assert from_literal("", gf2, 0).k == 0 == from_span([], gf2, 0).n


def test_key_tells_fields_of_one_order_apart():
    # GF(8) from x^3+x+1 and from x^3+x^2+1: same order, different fields
    f1, f2 = FieldSpec(2, 3, (1, 1, 0, 1)), FieldSpec(2, 3, (1, 0, 1, 1))
    u1, u2 = (from_span([(1, 5, 0), (0, 0, 1)], f, 3) for f in (f1, f2))
    assert u1.gen.entries == u2.gen.entries and f1.order == f2.order
    assert u1 != u2 and u1.key() != u2.key()
    assert len({u1, u2}) == 2
    # one field, built twice: still one key
    again = from_span([(1, 5, 0), (0, 0, 1)], FieldSpec(2, 3, (1, 1, 0, 1)), 3)
    assert again == u1 and hash(again) == hash(u1) and len({u1, again}) == 1
    with pytest.raises(BadParams, match="duplicate codewords"):
        SubspaceCode(f1, 3, [u1, again])


def test_subspace_membership(gf2):
    u = from_span([(1, 0, 0, 0), (0, 1, 0, 1)], gf2, 4)
    assert u.contains((1, 1, 0, 1))
    assert not u.contains((0, 0, 1, 0))
    assert zero_subspace(gf2, 4).contains((0, 0, 0, 0))
    with pytest.raises(ShapeMismatch, match="entry 2 outside GF"):
        u.contains((1, 2, 0, 1))
    with pytest.raises(LengthMismatch):
        u.contains((1, 1, 0))
    assert set(u.vectors()) == {
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 1),
        (1, 1, 0, 1),
    }


def test_vectors_are_lazy_with_the_first_coefficient_least_significant(gf2, gf3):
    for spec in (gf2, gf3):
        q = spec.order
        u = from_span([(1, 0, 1, 1), (0, 1, 1, 0)], spec, 4)
        it = u.vectors()
        assert isgenerator(it) and next(it) == (0, 0, 0, 0)
        expected = []
        for idx in range(q * q):
            c0, c1 = idx % q, idx // q
            r0, r1 = u.gen.entries
            expected.append(tuple(spec.add(spec.mul(c0, a), spec.mul(c1, b)) for a, b in zip(r0, r1)))
        assert list(u.vectors()) == expected
    assert list(zero_subspace(gf3, 3).vectors()) == [(0, 0, 0)]


def test_prime_power_factors_large_squares():
    p = 1_000_003  # prime; trial division stops at its square root
    assert _prime_power(p * p) == (p, 2)
    assert _prime_power(2**20) == (2, 20)
    for q in (-1, 0, 1, 6, p * 1_000_033):  # the last: two primes above 10**6
        with pytest.raises(BadParams):
            _prime_power(q)


@st.composite
def _generators(draw):
    """A field, n and a k x n matrix: random, or a canonical form with at
    most one entry changed, so that both outcomes of the check occur."""
    spec = make_field(draw(st.sampled_from([2, 3])), 1)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    rows = st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n)
    m = [list(r) for r in draw(st.lists(rows, min_size=k, max_size=k))]
    if draw(st.booleans()):
        m = m[: _rref_generic(spec, m, n)[0]]
    if m and draw(st.booleans()):
        i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, n - 1))
        m[i][j] = draw(st.integers(0, spec.order - 1))
    return spec, n, MatGF(spec, m, cols=n)


@settings(max_examples=400, deadline=None)
@given(_generators(), st.data())
def test_subspace_accepts_exactly_the_reduced_echelon_forms(case, data):
    # the oracle is the generic elimination, which over GF(2) is not the
    # XOR path the constructor and ``contains`` run on packed rows
    spec, n, x = case
    work = [list(r) for r in x.entries]
    rk, pivots = _rref_generic(spec, work, n)
    canonical = rk == x.rows and tuple(map(tuple, work[:rk])) == x.entries
    if not canonical:
        with pytest.raises(BadParams):
            Subspace(spec, n, x)
        return
    u = Subspace(spec, n, x)
    assert u.k == rk and u.id_vector.support == pivots
    v = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n))
    assert u.contains(v) == (_rref_generic(spec, [*work, v], n)[0] == u.k)


@pytest.mark.parametrize(
    "q,rows",
    [
        (2, ["1000", "0000"]),  # a zero row
        (2, ["0000"]),
        (3, ["2000"]),  # a pivot that is not 1
        (3, ["1000", "0210"]),
        (2, ["0100", "1000"]),  # pivots out of order
        (2, ["1000", "1100"]),  # two rows share a pivot column
        (2, ["1100", "0100"]),  # a nonzero entry in a pivot column
        (3, ["1020", "0010"]),
    ],
)
def test_subspace_rejects_non_canonical_generators(q, rows):
    spec = make_field(q, 1)
    with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
        Subspace(spec, 4, MatGF(spec, [tuple(map(int, r)) for r in rows]))
    # rows in the field's row form get the same check, and the same message
    packed = [int(r, 2) if q == 2 else tuple(map(int, r)) for r in rows]
    with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
        Subspace.from_rows(spec, 4, packed)


def test_from_rows_rejects_rows_outside_the_ambient_space(gf2, gf3):
    for rows in ([0b10000], [-0b1000], [0b1000, -0b100], [(1, 0, 0, 0)]):
        with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
            Subspace.from_rows(gf2, 4, rows)
    for rows in ([0b1000], [(1, 0, 0)], [(1, 0, 0, 0, 0)], [[1, 0, 0, 0]],
                 [(1, 0, 3, 0)], [(1, 0, -1, 0)], [(1, 0, 1.5, 0)], [(1, 0, 2.0, 0)],
                 [(1, True, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, "2")]):
        with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
            Subspace.from_rows(gf3, 4, rows)
    assert Subspace.from_rows(gf2, 4, [0b1010, 0b0111]) == from_literal("1010;0111", gf2, 4)
    assert Subspace.from_rows(gf3, 4, [(1, 0, 2, 0), (0, 1, 1, 2)]) == from_literal("1020;0112", gf3, 4)


def _packed_by_hand(u) -> tuple[int, ...]:
    return tuple(int("".join(map(str, row)), 2) for row in u.gen.entries)


def test_packed_rows_on_every_route(gf2, gf3, matrices_built):
    # over GF(2) a subspace keeps its rows packed; over GF(3) its rows are
    # the generator's own tuple.  No route builds a matrix for its words: a
    # word's generator is built from its rows each time it is read
    import random as _random

    from subspacecodes import codefile
    from subspacecodes.channel import transmit
    from subspacecodes.constructions import (
        _fixture_levels,
        _levels,
        _rect_mrd_code,
        lift,
        lift_gabidulin,
        multilevel_fixture,
        puncture,
        spread_like,
    )
    from subspacecodes.fields import extension_view

    for spec in (gf2, gf3):
        q = spec.order
        rng = _random.Random(8)
        view = extension_view(spec, 3)
        text = codefile.dumps_code(multilevel_fixture("w5k2", spec))
        # the level codes' own basis matrices, which multilevel and
        # spread_like build once per level
        start = len(matrices_built)
        cw, codes = _fixture_levels("w6k3", spec, False)
        list(_levels(cw, 2, spec, codes, True))
        bases = {"multilevel": len(matrices_built) - start}
        start = len(matrices_built)
        for width in (4, 2, 0):
            _rect_mrd_code(spec, 2, width)
        bases["spread"] = len(matrices_built) - start
        makers = {
            "from_span": lambda: [from_span([[rng.randrange(q) for _ in range(7)] for _ in range(4)], spec, 7) for _ in range(20)],
            "fill_free_entries": lambda: subspaces_with_id(IdVector.from_string("0101100" if q == 2 else "01011"), spec),
            "multilevel": lambda: multilevel_fixture("w6k3", spec).words,
            "lift": lambda: lift([[m[:3], m[3:]] for m in list(product(range(q), repeat=6))[:30]], spec).words,
            "lift_gabidulin": lambda: lift_gabidulin(view, 3, 2).words,
            "spread": lambda: spread_like(6, 2, spec).words,
            "loads_code": lambda: codefile.loads_code(text).words,
            "transmit": lambda: [transmit(w, rho, t, rng) for w in routes["multilevel"] for rho, t in ((0, 1), (1, 1), (2, 0))],
            "puncture": lambda: puncture(SubspaceCode(spec, 6, routes["multilevel"]), (0, 0, 1, 0, 0, 1), add_trivial=True).words,
            "zero_subspace": lambda: [zero_subspace(spec, n) for n in range(5)],
            "full_space": lambda: [full_space(spec, n) for n in range(5)],
        }
        routes = {}
        for name, make in makers.items():
            start = len(matrices_built)
            routes[name] = list(make())
            assert len(matrices_built) - start == bases.get(name, 0), name
        # orthogonal_complement reads its argument's generator
        routes["orthogonal_complement"] = [orthogonal_complement(u) for u in routes["from_span"] + routes["lift"]]
        for name, words in routes.items():
            assert words, name
            for u in words:
                # built on each read: the matrix of the rows' entries, built eagerly
                eager = MatGF(spec, [_entries_by_hand(spec, u.n, row) for row in u.rows], cols=u.n)
                start = len(matrices_built)
                gen = u.gen
                assert len(matrices_built) == start + 1, name
                assert gen == eager and gen.cols == u.n and gen is not u.gen, name
                if q == 2:
                    assert type(u.rows) is tuple and u.rows == _packed_by_hand(u), name
                else:
                    assert u.rows is gen.entries, name
                assert u.id_vector.packed == int("".join(map(str, u.id_vector.bits)) or "0", 2), name


def _entries_by_hand(spec, n, row) -> tuple[int, ...]:
    return tuple(map(int, format(row, "b").zfill(n))) if spec.order == 2 else row


def test_loading_and_verifying_build_no_matrix(gf2, matrices_built):
    # the 573-word shortening: loaded and verified on rows alone, no word
    # builds its generator, and words with the same pivots share one
    # identifying vector
    from subspacecodes import codefile
    from subspacecodes.constructions import multilevel_fixture, puncture
    from subspacecodes.distances import min_distance

    code = puncture(
        multilevel_fixture("w8k4", gf2, puncture_aligned=True), (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True
    )
    text = codefile.dumps_code(code)
    built = matrices_built
    built.clear()
    loaded = codefile.loads_code(text)
    assert min_distance(loaded) == 3
    assert built == []
    by_pivots = {}
    for w in loaded:
        by_pivots.setdefault(w.id_vector.bits, set()).add(id(w.id_vector))
    assert len(by_pivots) == len(loaded.packed.classes)
    assert all(len(ids) == 1 for ids in by_pivots.values())
    assert loaded.words[5].gen.entries == code.words[5].gen.entries and len(built) == 2


def test_repr_writes_every_entry_of_the_q_11_spread_once(gf2, gf3):
    # over GF(11) the entry 10 takes two digits, so a row literal reads
    # back as a longer row; the repr separates the entries there, and
    # each word of the spread reads back as its own rows
    from subspacecodes.constructions import spread_like
    from subspacecodes.subspaces import field_for_order

    gf11 = field_for_order(11)
    code = spread_like(4, 2, gf11)
    texts = [repr(w) for w in code.words]
    assert len(set(texts)) == len(texts) == len(code)
    word = Subspace(gf11, 4, MatGF(gf11, [[1, 0, 0, 1], [0, 1, 10, 0]]))
    assert word in code.words
    assert repr(word) == "Subspace('1,0,0,1;0,1,10,0', n=4, GF(11))"
    for w, text in zip(code.words, texts):
        lit = text.split("'")[1]
        assert tuple(tuple(map(int, row.split(","))) for row in lit.split(";")) == w.gen.entries
    assert any("10" in text for text in texts)
    # q <= 10 keeps the digit literal
    assert repr(from_literal("1001;0100", gf2, 4)) == "Subspace('1001;0100', n=4, GF(2))"
    assert repr(from_literal("102;011", gf3, 3)) == "Subspace('102;011', n=3, GF(3))"
    assert repr(zero_subspace(gf11, 4)) == "Subspace('', n=4, GF(11))"
