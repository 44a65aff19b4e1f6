import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.errors import BadParams, FieldTooLarge, NotPrime
from subspacecodes.fields import (
    ExtensionView,
    FieldSpec,
    extension_view,
    make_field,
    smallest_irreducible,
)


def gf4_mult_table_oracle():
    """Full 4x4 multiplication table by explicit polynomial reduction mod
    x^2 + x + 1 (elements are c0 + 2*c1)."""
    def mul(a, b):
        a0, a1 = a & 1, a >> 1
        b0, b1 = b & 1, b >> 1
        # (a0 + a1 x)(b0 + b1 x) = a0b0 + (a0b1+a1b0) x + a1b1 x^2
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        # x^2 = x + 1
        return ((c0 + c2) & 1) | ((((c1 + c2) & 1)) << 1)

    return {(a, b): mul(a, b) for a in range(4) for b in range(4)}


def test_make_field_small_cases():
    f = make_field(2, 1)
    assert f.order == 2 and f.modulus == (0, 1)
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.mul(2, 2) == 3  # alpha * alpha = alpha + 1
    f3 = make_field(3, 1)
    assert f3.add(2, 2) == 1


def test_gf4_full_table_matches_polynomial_oracle():
    f4 = make_field(2, 2)
    oracle = gf4_mult_table_oracle()
    for (a, b), want in oracle.items():
        assert f4.mul(a, b) == want


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_tables_agree_with_polynomial_arithmetic(p, m):
    # every field of order <= 16; GF(2) multiplies through tables too
    f = make_field(p, m)
    assert f._exp is not None
    for a in range(f.order):
        power = 1
        for e in range(f.order + 1):
            assert f.pow(a, e) == power
            power = f._mul_poly(power, a)
        for b in range(f.order):
            assert f.mul(a, b) == f._mul_poly(a, b)
        if a:
            assert f._mul_poly(a, f.inv(a)) == 1


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 3)
    with pytest.raises(FieldTooLarge):
        make_field(2, 21)


def test_smallest_irreducible_is_deterministic_and_known():
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 1) == (0, 1)  # x


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (2, 4), (3, 2), (2, 8)])
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.order
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    # associativity / distributivity on sampled triples (full for q <= 8)
    triples = (
        itertools.product(els, repeat=3)
        if q <= 8
        else itertools.islice(itertools.product(els, repeat=3), 0, None, max(1, q**3 // 3000))
    )
    for a, b, c in triples:
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_add_neg_sub_against_the_digit_definition(p, m):
    # an element's base-p digits are its polynomial coefficients, and the
    # field adds them digit by digit mod p; a prime field takes `%` on the
    # element itself, GF(4) and GF(9) keep the digit loops
    f = make_field(p, m)

    def digitwise(op, *xs):
        return f.from_digits(op(*ds) % p for ds in zip(*map(f.digits, xs)))

    for a, b in itertools.product(range(f.order), repeat=2):
        assert f.add(a, b) == digitwise(lambda x, y: x + y, a, b)
        assert f.sub(a, b) == digitwise(lambda x, y: x - y, a, b)
        assert f.neg(a) == digitwise(lambda x: -x, a)


def test_frobenius_is_squaring_over_gf2():
    gf2 = make_field(2, 1)
    view = extension_view(gf2, 3)
    f8 = view.ext
    alpha = view.alpha
    assert view.frobenius(alpha, 1) == f8.mul(alpha, alpha)
    # i = m returns x itself ([m] = q^0)
    for x in range(f8.order):
        assert view.frobenius(x, 3) == x
        assert view.frobenius(x, 0) == x
        assert view.frobenius(x, 1) == f8.mul(x, x)


def test_frobenius_gf9_matches_repeated_squaring_oracle():
    gf3 = make_field(3, 1)
    view = extension_view(gf3, 2)
    f9 = view.ext
    for rep in range(9):
        want = rep
        # x^3 by explicit triple product
        want = f9.mul(f9.mul(rep, rep), rep)
        assert view.frobenius(rep, 1) == want


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_frobenius_additivity(p, m):
    base = make_field(p, 1)
    view = extension_view(base, m)
    f = view.ext
    for x in range(f.order):
        for y in range(f.order):
            for i in range(m):
                lhs = view.frobenius(f.add(x, y), i)
                rhs = f.add(view.frobenius(x, i), view.frobenius(y, i))
                assert lhs == rhs


def test_expand_collapse_roundtrip_gf16():
    gf2 = make_field(2, 1)
    view = extension_view(gf2, 4)
    for rep in range(16):
        coords = view.expand(rep)
        assert len(coords) == 4
        assert view.collapse(coords) == rep
    assert view.expand(0) == (0, 0, 0, 0)
    for j, b in enumerate(view.basis):
        unit = tuple(1 if i == j else 0 for i in range(4))
        assert view.expand(b) == unit


def test_expand_is_linear_bijection():
    gf3 = make_field(3, 1)
    view = extension_view(gf3, 2)
    f9 = view.ext
    images = {view.expand(x) for x in range(9)}
    assert len(images) == 9
    for x in range(9):
        for y in range(9):
            sx, sy = view.expand(x), view.expand(y)
            s = tuple(view.base.add(a, b) for a, b in zip(sx, sy))
            assert view.expand(f9.add(x, y)) == s


def test_composite_base_view():
    gf4 = make_field(2, 2)
    view = extension_view(gf4, 2)  # GF(16) over GF(4)
    assert view.ext.order == 16
    for rep in range(16):
        assert view.collapse(view.expand(rep)) == rep
    # embedding respects multiplication
    for a in range(4):
        for b in range(4):
            assert view.embed(gf4.mul(a, b)) == view.ext.mul(view.embed(a), view.embed(b))


def test_field_element_operators():
    # elements are integers in [0, q); the FieldSpec does the arithmetic
    f9 = make_field(3, 2)
    for a in range(9):
        assert f9.neg(f9.neg(a)) == a
        assert f9.pow(a, 0) == 1
        for b in range(9):
            assert f9.sub(f9.add(a, b), b) == a
            if b:
                assert f9.div(f9.mul(a, b), b) == a


def test_field_spec_hash_agrees_with_eq():
    # two equal but distinct FieldSpec objects key one dict entry
    x, y = FieldSpec(3, 1, (0, 1)), FieldSpec(3, 1, (0, 1))
    assert x is not y
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != FieldSpec(5, 1, (0, 1)) and x != 3
    # make_field's cached field and one built directly: the same
    made, built = make_field(2, 3), FieldSpec(2, 3, smallest_irreducible(2, 3))
    assert made is not built and made == built
    assert hash(made) == hash(built) == hash((2, built.modulus)) and len({made, built}) == 1


def test_view_requires_an_extension_field():
    f7, f8 = make_field(7, 1), make_field(2, 3)
    with pytest.raises(BadParams):
        ExtensionView(f7, f8)
    with pytest.raises(BadParams):
        ExtensionView(make_field(2, 2), f8)  # degree 2 does not divide 3
    # the degree-1 view's Frobenius is the identity
    view = extension_view(f7, 1)
    assert all(view.frobenius(x, i) == x for x in range(7) for i in range(3))


@pytest.mark.parametrize("p,a,m", [(2, 1, 4), (3, 1, 2), (2, 2, 2)])
def test_expand_coords_are_base_field_elements(p, a, m):
    # coordinates lie in the base field, collapse inverts expand, and both
    # are linear over the base field
    base = make_field(p, a)
    view = extension_view(base, m)
    ext, mul = view.ext, base.mul
    for x in range(ext.order):
        coords = view.expand(x)
        assert len(coords) == m and all(0 <= c < base.order for c in coords)
        assert view.collapse(coords) == x
        for c in range(base.order):
            scaled = view.expand(ext.mul(view.embed(c), x))
            assert scaled == tuple(mul(c, e) for e in coords)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7))
def test_frobenius_linearity_gf256(x, y, i):
    gf2 = make_field(2, 1)
    view = extension_view(gf2, 8)
    f = view.ext
    assert view.frobenius(f.add(x, y), i) == f.add(
        view.frobenius(x, i), view.frobenius(y, i)
    )
