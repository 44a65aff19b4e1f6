import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.errors import ShapeMismatch
from subspacecodes.matrices import (
    MatGF,
    mat_mul,
    nonzero_rows,
    null_space,
    rank,
    row_space_equal,
    rref,
    vconcat,
)
from .conftest import span_size


def test_rref_identity(gf2):
    m = MatGF.identity(gf2, 4)
    r, rk, piv = rref(m)
    assert r == m and rk == 4 and piv == (0, 1, 2, 3)


def test_rows_of_ints_are_kept_and_others_converted(gf2):
    row = (1, 0, 1)
    assert MatGF(gf2, [row]).entries[0] is row
    m = MatGF(gf2, [[1, 0, 1], (True, False, 1)])
    assert m.entries == ((1, 0, 1), (1, 0, 1))
    assert all(type(x) is int for r in m.entries for x in r)


def test_rref_duplicate_row(gf2):
    m = MatGF(gf2, [(1, 0), (1, 0)])
    r, rk, piv = rref(m)
    assert r.entries == ((1, 0), (0, 0))
    assert rk == 1 and piv == (0,)


def test_rref_rank_matches_span_size_oracle(gf2):
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 1)]
    m = MatGF(gf2, rows)
    _, rk, _ = rref(m)
    size = span_size(gf2, rows, 4)
    assert rk == round(math.log(size, 2)) == 3


def test_rref_idempotent_random(gf3):
    rng = random.Random(5)
    for _ in range(50):
        m = MatGF(gf3, [[rng.randrange(3) for _ in range(5)] for _ in range(4)])
        r, rk, piv = rref(m)
        r2, rk2, piv2 = rref(MatGF(gf3, r.entries))
        assert r2 == r and rk2 == rk and piv2 == piv


def test_rref_uniqueness_under_row_operations(gf3):
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(3)]
        m = MatGF(gf3, rows)
        # random invertible recombination of the rows
        mixed = list(rows)
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.randrange(1, 3)
                mixed[i] = [gf3_add(a, c * b % 3) for a, b in zip(mixed[i], mixed[j])]
        assert rref(MatGF(gf3, mixed))[0].entries == rref(m)[0].entries


def gf3_add(a, b):
    return (a + b) % 3


def test_rank_equals_rank_of_transpose(gf2, gf3):
    rng = random.Random(11)
    for spec in (gf2, gf3):
        for _ in range(40):
            m = MatGF(
                spec,
                [[rng.randrange(spec.order) for _ in range(5)] for _ in range(3)],
            )
            assert rank(m) == rank(m.transpose())


def test_vconcat_shapes(gf2):
    a = MatGF(gf2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = MatGF(gf2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    c = vconcat(a, b)
    assert c.rows == 4 and c.cols == 4
    assert rank(vconcat(a, a)) == rank(a)
    with pytest.raises(ShapeMismatch):
        vconcat(a, MatGF(gf2, [(1, 0)]))


def test_vconcat_rank_subadditive(gf2):
    rng = random.Random(13)
    for _ in range(40):
        a = MatGF(gf2, [[rng.randrange(2) for _ in range(6)] for _ in range(3)])
        b = MatGF(gf2, [[rng.randrange(2) for _ in range(6)] for _ in range(2)])
        assert rank(vconcat(a, b)) <= rank(a) + rank(b)


def test_vconcat_intersection_example(gf2):
    # span{1000,0100} and span{1000,0101} share a 1-dimensional intersection
    u = MatGF(gf2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    w = MatGF(gf2, [(1, 0, 0, 0), (0, 1, 0, 1)])
    assert rank(vconcat(u, w)) == 3
    assert span_size(gf2, u.entries + w.entries, 4) == 8


def test_row_space_equal(gf2):
    a = MatGF(gf2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    perm = MatGF(gf2, [(0, 1, 0, 0), (1, 0, 0, 0)])
    assert row_space_equal(a, perm)
    b = MatGF(gf2, [(1, 0, 0, 0), (0, 1, 0, 1)])
    assert not row_space_equal(a, b)
    summed = MatGF(gf2, [(1, 0, 0, 0), (1, 1, 0, 0)])
    assert row_space_equal(a, summed)


def test_zero_row_matrices(gf2):
    z = MatGF.zero(gf2, 0, 4)
    assert z.rows == 0 and z.cols == 4
    r, rk, piv = rref(z)
    assert rk == 0 and piv == ()
    assert nonzero_rows(r) == ()
    m = MatGF(gf2, [(1, 1, 0, 0)])
    assert vconcat(z, m) == m


def test_null_space(gf3):
    m = MatGF(gf3, [(1, 0, 2), (0, 1, 1)])
    ns = null_space(m)
    assert ns.rows == 1
    # every null vector is orthogonal to every row
    for row in m.entries:
        for v in ns.entries:
            acc = 0
            for a, b in zip(row, v):
                acc = gf3.add(acc, gf3.mul(a, b))
            assert acc == 0


def test_mat_mul(gf2):
    a = MatGF(gf2, [(1, 1), (0, 1)])
    b = MatGF(gf2, [(1, 0, 1), (1, 1, 0)])
    c = mat_mul(a, b)
    assert c.entries == ((0, 1, 1), (1, 1, 0))


@given(
    st.integers(2, 3),
    st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_rref_idempotent_property(p, rows):
    from subspacecodes.fields import make_field

    spec = make_field(p, 1)
    m = MatGF(spec, [[x % p for x in row] for row in rows])
    r, rk, piv = rref(m)
    r2, rk2, piv2 = rref(MatGF(spec, r.entries))
    assert (r2, rk2, piv2) == (r, rk, piv)
    assert rk == len(piv)
    assert list(piv) == sorted(piv)
