import ast
import math
import random
import re
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subspacecodes
from subspacecodes.errors import BadParams, ShapeMismatch
from subspacecodes.fields import make_field
from subspacecodes.matrices import (
    MatGF,
    _rref_generic,
    row_form,
    gf2_rank,
    gf2_rref,
    mat_mul,
    nonzero_rows,
    null_space,
    rank,
    row_space_equal,
    rref,
    vconcat,
)
from .conftest import span_size


def _bits(v: int, n: int) -> tuple[int, ...]:
    """Independent of the library's packer: column 0 is the highest bit."""
    return tuple(v >> (n - 1 - j) & 1 for j in range(n))


@st.composite
def _gf2_row_sets(draw):
    """n from 0 to 70 and packed rows: random, zero and repeated rows, and
    for small n more rows than columns."""
    n = draw(st.integers(0, 70))
    fresh = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(fresh, max_size=n + 3 if n <= 8 else 10))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["zero", "repeat", "sum"]))
        if kind == "zero" or not rows:
            extra = 0
        elif kind == "repeat":
            extra = draw(st.sampled_from(rows))
        else:
            extra = draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows))
        rows.insert(at, extra)
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_gf2_row_sets(), st.data())
def test_xor_elimination_against_the_generic_one(case, data):
    gf2 = make_field(2, 1)
    n, packed = case
    rows = [_bits(v, n) for v in packed]
    reduced = gf2_rref(packed)
    red = [_bits(v, n) for v in reduced]
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]  # no zero row is returned
    # the reduced echelon form: pivots move strictly right, pivot entries
    # are 1, and every pivot column is zero in the other rows
    assert pivots == sorted(set(pivots))
    assert all(r[p] == 1 for r, p in zip(red, pivots))
    assert all(r[p] == 0 for i, r in enumerate(red) for j, p in enumerate(pivots) if i != j)
    # the generic elimination on the same rows is the oracle
    work = [list(r) for r in rows]
    rk, generic_pivots = _rref_generic(gf2, work, n)
    assert len(reduced) == rk == gf2_rank(packed) and tuple(pivots) == generic_pivots
    assert red == [tuple(r) for r in work[:rk]]
    m = MatGF(gf2, rows, cols=n)
    r, rk2, piv2 = rref(m)
    assert (rk2, piv2) == (rk, generic_pivots) and rank(m) == rk
    assert r.entries == tuple(red) + ((0,) * n,) * (len(rows) - rk)  # zero rows last
    if n <= 8 and len(rows) <= 8:
        assert span_size(gf2, rows, n) == span_size(gf2, red, n) == 2**rk
    # the product XORs the rows that a's ones select
    a = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)), max_size=4))
    if rows:
        want = [tuple(sum(x * row[j] for x, row in zip(arow, rows)) % 2 for j in range(n)) for arow in a]
        assert mat_mul(MatGF(gf2, a, cols=len(rows)), m).entries == tuple(want)


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
    # a tuple whose rows are all kept is kept too; one with a converted row is not
    kept = ((1, 0, 1), (0, 1, 1))
    assert MatGF(gf2, kept).entries is kept
    bools = ((1, 0, 1), (True, False, 1))
    assert MatGF(gf2, bools).entries is not bools
    assert all(type(x) is int for r in MatGF(gf2, bools).entries for x in r)


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


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2)])
def test_rank_over_gf3_and_gf4_against_the_generic_elimination(p, m, matrices_built):
    # zero rows and zero columns included; rank reduces copies of the rows
    # and builds no matrix of the reduced rows
    spec = make_field(p, m)
    rng = random.Random(p * 10 + m)
    cases = [[], [()], [(), ()], [(0, 0, 0)], [(0, 0, 0), (0, 0, 0)], [(1, 2, 0), (0, 0, 0), (1, 2, 0)]]
    cases += [
        [tuple(rng.randrange(spec.order) for _ in range(n)) for _ in range(k)]
        for n in range(6)
        for k in range(6)
        for _ in range(3)
    ]
    mats = [MatGF(spec, rows, cols=len(rows[0]) if rows else 4) for rows in cases]
    matrices_built.clear()
    for mat in mats:
        assert rank(mat) == _rref_generic(spec, [list(r) for r in mat.entries], mat.cols)[0], mat
    assert matrices_built == []


_ROW_FIELDS = [(2, 1), (3, 1), (2, 2)]


@st.composite
def _row_cases(draw):
    """A field (GF(2), GF(3) or GF(4)), n from 0 and rows of GF(q)^n:
    random, zero, repeated and combined rows."""
    spec = make_field(*draw(st.sampled_from(_ROW_FIELDS)))
    n = draw(st.integers(0, 7))
    vector = st.tuples(*[st.integers(0, spec.order - 1)] * n)
    rows = draw(st.lists(vector, max_size=n + 2))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["zero", "repeat", "sum"]))
        if kind == "zero" or not rows:
            extra = (0,) * n
        elif kind == "repeat":
            extra = draw(st.sampled_from(rows))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(st.integers(1, spec.order - 1))
            extra = tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(a, b))
        rows.insert(at, extra)
    if draw(st.booleans()):  # often a reduced echelon form itself
        work = [list(r) for r in rows]
        rows = [tuple(r) for r in work[: _rref_generic(spec, work, n)[0]]]
    return spec, n, rows


def _combination(spec, coeffs, rows, n):
    """sum c_i rows[i] by field arithmetic, entry by entry."""
    return tuple(reduce(spec.add, (spec.mul(c, r[j]) for c, r in zip(coeffs, rows)), 0) for j in range(n))


@settings(max_examples=300, deadline=None)
@given(_row_cases(), st.data())
def test_row_form_against_field_arithmetic(case, data):
    spec, n, rows = case
    q = spec.order
    form = row_form(spec, n)
    entries = st.integers(0, q - 1)
    # entries <-> rows, one row and a whole matrix at a time
    kept = form.from_entries(tuple(rows))
    assert list(kept) == [form.row_of(r) for r in rows] == [form.vector(r) for r in rows]
    assert list(form.to_entries(kept)) == rows
    assert form.unflatten(form.flatten(kept), len(rows)) == list(kept)
    assert row_form(spec, n * len(rows)).to_entries([form.flatten(kept)]) == [sum(rows, ())]
    for r, x in zip(rows, kept):
        assert tuple(form.entry(x, p) for p in range(n)) == r
        first = next(((j, v) for j, v in enumerate(r) if v), None)
        assert (form.lead(x) is None) == (first is None)
        assert form.code(x) == sum(v * q ** (n - 1 - j) for j, v in enumerate(r))
    # sub_row and scaled
    a, b = (data.draw(st.tuples(*[entries] * n)) for _ in range(2))
    assert form.to_entries([form.sub_row(form.row_of(a), form.row_of(b))]) == [tuple(map(spec.sub, a, b))]
    assert [list(form.to_entries(list(rows))) for rows in form.scaled([form.row_of(a), form.row_of(b)])] == [
        [tuple(spec.mul(c, x) for x in a), tuple(spec.mul(c, x) for x in b)] for c in range(1, q)
    ]
    # rank and rref against the generic elimination
    work = [list(r) for r in rows]
    rk, pivots = _rref_generic(spec, work, n)
    reduced = form.rref(kept)
    assert form.rank(kept) == rk == len(reduced)
    assert list(form.to_entries(reduced)) == [tuple(r) for r in work[:rk]]
    # the combination against the definition and against mat_mul
    coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    combined = form.to_entries([form.combine(coeffs, kept)])[0]
    assert combined == _combination(spec, coeffs, rows, n)
    if rows:
        assert mat_mul(MatGF(spec, [coeffs]), MatGF(spec, rows, cols=n)).entries == (combined,)
    # the reduction contains uses: zero exactly when v is in the span, and
    # zero at every pivot
    v = data.draw(st.tuples(*[entries] * n))
    rest = form.remainder(form.vector(v), reduced)
    assert (form.lead(rest) is None) == (_rref_generic(spec, [*work[:rk], list(v)], n)[0] == rk)
    assert all(form.entry(rest, p) == 0 for p in pivots)
    # the canonical-form check accepts exactly the full-rank reduced forms
    assert form.check(tuple(reduced)) == sum(1 << (n - 1 - p) for p in pivots)
    if rows != [tuple(r) for r in work[:rk]]:
        with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
            form.check(tuple(kept))
    # the span, in product order of the coefficients
    if q**rk <= 81:
        start = form.row_of(data.draw(st.tuples(*[entries] * n)))
        (offset,) = form.to_entries([start])
        got = form.to_entries(form.span(reduced, [start]))
        # extending a span by one row at a time gives the same list
        assert form.span(reduced[1:], form.span(reduced[:1], [start])) == form.span(reduced, [start])
        red = [tuple(r) for r in work[:rk]]
        want = [
            tuple(map(spec.add, offset, _combination(spec, c, red, n))) for c in product(range(q), repeat=rk)
        ]
        assert list(got) == want


def test_vectors_outside_the_space_are_rejected():
    for spec in map(lambda f: make_field(*f), _ROW_FIELDS):
        form = row_form(spec, 3)
        from subspacecodes.errors import LengthMismatch

        with pytest.raises(LengthMismatch, match="vector of length 2, ambient is 3"):
            form.vector((1, 0))
        with pytest.raises(ShapeMismatch, match=f"entry {spec.order} outside GF"):
            form.vector((1, spec.order, 0))
        with pytest.raises(BadParams, match="not a full-rank reduced echelon form"):
            form.check((0,))  # a packed row is no tuple row, and zero is no row


# The branches on the row format that may stay outside ``matrices``: the
# index encodings are defined over GF(2) only, and their codec reads and
# writes packed rows directly.
_ROW_FORMAT_BRANCHES = {
    ("indexing.py", "_to_bits"),
    ("subspaces.py", "fill_free_entries"),
    ("subspaces.py", "free_entries_row_major"),
}


def test_row_format_branches_stay_in_matrices():
    branch = re.compile(r"order [!=]= 2|packed is")
    found = []
    for path in sorted(Path(subspacecodes.__file__).parent.glob("*.py")):
        if path.name == "matrices.py":
            continue
        text = path.read_text()
        functions = [
            node for node in ast.walk(ast.parse(text)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for lineno, line in enumerate(text.splitlines(), 1):
            if branch.search(line):
                inner = [f for f in functions if f.lineno <= lineno <= f.end_lineno]
                name = min(inner, key=lambda f: f.end_lineno - f.lineno).name if inner else None
                found.append((path.name, name, lineno))
    assert [f for f in found if f[:2] not in _ROW_FORMAT_BRANCHES] == []
    assert len(found) <= len(_ROW_FORMAT_BRANCHES)



@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2)])
def test_rank_at_most_one_against_rank(q, m):
    # seeded matrices of rank 0, 1 and above: multiples of one row, with
    # zero rows among them, then one row changed; rows given as a list and
    # as an iterator, which the screen reads once
    spec = make_field(q, m)
    rng = random.Random(1500 + spec.order)
    seen = set()
    for n in (1, 3, 5):
        form = row_form(spec, n)
        for _ in range(150):
            k = rng.randrange(0, 5)
            row = [rng.randrange(spec.order) for _ in range(n)]
            rows = [[spec.mul(rng.randrange(spec.order), x) for x in row] for _ in range(k)]
            if rows and rng.random() < 0.5:
                rows[rng.randrange(k)] = [rng.randrange(spec.order) for _ in range(n)]
            kept = [form.row_of(r) for r in rows]
            rk = _rref_generic(spec, [list(r) for r in rows], n)[0]
            assert form.rank_at_most_one(kept) == (rk <= 1) == form.rank_at_most_one(iter(kept)), (n, rows)
            seen.add(rk)
    assert {0, 1, 2} <= seen


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_parse_is_the_row_of_the_digits(q, m):
    # a bare row literal's row, for n = 0 to 8: every literal of up to 1000
    # (the empty one of n = 0 among them), and seeded ones beyond; over GF(2)
    # the digits are read as one binary number
    spec = make_field(q, m)
    rng = random.Random(2000 + spec.order)
    for n in range(9):
        form = row_form(spec, n)
        if spec.order**n <= 1000:
            literals = ["".join(map(str, digits)) for digits in product(range(spec.order), repeat=n)]
        else:
            literals = ["".join(str(rng.randrange(spec.order)) for _ in range(n)) for _ in range(200)]
            literals += ["0" * n, str(spec.order - 1) * n]
        for digits in literals:
            assert form.parse(digits) == form.row_of(map(int, digits)), (n, digits)


@pytest.mark.parametrize("q", [2, 3])
def test_join_is_the_row_of_the_concatenated_entries(q):
    # a row of any width m followed by a row of the form's width n, for every
    # pair of rows with m, n <= 2 (the empty row among them)
    spec = make_field(q, 1)
    for m, n in product(range(3), repeat=2):
        form, head, whole = row_form(spec, n), row_form(spec, m), row_form(spec, m + n)
        for a, b in product(product(range(q), repeat=m), product(range(q), repeat=n)):
            joined = form.join(head.row_of(a), form.row_of(b))
            assert whole.to_entries([joined]) == [a + b] and joined == whole.row_of(a + b), (m, n, a, b)
            code = head.code(head.row_of(a)) * q**n + form.code(form.row_of(b))
            assert form.code(joined) == whole.code(whole.row_of(a + b)) == code
