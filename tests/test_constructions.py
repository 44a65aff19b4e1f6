import hashlib

import pytest

from subspacecodes.codefile import dumps_code, loads_code
from subspacecodes.constructions import (
    ConstantWeightCode,
    SubspaceCode,
    greedy_constant_weight,
    lift,
    lift_gabidulin,
    multilevel,
    multilevel_fixture,
    puncture,
    spread_like,
    spread_like_size,
    _fixture_levels,
    _levels,
    _plant,
    default_ferrers_code,
)
from subspacecodes.distances import distance_fast, min_distance
from subspacecodes.errors import (
    BadParams,
    DeltaUnsupported,
    MissingTopWord,
    ShapeMismatch,
    ShapeViolation,
    SpecialVectorInQ,
    TooLarge,
)
from subspacecodes.fields import extension_view, make_field
from subspacecodes.fixtures import CONSTANT_WEIGHT_WORDS, MULTILEVEL_SIZES
from subspacecodes.matrices import MatGF, row_form
from subspacecodes.rankcodes import ENUMERATION_CAP, FerrersRankCode, ZeroPattern
from subspacecodes.subspaces import (
    IdVector,
    Subspace,
    echelon_ferrers_shape,
    fill_shape,
    full_space,
    zero_subspace,
)
from .conftest import coset_tables


def test_lift_singleton(gf2):
    code = lift([MatGF.zero(gf2, 2, 3)], gf2)
    assert len(code) == 1
    assert code.words[0].gen.entries == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_lift_preserves_count_and_doubles_distance(gf2):
    view = extension_view(gf2, 3)
    code = lift_gabidulin(view, 3, 2)
    assert len(code) == 64
    assert code.n == 6 and code.dims == (3,)
    assert min_distance(code) == 4


def test_lift_shape_mismatch(gf2, gf3):
    with pytest.raises(ShapeMismatch):
        lift([MatGF.zero(gf2, 2, 3), MatGF.zero(gf2, 2, 2)], gf2)
    for spec, mats in [
        (gf2, [[[0, 2, 0], [1, 0, 1]]]),  # an entry outside the field
        (gf2, [[[0, 1, 0], [1, -1, 1]]]),
        (gf3, [[[0, 1, 3], [1, 0, 2]]]),
        (gf2, [[[0, 1, 0], [1, 0]]]),  # ragged rows
        (gf2, [[[0, 1], [1, 0, 1]]]),
        (gf2, [[[0, 1, 0], [1, 0, 1]], [[1, 1, 0]]]),  # mismatched shapes
        (gf2, [[[0, 1, 0], [1, 0, 1]], [[1, 1], [0, 1]]]),
        (gf3, [MatGF.zero(gf3, 2, 3), [[1, 2], [0, 1]]]),
    ]:
        with pytest.raises(ShapeMismatch):
            lift(mats, spec)
    with pytest.raises(BadParams, match="nothing to lift"):
        lift([], gf2)
    # rows of entries lift to the words their matrices lift to
    mats = [[(0, 1, 2), (1, 0, 1)], [(2, 2, 0), (0, 0, 1)]]
    assert lift(mats, gf3).words == lift([MatGF(gf3, m) for m in mats], gf3).words


def test_lift_gabidulin_builds_no_matrix_per_codeword(gf2, matrices_built):
    view = extension_view(gf2, 4)
    start = len(matrices_built)
    code = lift_gabidulin(view, 4, 3)
    assert len(matrices_built) == start
    assert len(code) == 256 and code.n == 8 and code.dims == (4,)
    assert min_distance(code) == 6


def test_multilevel_refuses_delta_below_one(gf2):
    # supplied level codes would otherwise build a code whose distance is
    # not the promised 2 * delta, and the built-in ones would ask for a code
    # that no one can supply
    cw = ConstantWeightCode.from_strings(["11000", "00110"])
    codes = {w: default_ferrers_code(gf2, echelon_ferrers_shape(IdVector(w)), 1, cw.k) for w in cw.words}
    for delta in (0, -1):
        with pytest.raises(BadParams, match=f"need delta >= 1, got delta={delta}"):
            multilevel(cw, delta, gf2, ferrers_codes=codes)
        with pytest.raises(BadParams, match=f"need delta >= 1, got delta={delta}"):
            multilevel(cw, delta, gf2)
    assert len(multilevel(cw, 1, gf2, ferrers_codes=codes)) == 2**6 + 2**2


def test_constant_weight_code_validation():
    cw = ConstantWeightCode.from_strings(["11000", "00110"])
    assert cw.n == 5 and cw.k == 2 and cw.dmin == 4
    with pytest.raises(BadParams):
        ConstantWeightCode.from_strings(["11000", "11100"])
    with pytest.raises(BadParams):
        ConstantWeightCode.from_strings(["11000", "11000"])


@pytest.mark.parametrize("name", sorted(CONSTANT_WEIGHT_WORDS))
def test_multilevel_fixture_sizes(name, gf2):
    code = multilevel_fixture(name, gf2)
    assert len(code) == MULTILEVEL_SIZES[name]
    assert code.kind == "constant-dimension"


@pytest.mark.parametrize("name,dist", [("w5k2", 4), ("w6k3", 4)])
def test_multilevel_distance_exact(name, dist, gf2):
    # distance is exactly 2*delta, not just at least
    code = multilevel_fixture(name, gf2)
    assert min_distance(code) == dist
    brute = min(
        distance_fast(a, b)
        for i, a in enumerate(code.words)
        for b in code.words[i + 1 :]
    )
    assert brute == dist


def test_multilevel_word_identifying_vectors(gf2):
    # every output word keeps the skeleton word it was planted into
    code = multilevel_fixture("w6k3", gf2)
    skeleton = {tuple(int(c) for c in w) for w in CONSTANT_WEIGHT_WORDS["w6k3"]}
    for w in code.words:
        assert w.id_vector.bits in skeleton
        assert w.k == 3


def test_multilevel_requires_top_word(gf2):
    cw = ConstantWeightCode.from_strings(["00110", "11000"])  # top word present
    assert multilevel(cw, 2, gf2)
    bad = ConstantWeightCode.from_strings(["01100", "00011"])
    with pytest.raises(MissingTopWord):
        multilevel(bad, 2, gf2)


def test_multilevel_skeleton_distance_check(gf2):
    cw = ConstantWeightCode.from_strings(["110000", "101000"])  # distance 2
    with pytest.raises(BadParams):
        multilevel(cw, 2, gf2)


def test_multilevel_delta_unsupported(gf2):
    # the second word's free region is a genuine staircase, and delta=3 is
    # neither 1, 2 nor k=4: no built-in level code exists
    cw = ConstantWeightCode.from_strings(["11110000", "10001110"])
    with pytest.raises(DeltaUnsupported):
        multilevel(cw, 3, gf2)


def test_multilevel_delta1_is_whole_grassmannian(gf2):
    from subspacecodes.subspaces import gaussian, identifying_vectors

    cw = ConstantWeightCode(4, 2, tuple(v.bits for v in identifying_vectors(4, 2)))
    code = multilevel(cw, 1, gf2)
    assert len(code) == gaussian(4, 2, 2) == 35


def test_multilevel_gf3(gf2):
    gf3 = make_field(3, 1)
    cw = ConstantWeightCode.from_strings(["11000", "00110"])
    code = multilevel(cw, 2, gf3)
    assert len(code) == 3**3 + 1
    assert min_distance(code) == 4


# sha256 of dumps_code(multilevel_fixture(name, GF(q), aligned)), fixed while
# multilevel still planted each codeword through a matrix and fill_shape.
# GF(3) w8k4 (539,578 words, about 30 s and 0.6 GB to build) was checked by
# hand against the same path: b557e3c83a239154f6b3a0f110ce264c7ad6ef1e190a45c4ef8507e4dfeaae51.
FIXTURE_DIGESTS = {
    ("w8k4", 2, False): "5703dabf2172b45f9b5a05355ce48130c612e826413c03c466c327427184f75d",
    ("w6k3", 2, False): "337da816f3ccb3a440217afa1504377039f66ac99c5f8eadf4720bdeea2c29ef",
    ("w5k2", 2, False): "558fe84a203a25c20393f87631e23dae9f9d62957550fb47cbd41a4c727afe63",
    ("w6k3", 3, False): "45c1b25a7bee2e0ca3ef814927a5f3f0b39c31e8d074e21c3b6d6eb15f230868",
    ("w5k2", 3, False): "d8111f2299068b64eadfa88c8b85e5623c253f0ed644971a8a6ac0b4e57395e3",
    ("w8k4", 2, True): "c2faf229675b7cbd75e48dc8a948e30bc71d538fd7d3c52fd94da2e742ef4501",
}


@pytest.mark.parametrize("name,q,aligned", sorted(FIXTURE_DIGESTS))
def test_fixture_code_files_are_pinned(name, q, aligned):
    text = dumps_code(multilevel_fixture(name, make_field(q, 1), puncture_aligned=aligned))
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGESTS[name, q, aligned]


# sha256 of dumps_code of builds over a composite base field, whose level
# codes and lifts expand through ExtensionView's inverted digit map; fixed
# while expand still solved one linear system over GF(p) per call.
COMPOSITE_DIGESTS = {
    "w6k3 over GF(4)": (
        lambda: multilevel_fixture("w6k3", make_field(2, 2)),
        4117,
        "0306dd8d77cf0ee25af6edabc62df9c1be56ecd8bfd86f18df8bc4004b9dea88",
    ),
    "w5k2 over GF(9)": (
        lambda: multilevel_fixture("w5k2", make_field(3, 2)),
        730,
        "21c22d7ea2796eaf53140ff97a523adf5f0f611531fd9a637446affe6248e6c2",
    ),
    "Gabidulin n=3 d=2 over GF(4)": (
        lambda: lift_gabidulin(extension_view(make_field(2, 2), 3), 3, 2),
        4096,
        "ce77771b1fbc2357cab75502bedeede2945635304480aff18ff8c9e8659ce7b0",
    ),
    "Gabidulin n=2 d=1 over GF(9)": (
        lambda: lift_gabidulin(extension_view(make_field(3, 2), 2), 2, 1),
        6561,
        "fe6b3045c7695e5df2bcc1284334bda53e48d6a4cf61d9b40751004496d14cf4",
    ),
    "spread n=6 k=3 over GF(4)": (
        lambda: spread_like(6, 3, make_field(2, 2)),
        65,
        "4a6fed8d85c74c2d06da19332723b526052405dad527838821f1320252cce1ab",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOSITE_DIGESTS))
def test_composite_field_code_files_are_pinned(name):
    build, size, digest = COMPOSITE_DIGESTS[name]
    code = build()
    assert len(code) == size
    assert hashlib.sha256(dumps_code(code).encode()).hexdigest() == digest


@pytest.mark.parametrize("aligned", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(CONSTANT_WEIGHT_WORDS))
def test_planted_words_equal_fill_shape_of_each_codeword(name, q, aligned):
    # each level, planted as one span, against each codeword planted on its
    # own through fill_shape and fill_free_entries, in the same order; a
    # level of more than 4096 words (the top levels of GF(3) w8k4 and of
    # GF(4) w7k3, w7k4 and w8k4) is checked on the span of its first six
    # basis matrices, and the whole of GF(3) w8k4 by its digest above
    spec = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    cw, codes = _fixture_levels(name, spec, aligned)
    try:
        levels = list(_levels(cw, 2, spec, codes, True))
    except BadParams as e:  # GF(4) w8k4's aligned level codes have rank distance 1
        assert (name, q, aligned, str(e)) == ("w8k4", 4, True, "supplied code has too small a rank distance")
        return
    for v, level in levels:
        if level.size > ENUMERATION_CAP:  # GF(4) w8k4's top level
            with pytest.raises(TooLarge):
                _plant(v, level, spec, {})
        if level.size > 4096:
            level = FerrersRankCode(spec, level.pattern, level.d, level.basis[:6])
        assert _plant(v, level, spec, {}) == [fill_shape(v, m.entries, spec).rows for m in level.codewords()]


def _full_code(spec, word: str):
    return default_ferrers_code(spec, echelon_ferrers_shape(IdVector.from_string(word)), 1, word.count("1"))


def test_supplied_code_off_the_shape_raises_without_verify(gf2):
    # 1100's code has an entry in row 1, column 1 of the box, where the
    # echelon form of 1010 has its second pivot
    cw = ConstantWeightCode.from_strings(["1100", "1010", "0101"])
    codes = {(1, 0, 1, 0): _full_code(gf2, "1100")}
    with pytest.raises(ShapeViolation, match="^matrix does not fit the echelon form of 1010$"):
        multilevel(cw, 1, gf2, ferrers_codes=codes, verify_supplied=False)
    with pytest.raises(BadParams, match="does not fit the shape"):
        multilevel(cw, 1, gf2, ferrers_codes=codes)
    # a code of the wrong size, even with no basis, does not fit either
    codes = {(1, 0, 1, 0): FerrersRankCode(gf2, ZeroPattern((0, 0), 3), 1, ())}
    with pytest.raises(ShapeViolation, match="^matrix does not fit the echelon form of 1010$"):
        multilevel(cw, 1, gf2, ferrers_codes=codes, verify_supplied=False)


def test_supplied_code_with_a_stricter_pattern_builds(gf2):
    cw = ConstantWeightCode.from_strings(["1100", "0011"])
    codes = {(1, 1, 0, 0): _full_code(gf2, "1010")}
    code = multilevel(cw, 1, gf2, ferrers_codes=codes, verify_supplied=False)
    assert len(code) == 8 + 1
    planted = [fill_shape(IdVector.from_string("1100"), m.entries, gf2) for m in codes[1, 1, 0, 0].codewords()]
    assert list(code.words[:8]) == planted


def test_multilevel_builds_one_matrix_per_word(gf2, matrices_built):
    cw, codes = _fixture_levels("w6k3", gf2, False)
    for _ in _levels(cw, 2, gf2, codes, True):
        pass
    bases = len(matrices_built)  # the level codes' own matrices
    matrices_built.clear()
    code = multilevel_fixture("w6k3", gf2)
    assert len(code) == 71
    assert len(matrices_built) <= len(code) + bases


def test_puncture_aligned_fixture_matches_defaults(gf2):
    base = multilevel_fixture("w8k4", gf2)
    aligned = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    assert len(base) == len(aligned) == 4573
    from collections import Counter

    group = lambda code: Counter(w.id_vector.bits for w in code.words)
    assert group(base) == group(aligned)


@pytest.mark.parametrize(
    "n,k,size,dist",
    [(6, 3, 9, 6), (4, 2, 5, 4), (5, 2, 9, 4), (4, 1, 15, 2), (3, 3, 1, None)],
)
def test_spread_like(n, k, size, dist, gf2):
    code = spread_like(n, k, gf2)
    assert len(code) == size == spread_like_size(n, k, 2)
    if dist is not None:
        assert min_distance(code) == dist


def test_spread_like_gf3():
    gf3 = make_field(3, 1)
    code = spread_like(4, 2, gf3)
    assert len(code) == spread_like_size(4, 2, 3) == (3**4 - 1) // (3**2 - 1) == 10
    assert min_distance(code) == 4


def test_spread_like_is_genuine_spread(gf2):
    # k | n: every nonzero vector covered exactly once
    code = spread_like(4, 2, gf2)
    covered = []
    for w in code.words:
        covered.extend(v for v in w.vectors() if any(v))
    assert len(covered) == 15 and len(set(covered)) == 15


def test_puncture_18(gf2):
    c6 = multilevel_fixture("w6k3", gf2)
    p = puncture(c6, (0, 0, 1, 0, 0, 1))
    assert p.n == 5 and len(p) == 18
    assert p.kind == "projective"
    assert min_distance(p) == 3


def test_puncture_cross_level_distance(gf2):
    c6 = multilevel_fixture("w6k3", gf2)
    p = puncture(c6, (0, 0, 1, 0, 0, 1))
    c1 = [w for w in p.words if w.k == 3]
    c2 = [w for w in p.words if w.k == 2]
    assert len(c1) == 9 and len(c2) == 9
    for a in c1:
        assert min(distance_fast(a, b) for b in c2) >= 3
    assert min_distance(SubspaceCode(gf2, 5, c1)) >= 4
    assert min_distance(SubspaceCode(gf2, 5, c2)) >= 4


def test_puncture_573(gf2):
    c8 = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    p = puncture(c8, (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True)
    assert p.n == 7 and len(p) == 573
    sizes = sorted(set(w.k for w in p.words))
    assert sizes == [0, 3, 4, 7]
    assert min_distance(p) == 3


def test_puncture_group_counts(gf2):
    # group-by-group subcode sizes behind the 573-word total
    from collections import Counter

    c8 = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    v = (1, 0, 0, 0, 0, 0, 0, 1)
    c1 = Counter()
    c2 = Counter()
    for w in c8.words:
        idv = "".join(map(str, w.id_vector.bits))
        if all(row[-1] == 0 for row in w.gen.entries):
            c1[idv] += 1
        if w.contains(v):
            c2[idv] += 1
    assert sum(c1.values()) == 289
    assert sum(c2.values()) == 282
    assert c1["11110000"] == 256 and c1["10101010"] == 8
    assert c2["11110000"] == 256 and c2["10100101"] == 2


def test_puncture_special_vector_checks(gf2):
    from subspacecodes.errors import LengthMismatch

    c = multilevel_fixture("w5k2", gf2)
    with pytest.raises(SpecialVectorInQ):
        puncture(c, (1, 0, 0, 0, 0))
    with pytest.raises(LengthMismatch):
        puncture(c, (1, 0, 1))


# sha256 and size of dumps_code(puncture(multilevel_fixture(name, GF(q),
# aligned), v, add_trivial)), fixed while puncture still tested each word
# with Subspace.contains and deduplicated on Subspace.key
PUNCTURED_DIGESTS = {
    ("w8k4", 2, True, "10000001", True): ("56db9cdd60345cf1b1296219cf1c4accadd0b3a2238e86a6a51e6e0bd60ad595", 573),
    ("w8k4", 2, True, "00000001", True): ("31269d1e488e4308a5ffd652fe632c64d2fe78b16868861438a29e8fb16405b4", 384),
    ("w8k4", 2, False, "01010011", False): ("e6e52de6ae04202ede41e7b55b9b63e7fa7d798d4cb581f218937f6d6747ba5f", 562),
    ("w6k3", 2, False, "001001", False): ("c533d718642f20b56c40ed3acff62b639924024a830fee9237ce2de1157a1360", 18),
    ("w6k3", 3, False, "001001", False): ("30836a85fb90ebd313234b936faa731b9fc871988742f314031762e0feb93729", 56),
    ("w6k3", 3, False, "002012", True): ("fd636db652a0bac0754a85d9134c5dcfa3f537c9a4ee091d0571ff47a3e4d24c", 58),
    ("w5k2", 2, False, "11011", True): ("e4cce9b7282c51b18e4db0434d13e5a6cb9b1f57924a2504fbf179b9b09727ee", 6),
    ("w5k2", 3, False, "10202", False): ("40165d6686049d88a067bdd12e59e18c57916eb0585cd962e617e700fdeae2b1", 5),
}


@pytest.mark.parametrize("name,q,aligned,v,add_trivial", sorted(PUNCTURED_DIGESTS))
def test_punctured_code_files_are_pinned(name, q, aligned, v, add_trivial):
    code = multilevel_fixture(name, make_field(q, 1), puncture_aligned=aligned)
    p = puncture(code, tuple(map(int, v)), add_trivial=add_trivial)
    digest, size = PUNCTURED_DIGESTS[name, q, aligned, v, add_trivial]
    assert len(p) == size
    assert hashlib.sha256(dumps_code(p).encode()).hexdigest() == digest


@pytest.mark.parametrize("q,v", [(2, (2, 0, 0, 0, 1)), (2, (1, 0, 0, 0, 3)), (3, (0, 0, 0, 0, -1))])
def test_puncture_rejects_entries_outside_the_field(q, v):
    with pytest.raises(ShapeMismatch, match="outside GF"):
        puncture(multilevel_fixture("w5k2", make_field(q, 1)), v)


def test_puncture_checks_the_special_vector_once(gf2, monkeypatch):
    # the special vector is checked and put in row form once, not once per
    # word through it, and the kept words are deduplicated on their rows
    code = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    form = row_form(gf2, 8)
    vector, calls, keys = form.vector, [], []
    monkeypatch.setattr(form, "vector", lambda v: calls.append(v) or vector(v))
    key = Subspace.key
    monkeypatch.setattr(Subspace, "key", lambda self: keys.append(self) or key(self))
    assert len(puncture(code, (0, 0, 0, 0, 0, 0, 0, 1), add_trivial=True)) == 384
    assert len(calls) == 1 and keys == []


def test_puncture_vacuous(gf2):
    # a code with no codeword through v and none inside the hyperplane
    w = full_space(gf2, 3)
    u = zero_subspace(gf2, 3)
    # single 1-dim word with nonzero last coordinate, not containing v
    from subspacecodes.subspaces import from_span

    word = from_span([(1, 0, 1)], gf2, 3)
    code = SubspaceCode(gf2, 3, [word])
    p = puncture(code, (0, 1, 1))
    assert len(p) == 0


def test_greedy_constant_weight():
    cw = greedy_constant_weight(6, 3, 4)
    assert cw.words[0] == (1, 1, 1, 0, 0, 0)
    assert cw.dmin >= 4
    for a, b in zip(cw.words, cw.words[1:]):
        assert sum(a) == 3 and sum(b) == 3


def test_subspace_code_validation(gf2):
    u = zero_subspace(gf2, 4)
    with pytest.raises(BadParams):
        SubspaceCode(gf2, 4, [u, u])
    mixed = SubspaceCode(gf2, 4, [u, full_space(gf2, 4)])
    assert mixed.kind == "projective"
    assert mixed.dims == (0, 4)


_ROW_CODES = [(name, 2) for name in sorted(CONSTANT_WEIGHT_WORDS)] + [
    (name, 3) for name in sorted(CONSTANT_WEIGHT_WORDS) if name != "w8k4"  # GF(3) w8k4 has 539,578 words
]


def _rows_backed_codes(name, q):
    """A bundled code as built, as loaded from its file, and shortened."""
    spec = make_field(q, 1)
    built = multilevel_fixture(name, spec)
    special = (1,) + (0,) * (built.n - 2) + (1,)
    return [built, loads_code(dumps_code(built)), puncture(built, special, add_trivial=True)]


@pytest.mark.parametrize("name,q", _ROW_CODES)
def test_lazy_words_are_the_subspaces_of_their_rows(name, q):
    for code in _rows_backed_codes(name, q):
        want = [Subspace.from_rows(code.spec, code.n, rows) for rows in code.rows]
        assert code.words == tuple(want)
        assert [hash(w) for w in code.words] == [hash(w) for w in want]
        assert [w.id_vector.packed for w in code.words] == code.ids
        assert all(w.rows is rows for w, rows in zip(code.words, code.rows))


@pytest.mark.parametrize("name,q", _ROW_CODES)
def test_rows_backed_and_words_backed_codes_agree(name, q):
    for code in _rows_backed_codes(name, q):
        words = [Subspace.from_rows(code.spec, code.n, rows) for rows in code.rows]
        other = SubspaceCode(code.spec, code.n, words, kind=code.kind)
        assert other.words == tuple(words)
        assert (len(other), other.ids, other.rows, other.dims) == (len(code), code.ids, code.rows, code.dims)
        ours, theirs = code.packed, other.packed
        assert (ours.ids, ours.rows, ours.classes) == (theirs.ids, theirs.rows, theirs.classes)
        assert coset_tables(ours) == coset_tables(theirs)
        assert ours.decoder == theirs.decoder
        assert code.dmin == other.dmin == min_distance(words)

