import pytest

from subspacecodes.errors import BadParams
from subspacecodes.experiments import bound_attainability, hamming_skeleton
from subspacecodes.fixtures import CONSTANT_WEIGHT_WORDS


def test_hamming_skeleton_reproduces_bundled_words(gf2):
    doc = hamming_skeleton(gf2)
    assert doc["skeleton_size"] == 14
    assert doc["skeleton_min_distance"] == 4
    assert set(doc["words"]) == set(CONSTANT_WEIGHT_WORDS["w8k4"])
    assert doc["code_size"] == 4573


def test_bound_attainability_d2_uses_construction(gf2):
    doc = bound_attainability((0, 1, 2), 3, 2, gf2)
    assert doc["method"] == "construction"
    assert doc["found"] is True


def test_bound_attainability_search_reports_only(gf2):
    # full 2x2 box at distance 2: bound exponent 2, attainable
    doc = bound_attainability((0, 0), 2, 2, gf2)
    assert doc["found"] is True
    # a search that comes up empty is a report, not a failure
    doc = bound_attainability((0, 0, 0), 4, 3, gf2, tries=3, seed=1)
    assert doc["method"] in ("random search", "construction")
    assert "found" in doc


def test_bound_attainability_refuses_negative_tries(gf2):
    with pytest.raises(BadParams, match="need tries >= 0, got tries=-5"):
        bound_attainability((0, 0, 0), 3, 3, gf2, tries=-5)
    assert bound_attainability((0, 0, 0), 3, 3, gf2, tries=0)["tries"] == 0
