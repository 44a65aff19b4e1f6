"""Exploratory searches exposed through the CLI; nothing here is asserted.

bound_attainability searches for a linear rank-metric code on a staircase
pattern whose size meets the pattern bound at a given distance (known to be
achievable at distance 2 via the explicit construction; open in general).
hamming_skeleton rebuilds the length-8 weight-4 skeleton from the extended
Hamming code and reports the resulting constant-dimension code size.
"""

from __future__ import annotations

import random
from itertools import product

from .constructions import ConstantWeightCode, multilevel
from .errors import BadParams
from .fields import FieldSpec
from .matrices import MatGF
from .rankcodes import FerrersRankCode, ZeroPattern, ferrers_bound, ferrers_d2_code


def bound_attainability(
    zeros: tuple[int, ...],
    ncols: int,
    d: int,
    spec: FieldSpec,
    tries: int = 20000,
    seed: int = 0,
) -> dict:
    """Randomized search for a code meeting q^ferrers_bound at distance d.

    Returns a report dict; found=False only means the search failed, not
    that no such code exists.
    """
    if tries < 0:
        raise BadParams(f"need tries >= 0, got tries={tries}")
    pattern = ZeroPattern(tuple(zeros), ncols)
    target_dim = ferrers_bound(pattern, d)
    report = {
        "zeros": list(pattern.zeros),
        "ncols": ncols,
        "distance": d,
        "bound_exponent": target_dim,
        "bound_size": spec.order**target_dim,
        "found": False,
        "tries": 0,
    }
    if d == 2:
        code = ferrers_d2_code(pattern, spec)
        md = code.min_rank_distance() if code.size <= 1 << 16 else None
        report["found"] = code.dim == target_dim and (md is None or md >= 2)
        report["method"] = "construction"
        return report
    if target_dim == 0:
        report["found"] = True
        report["method"] = "zero code"
        return report

    dots = [
        (r, c) for r, z in enumerate(pattern.zeros) for c in range(z, ncols)
    ]
    rng = random.Random(seed)
    q = spec.order
    k, w = pattern.nrows, ncols
    for trial in range(tries):
        basis = []
        for _ in range(target_dim):
            m = [[0] * w for _ in range(k)]
            for r, c in dots:
                m[r][c] = rng.randrange(q)
            basis.append(MatGF(spec, m, cols=w))
        code = FerrersRankCode(spec, pattern, d, basis)
        if code.dim != target_dim or code.size > 1 << 16:
            continue
        md = code.min_rank_distance()
        if md is not None and md >= d:
            report["found"] = True
            report["tries"] = trial + 1
            report["method"] = "random search"
            report["basis"] = [
                [list(row) for row in b.entries] for b in basis
            ]
            return report
    report["tries"] = tries
    report["method"] = "random search"
    return report


EXTENDED_HAMMING_CHECKS = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 1, 1, 0, 0, 1, 1),
    (0, 1, 0, 1, 0, 1, 0, 1),
)


def hamming_skeleton(spec: FieldSpec) -> dict:
    """Weight-4 codewords of the (8,4) extended Hamming code as the skeleton
    of the multilevel construction; reports the assembled code size."""
    words = []
    for bits in product((0, 1), repeat=8):
        if sum(bits) != 4:
            continue
        if all(
            sum(h * b for h, b in zip(check, bits)) % 2 == 0
            for check in EXTENDED_HAMMING_CHECKS
        ):
            words.append(bits)
    words.sort(key=lambda b: tuple(-x for x in b))
    cw = ConstantWeightCode(8, 4, tuple(words))
    code = multilevel(cw, 2, spec)
    return {
        "skeleton_size": len(words),
        "skeleton_min_distance": cw.dmin,
        "words": ["".join(map(str, w)) for w in words],
        "code_size": len(code),
    }
