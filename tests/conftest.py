import random

import pytest

from subspacecodes.distances import distance_naive
from subspacecodes.fields import make_field
from subspacecodes.matrices import MatGF
from subspacecodes.subspaces import Subspace, from_span


@pytest.fixture
def gf2():
    return make_field(2, 1)


@pytest.fixture
def gf3():
    return make_field(3, 1)


@pytest.fixture
def matrices_built(monkeypatch):
    """The arguments of each MatGF built while the test runs, in order."""
    built = []
    init = MatGF.__init__
    monkeypatch.setattr(MatGF, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    return built


def brute_min_distance(words):
    """Exhaustive pair scan with the definition-level distance."""
    return min(
        distance_naive(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
    )


def coset_tables(view):
    """What a packed view keeps of its classes' coset analyses, as two dicts
    by identifying vector: each class's ``coset`` unless it is False (the
    coset classes, and the classes with a repeated word as None), and each
    coset class's ``coset_minimum``."""
    cosets = {cid: c for cid in view.classes if (c := view.coset(cid)) is not False}
    return cosets, {cid: view.coset_minimum(cid) for cid, c in cosets.items() if c}


def random_subspace(spec, n: int, rng: random.Random, k: int | None = None) -> Subspace:
    """Random subspace by spanning random vectors (dimension <= k)."""
    if k is None:
        k = rng.randrange(0, n + 1)
    vecs = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(k)]
    return from_span(vecs, spec, n)


def span_size(spec, rows, n: int) -> int:
    """Oracle: number of distinct vectors in the row span (exhaustive)."""
    from itertools import product

    seen = set()
    rows = [tuple(r) for r in rows]
    for coeffs in product(range(spec.order), repeat=len(rows)):
        acc = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                acc = [spec.add(a, spec.mul(c, x)) for a, x in zip(acc, row)]
        seen.add(tuple(acc))
    return len(seen)
