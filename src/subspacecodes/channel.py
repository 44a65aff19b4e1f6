"""Operator-channel simulation and minimum-distance decoding.

The channel maps an input subspace V to H(V) + E: H projects V onto a
uniformly random (dim V - rho)-dimensional subspace of V, and E is a random
t-dimensional error space intersecting H(V) trivially.  A minimum-distance
decoder recovers V whenever 2(t + rho) is below the code's minimum distance.
With errors only, the received space contains the sent word; with erasures
only, it lies inside it.  The decoder finds such a word by one linear solve
per coset class of the code, and accepts it when twice its distance is
below the code's minimum distance (``SubspaceCode.dmin``, computed once
and kept); anything else goes to the nearest-codeword scan.

The channel works on the rows the subspaces keep, in their field's row
form (``Subspace.rows``; XOR on packed rows over GF(2)): the erasure
product combines rows, and each error vector is tested against the running
span and added to it by elimination, on rows, with one Subspace built at
the end.  A seed gives the same output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .constructions import SubspaceCode
from .distances import distance_fast
from .errors import AmbientMismatch, InfeasibleParams, TooFewCodewords
from .matrices import row_form
from .subspaces import Subspace

_REJECTION_CAP = 64


@dataclass(frozen=True)
class ChannelConfig:
    """Erasure count, error dimension, seed and trial count for a run."""

    rho: int
    t: int
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if self.rho < 0 or self.t < 0 or self.trials < 0:
            raise InfeasibleParams("rho, t and trials must be nonnegative")


@dataclass(frozen=True)
class TrialOutcome:
    """One trial: margin is 2*(t + worst-case erasures); decoding is
    guaranteed whenever it stays below the code's minimum distance."""

    sent: Subspace
    received: Subspace
    decoded: Subspace | None
    success: bool
    channel_distance: int
    margin: int


def _random_full_rank(rng: random.Random, spec, rows: int, cols: int) -> list:
    """Entry rows of a uniform full-rank rows x cols matrix (rows <= cols), by rejection."""
    q, form = spec.order, row_form(spec, cols)
    for _ in range(_REJECTION_CAP):
        m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        if form.rank([form.row_of(row) for row in m]) == rows:
            return m
    raise InfeasibleParams("could not sample a full-rank matrix")


def transmit(v: Subspace, rho: int, t: int, rng: random.Random) -> Subspace:
    """One channel use: erase rho dimensions, then add a t-dim error space.

    The output has dimension dim(V) - rho + t; the error space is sampled
    vector by vector, rejecting vectors that fall inside the running sum.
    """
    spec, n, q = v.spec, v.n, v.spec.order
    if rho > v.k:
        raise InfeasibleParams(f"cannot erase {rho} dimensions from a {v.k}-dim space")
    if t > n - (v.k - rho):
        raise InfeasibleParams("error dimension does not fit the ambient space")

    # the running span is kept as the rows of its reduced echelon form
    form = row_form(spec, n)
    keep = v.k - rho
    if rho == 0:
        rows = v.rows
    elif keep == 0:
        rows = ()
    else:
        coeff = _random_full_rank(rng, spec, keep, v.k)
        rows = form.rref([form.combine(row, v.rows) for row in coeff])
    for _ in range(t):
        for attempt in range(_REJECTION_CAP + 1):
            if attempt == _REJECTION_CAP:
                raise InfeasibleParams("could not sample an error vector outside the span")
            x = form.row_of([rng.randrange(q) for _ in range(n)])
            if form.lead(form.remainder(x, rows)) is not None:  # x is outside the span
                rows = form.rref([*rows, x])
                break
    return v if rows is v.rows else Subspace.from_rows(spec, n, rows)


def min_distance_decode(
    code: SubspaceCode, u: Subspace
) -> tuple[Subspace | None, int]:
    """Closest codeword and its distance, ties broken by code order.

    First the containment stage (``PackedCode.contained``): per coset class,
    one linear solve finds a word U with U ⊆ u or u ⊆ U, at distance
    d = |dim u - dim U|.  When 2d is below the code's minimum distance
    (``code.dmin``, computed on the first decode unless a verify already
    has), U is the unique closest word and decoding stops.
    Otherwise one scan over the code's packed view (``PackedCode.nearest``)
    decides: codewords whose identifying vector is already at Hamming
    distance >= the best subspace distance so far are skipped, which is
    sound because the subspace distance dominates that Hamming distance.
    """
    if len(code) < 1:
        raise TooFewCodewords("decoding needs a nonempty code")
    if u.n != code.n or u.spec != code.spec:
        raise AmbientMismatch("received subspace lives in a different ambient space")
    view = code.packed
    qid, qrows = view.pack_word(u)
    found = view.contained(qid, qrows, code.dmin if len(code) > 1 else None)
    i, d = found if found is not None else view.nearest(qid, qrows, range(len(code)))
    return code.words[i], d


def _trial_rng(seed: int, trial: int) -> random.Random:
    # SplitMix-style stream separation keeps trials independent of ordering
    return random.Random((seed * 0x9E3779B97F4A7C15 + trial) & 0xFFFFFFFFFFFFFFFF)


@dataclass
class SimulationStats:
    config: ChannelConfig
    trials: int
    successes: int
    outcomes: list[TrialOutcome] = field(repr=False, default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0

    def as_dict(self) -> dict:
        return {
            "rho": self.config.rho,
            "t": self.config.t,
            "seed": self.config.seed,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
        }


def simulate(
    code: SubspaceCode, cfg: ChannelConfig, keep_outcomes: bool = False
) -> SimulationStats:
    """Seeded Monte-Carlo run: pick a codeword, transmit, decode, tally.

    Trial r uses a child generator derived from (seed, r), so runs are
    reproducible and order-independent.
    """
    words = code.words
    if not words:
        raise TooFewCodewords("cannot simulate an empty code")
    for k in code.dims:
        if cfg.rho > k or cfg.t > code.n - (k - cfg.rho):
            raise InfeasibleParams(f"(rho={cfg.rho}, t={cfg.t}) infeasible for a {k}-dim codeword")
    max_dim = code.max_dim
    successes = 0
    outcomes: list[TrialOutcome] = []
    for r in range(cfg.trials):
        rng = _trial_rng(cfg.seed, r)
        sent = words[rng.randrange(len(words))]
        received = transmit(sent, cfg.rho, cfg.t, rng)
        decoded, _ = min_distance_decode(code, received)
        ok = decoded is not None and decoded == sent
        if ok:
            successes += 1
        if keep_outcomes:
            dd = distance_fast(sent, received)
            erased = max_dim - (sent.k - cfg.rho)
            outcomes.append(
                TrialOutcome(sent, received, decoded, ok, dd, 2 * (cfg.t + erased))
            )
    return SimulationStats(cfg, cfg.trials, successes, outcomes)
