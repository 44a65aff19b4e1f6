"""Operator-channel simulation and minimum-distance decoding.

The channel maps an input subspace V to H(V) + E: H projects V onto a
uniformly random (dim V - rho)-dimensional subspace of V, and E is a random
t-dimensional error space intersecting H(V) trivially.  A minimum-distance
decoder recovers V whenever 2(t + rho) is below the code's minimum distance.
With errors only, the received space contains the sent word; with erasures
only, it lies inside it.  The decoder finds such a word by one linear solve
per coset class of the code, and leaves anything else to the
nearest-codeword scan.

Over GF(2) the channel works on the packed rows the subspaces keep: the
erasure product XORs rows, and each error vector is tested against the
running span and added to it by XOR elimination.  Every q draws the same
random numbers in the same order, so a seed gives the same output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import xor

from .constructions import SubspaceCode
from .distances import distance_fast
from .errors import AmbientMismatch, InfeasibleParams, TooFewCodewords
from .matrices import MatGF, gf2_rref, mat_mul, pack, rank
from .subspaces import Subspace, from_span, zero_subspace

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


def _random_full_rank(rng: random.Random, spec, rows: int, cols: int) -> MatGF:
    """Uniform full-rank rows x cols matrix by rejection (rows <= cols)."""
    q = spec.order
    for _ in range(_REJECTION_CAP):
        m = MatGF(
            spec,
            tuple(
                tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows)
            ),
            cols=cols,
        )
        if rank(m) == rows:
            return m
    raise InfeasibleParams("could not sample a full-rank matrix")


def transmit(v: Subspace, rho: int, t: int, rng: random.Random) -> Subspace:
    """One channel use: erase rho dimensions, then add a t-dim error space.

    The output has dimension dim(V) - rho + t; the error space is sampled
    vector by vector, rejecting vectors that fall inside the running sum.
    """
    spec = v.spec
    if rho > v.k:
        raise InfeasibleParams(f"cannot erase {rho} dimensions from a {v.k}-dim space")
    if t > v.n - (v.k - rho):
        raise InfeasibleParams("error dimension does not fit the ambient space")

    keep = v.k - rho
    if rho == 0:
        current = v
    elif keep == 0:
        current = zero_subspace(spec, v.n)
    else:
        coeff = _random_full_rank(rng, spec, keep, v.k)
        if v.packed is None:
            current = from_span(mat_mul(coeff, v.gen).entries, spec, v.n)
        else:  # each row of H(V) XORs the rows of V its coefficients select
            combined = (reduce(xor, compress(v.packed, row), 0) for row in coeff.entries)
            current = Subspace.from_packed(spec, v.n, gf2_rref(combined))

    q = spec.order
    for _ in range(t):
        for attempt in range(_REJECTION_CAP + 1):
            if attempt == _REJECTION_CAP:
                raise InfeasibleParams("could not sample an error vector outside the span")
            vec = tuple(rng.randrange(q) for _ in range(v.n))
            if any(vec) and not current.contains(vec):
                current = _span_with(current, vec)
                break
    return current


def _span_with(u: Subspace, vec) -> Subspace:
    """The span of u and one more vector."""
    if u.packed is not None:
        return Subspace.from_packed(u.spec, u.n, gf2_rref([*u.packed, pack(vec)]))
    return from_span([*u.gen.entries, vec], u.spec, u.n)


def min_distance_decode(
    code: SubspaceCode, u: Subspace
) -> tuple[Subspace | None, int]:
    """Closest codeword and its distance, ties broken by code order.

    First the containment stage (``PackedCode.contained``): per coset class,
    one linear solve finds a word U with U ⊆ u or u ⊆ U, at distance
    d = |dim u - dim U|.  When 2d is below a lower bound on the code's
    minimum distance, U is the unique closest word and decoding stops.
    Otherwise one scan over the code's packed view (``PackedCode.nearest``)
    decides: codewords whose identifying vector is already at Hamming
    distance >= the best subspace distance so far are skipped, which is
    sound because the subspace distance dominates that Hamming distance.
    """
    if len(code.words) < 1:
        raise TooFewCodewords("decoding needs a nonempty code")
    if u.n != code.n or u.spec != code.spec:
        raise AmbientMismatch("received subspace lives in a different ambient space")
    view = code.packed
    qid, qrows = view.pack_word(u)
    found = view.contained(qid, qrows)
    i, d = found if found is not None else view.nearest(qid, qrows, range(len(code.words)))
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
