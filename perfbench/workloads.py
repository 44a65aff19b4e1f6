"""The benchmark's workloads, run through the library's public functions.

Each workload is a ``Plan``: codes to certify (construct, save, load,
verify the minimum distance), a code to run operator-channel trials
against, and Grassmannian index round trips.  A pass builds the codes and
verifies them once, and around the verify it repeats one round of fixed
work until the seconds are up: verifying a saved code again, a fixed set of
channel trials, or a fixed set of index round trips.  The headline rate is
taken from the fastest round, because on a shared machine other work can
slow a round down but never speed it up.  A run does the set-up once,
then one measured pass with tracing off.  A traced run then repeats the
pass with the same inputs and the same number of rounds, with spans
around every library call, and the difference in wall time between the two
passes is the tracing overhead.

Every answer is checked exactly as it is produced; a check that fails, or a
call that raises, counts as a failed operation and the run goes on.  One
caller in one thread drives everything (a closed loop), so no work ever
waits in a queue and there are no waiting times to report.
"""

from __future__ import annotations

import os
import random
import resource
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from subspacecodes import channel, codefile, distances, indexing, subspaces
from subspacecodes.constructions import SubspaceCode, multilevel_fixture, puncture

from tracing import NULL, Tracer, durations, percentile, self_times

try:  # a later change may delete the kernel module; the benchmark must not care
    from subspacecodes import kernels
except ImportError:
    kernels = None

GF2 = subspaces.field_for_order(2)

# Bits beyond k(n-k) in each index encoding's vectors.
INDEX_EXTRA_BITS = {"full": 2, "compact": 2, "extended": 1}
CODECS = {
    "full": (indexing.encode_full, indexing.decode_full),
    "compact": (indexing.encode_full_compact, indexing.decode_full_compact),
}
FAST_SAMPLE = 100  # seeded codeword pairs per certified code for distance_fast

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}
LAYERS = ("bench", "constructions", "codefile", "subspaces", "distances", "kernels", "channel", "indexing")
PER_LAYER = {
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "constructions.multilevel_s": "s",
    "constructions.puncture_s": "s",
    "codefile.save_s": "s",
    "codefile.load_s": "s",
    "codefile.bytes": "bytes",
    "distances.min_distance_s": "s",
    "distances.pairs": "count",
    "distances.pairs_per_s": "1/s",
    "distances.distance_fast_us": "us",
    "kernels.calls": "count",
    "channel.transmit_ms_p50": "ms",
    "channel.decode_ms_p50": "ms",
    "channel.simulate_s": "s",
    "channel.trials": "count",
    "channel.successes": "count",
    "channel.guarantee_violations": "count",
    "subspaces.from_span_us_p50": "us",
    **{f"indexing.{op}_{mode}_us": "us" for mode in INDEX_EXTRA_BITS for op in ("encode", "decode")},
    "indexing.first_call_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class CodeSpec:
    """A bundled multilevel code, optionally shortened, and what it must be."""

    label: str
    fixture: str
    q: int
    size: int
    d: int
    aligned: bool = False
    special: tuple[int, ...] | None = None
    add_trivial: bool = False


@dataclass(frozen=True)
class Plan:
    certify: tuple[CodeSpec, ...] = ()
    reverify: CodeSpec | None = None  # a certified code whose file each round verifies again
    decode: CodeSpec | None = None
    mixes: tuple[tuple[int, int], ...] = ()  # (t, rho) per channel mix
    batch: int = 12  # direct trials per round and mix
    simulate: int = 2  # trials of the one simulate call per round and mix
    index: tuple[tuple[str, int, int], ...] = ()  # (mode, n, k)
    per_case: int = 16  # seeded inputs per index case, all of them in every round

    def __post_init__(self):
        for t, rho in self.mixes:
            if 2 * (t + rho) >= self.decode.d:
                raise ValueError(f"mix t={t} rho={rho} is outside the decoding guarantee")


W8K4 = CodeSpec("w8k4", "w8k4", 2, 4573, 4)
W8K4_P573 = CodeSpec("w8k4-p573", "w8k4", 2, 573, 3, aligned=True, special=(1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True)
W6K3_P18 = CodeSpec("w6k3-p18", "w6k3", 2, 18, 3, special=(0, 0, 1, 0, 0, 1))
W6K3_Q3 = CodeSpec("w6k3-q3", "w6k3", 3, 742, 4)
W5K2 = CodeSpec("w5k2", "w5k2", 2, 9, 4)
W5K2_Q3 = CodeSpec("w5k2-q3", "w5k2", 3, 28, 4)

WORKLOADS = {
    "certify-w8k4": Plan(certify=(W8K4, W8K4_P573), reverify=W8K4_P573),
    "decode-w8k4": Plan(decode=W8K4, mixes=((1, 0), (0, 1))),
    "gf3-w6k3": Plan(certify=(W6K3_Q3,), decode=W6K3_Q3, mixes=((1, 0),), simulate=4),
    "index-g2": Plan(
        index=(
            ("full", 8, 4),
            ("compact", 8, 4),
            ("full", 9, 4),
            ("compact", 9, 4),
            ("extended", 8, 4),
            ("extended", 12, 6),
        )
    ),
}

# The same workloads shrunk to run in about a second each (the self-test).
TINY = {
    "certify-w8k4": Plan(certify=(CodeSpec("w6k3", "w6k3", 2, 71, 4), W6K3_P18), reverify=W6K3_P18),
    "decode-w8k4": Plan(decode=W5K2, mixes=((1, 0), (0, 1)), batch=2),
    "gf3-w6k3": Plan(certify=(W5K2_Q3,), decode=W5K2_Q3, mixes=((1, 0),), batch=2),
    "index-g2": Plan(index=(("full", 5, 2), ("compact", 5, 2), ("extended", 4, 2), ("extended", 5, 2)), per_case=2),
}


class Tally:
    """Operations attempted and failed, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, n: int, bad: int, what: str) -> None:
        self.attempted += n
        self.failed += bad
        if bad:
            self.errors.append(what)

    def crash(self, n: int, what: str) -> None:
        last = traceback.format_exc().strip().splitlines()[-1]
        self.record(n, n, f"{what}: {last}")


@dataclass
class Inputs:
    workdir: str
    tally: Tally = field(default_factory=Tally)
    decode_code: SubspaceCode | None = None
    pools: dict = field(default_factory=dict)
    bytes: int = 0


class Pass(Tally):
    """Measurements of one pass over a plan."""

    def __init__(self):
        super().__init__()
        self.wall_s = self.build_s = self.verify_s = self.sim_s = 0.0
        self.pairs = self.certified_pairs = self.bytes = self.sim_trials = 0
        self.round_s: list[float] = []  # per complete round: time of its counted operations
        self.round_ops = 0  # operations counted in each round
        self.trials = self.successes = self.violations = 0
        self.decode_s: list[float] = []  # per direct min_distance_decode call
        self.trials_s = 0.0  # in direct trials: transmit, decode and check
        self.index_s: list[float] = []
        self.codes: dict[CodeSpec, SubspaceCode] = {}
        self.paths: dict[CodeSpec, str] = {}
        self.rounds_done: dict[int, int] = {}  # rounds per half of the pass, for the replay


def build(spec: CodeSpec, tracer) -> SubspaceCode:
    """Construct the code and shorten it if asked."""
    fld = subspaces.field_for_order(spec.q)
    code = tracer.call(
        "constructions.multilevel_fixture", multilevel_fixture, spec.fixture, fld, puncture_aligned=spec.aligned
    )
    if spec.special is not None:
        code = tracer.call("constructions.puncture", puncture, code, spec.special, add_trivial=spec.add_trivial)
    return code


def shuffled(code: SubspaceCode, rng: random.Random) -> SubspaceCode:
    """The code with its words in a seeded order."""
    words = list(code.words)
    rng.shuffle(words)
    return SubspaceCode(code.spec, code.n, words, kind=code.kind)


def spanning_set(basis, rng: random.Random) -> list[tuple[int, ...]]:
    """Another basis of the same GF(2) space plus two dependent rows, shuffled."""
    rows = [list(r) for r in basis]
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and rng.randrange(2):
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    for _ in range(2):
        extra = [0] * len(rows[0])
        for r in rows[: len(basis)]:
            if rng.randrange(2):
                extra = [a ^ b for a, b in zip(extra, r)]
        rows.append(extra)
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def index_pool(case, rng: random.Random, size: int) -> list:
    """(spanning set, expected bits) inputs; bits only for the extended mode,
    whose encoding is injective but not onto the Grassmannian."""
    mode, n, k = case
    out = []
    while len(out) < size:
        if mode == "extended":
            target = tuple(rng.randrange(2) for _ in range(k * (n - k) + 1))
            basis = indexing.encode_extended(target, n, k).gen.entries
        else:
            target = None
            basis = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
            if subspaces.from_span(basis, GF2, n).k != k:
                continue
        out.append((spanning_set(basis, rng), target))
    return out


def setup(plan: Plan, seed: int, workdir: str, tracer) -> Inputs:
    """Input generation and lazy set-up: the decode code's file and tables."""
    rng = random.Random(f"{seed}/setup")
    inputs = Inputs(workdir)
    spec = plan.decode
    if spec is not None and spec not in plan.certify:
        path = os.path.join(workdir, f"{spec.label}.json")
        tracer.call("codefile.save_code", codefile.save_code, build(spec, tracer), path)
        inputs.bytes += os.path.getsize(path)
        code = tracer.call("codefile.load_code", codefile.load_code, path)
        inputs.tally.record(1, len(code) != spec.size, f"{spec.label}: {len(code)} words, expected {spec.size}")
        inputs.decode_code = code
    for case in plan.index:
        pool = index_pool(case, rng, plan.per_case)
        inputs.pools[case] = pool
        mode, n, k = case
        u = subspaces.from_span(pool[0][0], GF2, n)
        if mode == "extended":
            tracer.call("indexing.first_call", indexing.decode_extended, u, n, k)
        else:
            tracer.call("indexing.first_call", CODECS[mode][0], u)
    return inputs


def rounds(seconds: float, replay: int | None):
    """Round numbers: ``replay`` of them if given, else until ``seconds`` pass."""
    start = perf_counter()
    i = 0
    while (i < replay) if replay is not None else (perf_counter() - start < seconds):
        yield i
        i += 1


def build_codes(specs, workdir: str, rng: random.Random, tracer, p: Pass) -> None:
    """Construct every code and save it with its words in a seeded order."""
    start = perf_counter()
    for spec in specs:
        with tracer.span("bench.build", spec.label):
            try:
                code = build(spec, tracer)
                path = os.path.join(workdir, f"{spec.label}.json")
                tracer.call("codefile.save_code", codefile.save_code, shuffled(code, rng), path)
            except Exception:
                p.crash(1, f"build {spec.label}")
                continue
        p.bytes += os.path.getsize(path)
        p.codes[spec] = code
        p.paths[spec] = path
    p.build_s = perf_counter() - start


def verify_code(spec: CodeSpec, path: str, tracer, p: Pass, what: str) -> bool:
    """Load the code file and check its size and minimum distance, the work
    of the CLI's ``verify``; False if a call raised."""
    with tracer.span("bench.verify", what):
        try:
            code = tracer.call("codefile.load_code", codefile.load_code, path)
            d = tracer.call("distances.min_distance", distances.min_distance, code)
        except Exception:
            p.crash(1, f"verify {what}")
            return False
    p.pairs += len(code) * (len(code) - 1) // 2
    bad = len(code) != spec.size or d != spec.d
    p.record(1, bad, f"{what}: {len(code)} words at distance {d}, expected {spec.size} at {spec.d}")
    return True


def verify_codes(specs, tracer, p: Pass) -> None:
    start = perf_counter()
    before = p.pairs
    for spec in specs:
        if spec in p.paths:
            verify_code(spec, p.paths[spec], tracer, p, spec.label)
    p.verify_s = perf_counter() - start
    p.certified_pairs = p.pairs - before


def spread_words(code: SubspaceCode, count: int, rng: random.Random) -> list:
    """``count`` codewords at evenly spaced positions of the code's order,
    from a seeded offset.

    The nearest-codeword search skips a word once its identifying vector is
    too far away to beat the best distance so far, and the sent word is
    nearly always the best: so a trial costs roughly in proportion to the
    sent word's position in the code.  Even spacing keeps the sum of the
    positions, and with it the cost of a round, from varying with the seed.
    """
    m = len(code.words)
    offset = rng.random()
    return [code.words[int((j + offset) * m / count)] for j in range(count)]


def decode_round(plan: Plan, code: SubspaceCode, mixes, tracer, p: Pass, r: str) -> float | None:
    """Per mix, one simulate call and the mix's direct transmit-and-decode
    trials.  Every mix is inside the guarantee, so every trial must return
    the word that was sent.  Returns the time of the direct trials, or None
    if a call raised."""
    round_s = 0.0
    whole = True
    for t, rho, sim_seed, trials in mixes:
        cfg = channel.ChannelConfig(rho=rho, t=t, seed=sim_seed, trials=plan.simulate)
        start = perf_counter()
        try:
            stats = tracer.call("channel.simulate", channel.simulate, code, cfg, item=f"sim{r}.{t}.{rho}")
        except Exception:
            p.crash(plan.simulate, f"simulate t={t} rho={rho} seed={cfg.seed}")
        else:
            p.sim_s += perf_counter() - start
            p.sim_trials += stats.trials
            lost = stats.trials - stats.successes
            p.trials += stats.trials
            p.successes += stats.successes
            p.violations += lost
            p.record(stats.trials, lost, f"simulate t={t} rho={rho} seed={cfg.seed}: {lost} not decoded")
        for j, (sent, noise) in enumerate(trials):
            trial_start = perf_counter()
            with tracer.span("bench.trial", f"{r}.{t}.{rho}.{j}"):
                try:
                    received = tracer.call("channel.transmit", channel.transmit, sent, rho, t, random.Random(noise))
                    start = perf_counter()
                    got, _ = tracer.call("channel.min_distance_decode", channel.min_distance_decode, code, received)
                    p.decode_s.append(perf_counter() - start)
                except Exception:
                    p.crash(1, f"trial t={t} rho={rho}")
                    whole = False
                    continue
            ok = got == sent
            elapsed = perf_counter() - trial_start
            p.trials_s += elapsed
            round_s += elapsed
            p.trials += 1
            p.successes += ok
            p.violations += not ok
            p.record(1, not ok, f"trial t={t} rho={rho}: decoded {got!r}, sent {sent!r}")
    return round_s if whole else None


def roundtrip(case, item, tracer) -> bool:
    """Canonicalise the spanning set, then encode and decode; True if exact."""
    mode, n, k = case
    rows, target = item
    u = tracer.call("subspaces.from_span", subspaces.from_span, rows, GF2, n)
    if mode == "extended":
        bits = tracer.call("indexing.decode_extended", indexing.decode_extended, u, n, k)
        back = tracer.call("indexing.encode_extended", indexing.encode_extended, bits, n, k)
        ok = bits == target
    else:
        enc, dec = CODECS[mode]
        bits = tracer.call(f"indexing.encode_{mode}", enc, u)
        back = tracer.call(f"indexing.decode_{mode}", dec, bits, n, k)
        ok = u.k == k
    return ok and back == u and len(bits) == k * (n - k) + INDEX_EXTRA_BITS[mode]


def index_round(work, tracer, p: Pass, r: str) -> float | None:
    """A round trip on every pooled input, the cases taken in turn; returns
    their total time, or None if a call raised."""
    round_s = 0.0
    whole = True
    for case, j, item in work:
        start = perf_counter()
        with tracer.span("bench.roundtrip", f"{r}.{j}.{case[0]}.{case[1]}.{case[2]}"):
            try:
                ok = roundtrip(case, item, tracer)
            except Exception:
                p.crash(1, f"round trip {case}")
                whole = False
                continue
        elapsed = perf_counter() - start
        p.index_s.append(elapsed)
        round_s += elapsed
        p.record(1, not ok, f"round trip {case} input {j}: mismatch")
    return round_s if whole else None


def round_of(plan: Plan, inputs: Inputs, rng: random.Random, tracer, p: Pass):
    """The plan's round of fixed work, as a function of the round's label that
    returns the round's counted time (None if a call raised), and the number
    of operations it counts; (None, 0) if there is nothing to repeat."""
    if plan.reverify is not None:
        spec = plan.reverify
        if spec not in p.paths:
            return None, 0

        def again(r):
            start = perf_counter()
            ran = verify_code(spec, p.paths[spec], tracer, p, f"{spec.label}.{r}")
            return perf_counter() - start if ran else None

        return again, spec.size * (spec.size - 1) // 2
    if plan.decode is not None:
        code = p.codes.get(plan.decode, inputs.decode_code)
        if code is None:
            return None, 0
        mixes = [
            (t, rho, rng.getrandbits(32), [(w, rng.getrandbits(32)) for w in spread_words(code, plan.batch, rng)])
            for t, rho in plan.mixes
        ]
        return (lambda r: decode_round(plan, code, mixes, tracer, p, r)), plan.batch * len(plan.mixes)
    work = [(case, j, inputs.pools[case][j]) for j in range(plan.per_case) for case in plan.index]
    return (lambda r: index_round(work, tracer, p, r)), len(work)


def measured_pass(plan: Plan, inputs: Inputs, seed: int, tracer, seconds: float, replay=None) -> Pass:
    """Build the plan's codes, repeat its round for half of ``seconds``,
    verify the codes, then repeat the round for the other half.

    Splitting the rounds around the long verify spreads them over more of
    the run, so that a slow stretch of the machine is less likely to cover
    all of them.  ``replay`` gives the number of rounds of each half.
    """
    rng = random.Random(f"{seed}/pass")
    replay = replay or {}
    p = Pass()
    start = perf_counter()
    build_codes(plan.certify, inputs.workdir, rng, tracer, p)
    one_round, p.round_ops = round_of(plan, inputs, rng, tracer, p)
    for half in range(2):
        if half:
            verify_codes(plan.certify, tracer, p)
        if one_round is None:
            continue
        n = 0
        for r in rounds(seconds / 2, replay.get(half)):
            n = r + 1
            elapsed = one_round(f"{half}.{r}")
            if elapsed is not None:
                p.round_s.append(elapsed)
        p.rounds_done[half] = n
    p.wall_s = perf_counter() - start
    return p


def oracle(codes, seed: int) -> tuple[Tally, list[float]]:
    """Checks outside the timed passes, against the definition of distance.

    The 71-word GF(2) w6k3 code's minimum distance by an exhaustive
    ``distance_naive`` scan, and ``distance_fast`` against ``distance_naive``
    on seeded pairs of each certified code (timing each ``distance_fast``).
    """
    tally = Tally()
    rng = random.Random(f"{seed}/oracle")
    try:
        w = multilevel_fixture("w6k3", GF2).words
        naive = min(distances.distance_naive(a, b) for i, a in enumerate(w) for b in w[i + 1 :])
        fast = distances.min_distance(SubspaceCode(GF2, 6, w))
        tally.record(1, not naive == fast == 4, f"w6k3 oracle: naive {naive}, min_distance {fast}, expected 4")
    except Exception:
        tally.crash(1, "w6k3 oracle")
    fast_s = []
    for code in codes:
        for _ in range(FAST_SAMPLE):
            a, b = rng.sample(code.words, 2)
            start = perf_counter()
            fast = distances.distance_fast(a, b)
            fast_s.append(perf_counter() - start)
            naive = distances.distance_naive(a, b)
            tally.record(1, fast != naive, f"distance_fast {fast} != distance_naive {naive}")
    return tally, fast_s


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


@dataclass
class Result:
    plan: Plan
    setup_s: float
    first: Pass
    peak_rss_mb: float
    checks: list[Tally]
    per_layer: dict | None = None
    spans: list = field(default_factory=list)

    @property
    def tallies(self) -> list[Tally]:
        return [self.first, *self.checks]

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    @property
    def errors(self) -> list[str]:
        return [e for t in self.tallies for e in t.errors]

    def ops_per_s(self) -> tuple[float, str]:
        """The workload's headline rate in its fastest round, and what it counts."""
        p = self.first
        if self.plan.index:
            counted = "index round trips"
        elif self.plan.decode is not None:
            counted = "direct channel trials"
        else:
            counted = f"codeword pairs of {self.plan.reverify.label} verified"
        best = min(p.round_s, default=0.0)
        return rate(p.round_ops, best), f"{counted}, fastest of {len(p.round_s)} rounds of {p.round_ops}"

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        rows = {name: (value, unit) for name, value, unit, _ in self.report(setup_s, 1)}
        return {name: rows[name] for name in END_TO_END}

    def report(self, setup_s: float, setups: int) -> list[tuple[str, float, str, str]]:
        """Every end-to-end figure that applies to the plan: (name, value, unit, note)."""
        p = self.first
        ops, counted = self.ops_per_s()
        rows = [
            ("setup_s", setup_s, "s", f"median of {setups} set-ups"),
            ("wall_s", self.setup_s + p.wall_s, "s", "set-up and measured pass"),
            ("peak_rss_mb", self.peak_rss_mb, "MB", "after the measured pass"),
            ("ops_per_s", ops, "1/s", counted),
        ]
        if self.plan.certify:
            rows.append(("build_s", p.build_s, "s", f"{len(self.plan.certify)} codes constructed and saved"))
            rows.append(("verify_s", p.verify_s, "s", f"load and minimum distance, {p.certified_pairs} pairs"))
        if self.plan.decode is not None:
            rows.append(("sim_trials_per_s", rate(p.sim_trials, p.sim_s), "1/s", f"{p.sim_trials} trials"))
            for q in (50, 90):
                rows.append((f"decode_ms_p{q}", percentile(p.decode_s, q) * 1e3, "ms", f"n={len(p.decode_s)}"))
        if self.plan.index:
            rows.append(("index_roundtrips_per_s", rate(len(p.index_s), sum(p.index_s)), "1/s", f"{len(p.index_s)} round trips"))
            for q in (50, 99):
                rows.append((f"index_us_p{q}", percentile(p.index_s, q) * 1e6, "us", f"n={len(p.index_s)}"))
        rows.append(("error_ratio", self.failed / self.attempted, "ratio", f"{self.failed} failed of {self.attempted}"))
        return rows


def per_layer(spans, p: Pass, setup_bytes: int, fast_s, overhead_s: float) -> dict[str, tuple[float, str]]:
    def total(name):
        return sum(durations(spans, name))

    def median(name, scale):
        return percentile(durations(spans, name), 50) * scale

    own = self_times(spans)
    min_distance_s = total("distances.min_distance")
    values = {
        **{f"self_s.{layer}": own.get(layer, 0.0) for layer in LAYERS},
        "constructions.multilevel_s": total("constructions.multilevel_fixture"),
        "constructions.puncture_s": total("constructions.puncture"),
        "codefile.save_s": total("codefile.save_code"),
        "codefile.load_s": total("codefile.load_code"),
        "codefile.bytes": setup_bytes + p.bytes,
        "distances.min_distance_s": min_distance_s,
        "distances.pairs": p.pairs,
        "distances.pairs_per_s": rate(p.pairs, min_distance_s),
        "distances.distance_fast_us": percentile(fast_s, 50) * 1e6,
        "kernels.calls": sum(1 for s in spans if s[1].startswith("kernels.")),
        "channel.transmit_ms_p50": median("channel.transmit", 1e3),
        "channel.decode_ms_p50": median("channel.min_distance_decode", 1e3),
        "channel.simulate_s": total("channel.simulate"),
        "channel.trials": p.trials,
        "channel.successes": p.successes,
        "channel.guarantee_violations": p.violations,
        "subspaces.from_span_us_p50": median("subspaces.from_span", 1e6),
        **{
            f"indexing.{op}_{mode}_us": median(f"indexing.{op}_{mode}", 1e6)
            for mode in INDEX_EXTRA_BITS
            for op in ("encode", "decode")
        },
        "indexing.first_call_s": total("indexing.first_call"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def _kernel_spans(tracer):
    return tracer.wrapping(kernels, "kernels") if kernels is not None else nullcontext()


def run_setup(plan: Plan, seed: int, workdir: str, tracer=NULL) -> Inputs:
    with tracer.span("bench.setup"), _kernel_spans(tracer):
        return setup(plan, seed, workdir, tracer)


def run(plan: Plan, seed: int, seconds: float, trace: bool, out_dir: str, started: float | None = None) -> Result:
    """Set up, measure one untraced pass and, if ``trace``, replay it traced.

    ``started`` is when the process began importing, so that ``setup_s``
    covers the import of the library as well.
    """
    started = perf_counter() if started is None else started
    tracer = Tracer() if trace else NULL
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        inputs = run_setup(plan, seed, workdir, tracer)
        setup_s = perf_counter() - started
        first = measured_pass(plan, inputs, seed, NULL, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = Result(plan, setup_s, first, peak_rss_mb, [inputs.tally])
        if trace:
            with tracer.span("bench.pass"), _kernel_spans(tracer):
                second = measured_pass(plan, inputs, seed, tracer, seconds, replay=first.rounds_done)
            result.checks.append(second)
        checks, fast_s = oracle(list(first.codes.values()), seed)
        result.checks.append(checks)
        if trace:
            result.spans = tracer.spans
            result.per_layer = per_layer(
                tracer.spans, second, inputs.bytes, fast_s, second.wall_s - first.wall_s
            )
    return result
