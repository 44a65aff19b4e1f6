#!/usr/bin/env python3
"""Benchmark of the subspacecodes library's user workloads.

Usage (from the root of a checkout; needs only the standard library):

    python3 perfbench/run.py --workload certify-w8k4 --seed 1 --seconds 12 --trace 0

Workloads: certify-w8k4, decode-w8k4, gf3-w6k3, index-g2 (see README.md in
this directory).  The library is imported from ``src/`` of the checkout,
not from an installed copy.  Human-readable lines come first: the run's
environment, every figure that applies to the workload by name and unit,
and any failed check.  The last line is one JSON object with the keys
correct, attempted, failed and metrics: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The run's record,
including the spans of a traced run, goes to ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
library cannot be imported.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here, before the library's import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("certify-w8k4", "decode-w8k4", "gf3-w6k3", "index-g2")
# Set-ups per untraced run, setup_s being their median: at least SETUPS,
# and more, up to MAX_SETUPS, while they have taken under SETUP_BUDGET_S.
SETUPS = 5
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="length of each time-boxed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used for setup_s)")
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, kernels) -> dict:
    """What the run's figures depend on besides the code; ``kernels_compiled``
    is None when the library has no kernel module."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "kernels_compiled": None if kernels is None else kernels.COMPILED,
        "SUBSPACECODES_PURE": os.environ.get("SUBSPACECODES_PURE"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def child_setups(args, first: float) -> list[float]:
    """Set-up times: ``first``, then those of fresh processes, one after
    another, until there are SETUPS and the budget is spent."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    out = [first]
    while len(out) < SETUPS or (sum(out) < SETUP_BUDGET_S and len(out) < MAX_SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import tracing
        import workloads
    except ImportError as e:
        print(f"error: cannot import subspacecodes from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(workloads.channel.__file__).resolve().is_relative_to(SRC):
        print(f"error: subspacecodes was imported from outside {SRC}", file=sys.stderr)
        return 2

    plan = (workloads.TINY if args.size == "tiny" else workloads.WORKLOADS)[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            workloads.run_setup(plan, args.seed, workdir)
        print(json.dumps({"setup_s": perf_counter() - STARTED}))
        return 0

    result = workloads.run(plan, args.seed, args.seconds, bool(args.trace), str(OUT), started=STARTED)
    env = environment(args, workloads.kernels)
    if args.trace:
        metrics = result.per_layer
        rows = [(name, value, unit, "traced") for name, (value, unit) in metrics.items()]
    else:
        setups = child_setups(args, result.setup_s)
        metrics = result.end_to_end(statistics.median(setups))
        rows = result.report(statistics.median(setups), len(setups))
    correct = result.failed == 0

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s loops, trace {args.trace}")
    print("env: " + json.dumps(env))
    for name, value, unit, note in rows:
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    for line in result.errors[:20]:
        print(f"failed: {line}")
    print("waiting: none; one caller in one thread (closed loop), so no work queues")

    record = {
        "env": env,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "report": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in rows],
        "span_fields": tracing.FIELDS,
        "spans": result.spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics_json(metrics),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
