"""Command-line surface.

Subcommands: construct {multilevel,lift,spread,puncture}, bounds, distance,
index {encode,decode}, simulate, verify.  Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import codefile
from .bounds import cdc_bounds, pspace_lower_bound
from .channel import ChannelConfig, simulate
from .constructions import (
    ConstantWeightCode,
    greedy_constant_weight,
    lift_gabidulin,
    multilevel,
    multilevel_fixture,
    puncture,
    spread_like,
)
from .distances import distance_fast, min_distance
from .errors import BadParams, SubspaceCodesError
from .fields import extension_view, make_field
from .fixtures import CONSTANT_WEIGHT_WORDS
from .indexing import _class_tables, _compact_tables, _extended_tables, _from_bits, _to_bits
from .matrices import row_form
from .subspaces import _prime_power, field_for_order, from_literal, literal_rows, to_literal


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _emit_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit_json(rows, out)
        return
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _emit(buf.getvalue(), out)


def _save_or_print(code, out: str | None) -> None:
    text = codefile.dumps_code(code)
    _emit(text, out)


def _cmd_construct(args) -> int:
    if args.what == "puncture":  # the input code file fixes q
        base = codefile.load_code(args.code)
        if args.special:
            rows = literal_rows(args.special, base.spec, base.n)
            if len(rows) != 1:
                raise BadParams(f"--special needs one vector, got {len(rows)}")
            (special,) = row_form(base.spec, base.n).to_entries(rows)
        else:
            special = _default_special(base.n)
        code = puncture(base, special, add_trivial=args.add_trivial)
        _save_or_print(code, args.out)
        return 0
    spec = field_for_order(args.q)
    if args.what == "multilevel":
        if args.fixture:
            code = multilevel_fixture(
                args.fixture, spec, puncture_aligned=args.puncture_aligned
            )
        else:
            if args.words:
                cw = ConstantWeightCode.from_strings(args.words.split(","))
            elif args.n is not None and args.k is not None:
                cw = greedy_constant_weight(args.n, args.k, 2 * args.delta)
            else:
                raise BadParams("need --fixture, --words, or --n/--k")
            code = multilevel(cw, args.delta, spec)
    elif args.what == "lift":
        view = extension_view(spec, args.m)
        code = lift_gabidulin(view, args.len, args.dist)
    else:  # spread; argparse restricts the choices
        code = spread_like(args.n, args.k, spec)
    _save_or_print(code, args.out)
    return 0


def _default_special(n: int) -> tuple[int, ...]:
    """e_1 + e_n, the special vector puncture takes when --special is not given."""
    if n < 2:  # e_1 and e_n are one vector, or none
        raise BadParams(f"--special is needed when n < 2, got n = {n}")
    return (1,) + (0,) * (n - 2) + (1,)


def _cmd_bounds(args) -> int:
    if args.n < 1:  # with no --k the dimensions 1..n/2 are none, which nothing would refuse
        raise BadParams(f"need n >= 1, got n={args.n}")
    _prime_power(args.q)
    if args.k is not None and args.k < 1:  # with no --delta it lists no row, which nothing would refuse
        raise BadParams(f"need 1 <= k <= n, got n={args.n} k={args.k}")
    rows = []
    ks = [args.k] if args.k is not None else list(range(1, args.n // 2 + 1))
    for k in ks:
        deltas = [args.delta] if args.delta is not None else list(range(1, k + 1))
        for delta in deltas:
            rows.append(cdc_bounds(args.n, k, delta, args.q).as_dict())
    if args.pspace_d is not None:
        lb = pspace_lower_bound(args.n, args.pspace_d, args.q)
        row = {
            "q": args.q,
            "n": args.n,
            "projective_distance": args.pspace_d,
            "projective_lower": str(lb),
        }
        if args.pspace_d % 2 == 1:
            row["notes"] = "odd-distance upper bound needs linear programming; not computed"
        rows.append(row)
    _emit_rows(rows, args.format, args.out)
    return 0


def _cmd_distance(args) -> int:
    spec = field_for_order(args.q)
    n = args.n
    if n is None:
        n = max(len(r) for r in (args.a.split(";") + args.b.split(";")))
    a = from_literal(args.a, spec, n)
    b = from_literal(args.b, spec, n)
    _emit(f"{distance_fast(a, b)}\n", args.out)
    return 0


# Per mode: bits beyond k(n-k), and the cached (tail_of, id_of) tables.
_INDEX_MODES = {
    "extended": (1, _extended_tables),
    "full": (2, _class_tables),
    "compact": (2, _compact_tables),
}


def _cmd_index(args) -> int:
    extra, tables = _INDEX_MODES[args.mode]
    tail_of, id_of = tables(args.n, args.k)
    if args.what == "encode":
        length = args.k * (args.n - args.k) + extra
        u = _from_bits(_parse_bits(args.vector, length), length, id_of, tail_of)
        _emit(to_literal(u) + "\n", args.out)
    else:
        u = from_literal(args.subspace, make_field(2, 1), args.n)
        bits = _to_bits(u, args.n, args.k, tail_of)
        _emit("".join(map(str, bits)) + "\n", args.out)
    return 0


def _parse_bits(s: str, expected_len: int) -> tuple[int, ...]:
    s = s.strip()
    if s.startswith(("0x", "0X")):
        try:
            val = int(s, 16)
        except ValueError:
            raise BadParams(f"not a hex value: {s!r}") from None
        if val.bit_length() > expected_len:
            raise BadParams(f"hex value does not fit in {expected_len} bits")
        return tuple((val >> (expected_len - 1 - i)) & 1 for i in range(expected_len))
    if not set(s) <= {"0", "1"}:
        raise BadParams(f"not a bit string: {s!r}")
    return tuple(map(int, s))


def _cmd_simulate(args) -> int:
    code = codefile.load_code(args.code)
    cfg = ChannelConfig(rho=args.rho, t=args.t, seed=args.seed, trials=args.trials)
    stats = simulate(code, cfg)
    doc = stats.as_dict()
    doc["code_size"] = len(code)
    doc["n"] = code.n
    doc["q"] = code.spec.order
    _emit_json(doc, args.out)
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    spec = field_for_order(args.q)
    if args.what == "bound-attainability":
        try:
            zeros = tuple(int(z) for z in args.zeros.split(","))
        except ValueError:
            raise BadParams(f"--zeros needs comma-separated integers, got {args.zeros!r}") from None
        doc = experiments.bound_attainability(
            zeros, args.cols, args.dist, spec, tries=args.tries, seed=args.seed
        )
    else:  # hamming-skeleton
        doc = experiments.hamming_skeleton(spec)
    _emit_json(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    code = codefile.load_code(args.codefile)
    doc = {
        "q": code.spec.order,
        "n": code.n,
        "kind": code.kind,
        "size": len(code),
        "dimensions": list(code.dims),
        "min_distance": min_distance(code) if len(code) >= 2 else None,
    }
    if args.format == "csv":
        _emit_rows([{k: v for k, v in doc.items() if k != "dimensions"}], "csv", args.out)
    else:
        _emit_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subspacecodes",
        description="Subspace codes: constructions, bounds, distances, "
        "index encoding and operator-channel simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write a code file")
    csub = c.add_subparsers(dest="what", required=True)

    ml = csub.add_parser("multilevel", help="constant-weight skeleton + rank codes")
    ml.add_argument("--fixture", choices=sorted(CONSTANT_WEIGHT_WORDS), help="bundled word list")
    ml.add_argument("--words", help="comma-separated constant-weight words")
    ml.add_argument("--n", type=int, help="length for the greedy skeleton")
    ml.add_argument("--k", type=int, help="weight for the greedy skeleton")
    ml.add_argument("--delta", type=int, default=2, help="design rank distance (default 2)")
    ml.add_argument("--q", type=int, default=2)
    ml.add_argument(
        "--puncture-aligned",
        action="store_true",
        help="use the variant level codes that shorten to the best known sizes",
    )
    ml.add_argument("--out")
    ml.set_defaults(func=_cmd_construct)

    lf = csub.add_parser("lift", help="lifted MRD code")
    lf.add_argument("--q", type=int, default=2)
    lf.add_argument("--m", type=int, required=True, help="extension degree")
    lf.add_argument("--len", type=int, required=True, help="rank-code length n <= m")
    lf.add_argument("--dist", type=int, required=True, help="design rank distance")
    lf.add_argument("--out")
    lf.set_defaults(func=_cmd_construct)

    sp = csub.add_parser("spread", help="partial-spread construction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_construct)

    pu = csub.add_parser("puncture", help="drop the last coordinate of a code")
    pu.add_argument("--code", required=True, help="input code file")
    pu.add_argument("--special", help="vector outside the hyperplane (digit string)")
    pu.add_argument("--add-trivial", action="store_true", help="append {0} and the full space")
    pu.add_argument("--out")
    pu.set_defaults(func=_cmd_construct)

    b = sub.add_parser("bounds", help="bound table for code sizes")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int)
    b.add_argument("--delta", type=int)
    b.add_argument("--pspace-d", type=int, help="also report the projective-space lower bound")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_bounds)

    d = sub.add_parser("distance", help="distance between two subspace literals")
    d.add_argument("--q", type=int, default=2)
    d.add_argument("--n", type=int, help="ambient dimension (default: row length)")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_distance)

    ix = sub.add_parser("index", help="index encoding between bits and subspaces")
    ixsub = ix.add_subparsers(dest="what", required=True)
    for name in ("encode", "decode"):
        sp_ix = ixsub.add_parser(name)
        sp_ix.add_argument("--n", type=int, required=True)
        sp_ix.add_argument("--k", type=int, required=True)
        sp_ix.add_argument(
            "--mode", choices=["extended", "full", "compact"], default="full"
        )
        if name == "encode":
            sp_ix.add_argument("--vector", required=True, help="bit string")
        else:
            sp_ix.add_argument("--subspace", required=True, help="';'-joined rows")
        sp_ix.add_argument("--out")
        sp_ix.set_defaults(func=_cmd_index)

    s = sub.add_parser("simulate", help="operator-channel Monte Carlo")
    s.add_argument("--code", required=True)
    s.add_argument("--t", type=int, required=True, help="error dimension")
    s.add_argument("--rho", type=int, required=True, help="erasure count")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("experiment", help="exploratory searches (reported, never asserted)")
    esub = e.add_subparsers(dest="what", required=True)
    ba = esub.add_parser("bound-attainability", help="search for a bound-meeting rank code")
    ba.add_argument("--zeros", required=True, help="comma-separated leading zeros per row")
    ba.add_argument("--cols", type=int, required=True)
    ba.add_argument("--dist", type=int, required=True)
    ba.add_argument("--q", type=int, default=2)
    ba.add_argument("--tries", type=int, default=20000)
    ba.add_argument("--seed", type=int, default=0)
    ba.add_argument("--out")
    ba.set_defaults(func=_cmd_experiment)
    hs = esub.add_parser("hamming-skeleton", help="rebuild the length-8 weight-4 skeleton")
    hs.add_argument("--q", type=int, default=2)
    hs.add_argument("--out")
    hs.set_defaults(func=_cmd_experiment)

    v = sub.add_parser("verify", help="recompute size and minimum distance of a code file")
    v.add_argument("codefile")
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SubspaceCodesError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
