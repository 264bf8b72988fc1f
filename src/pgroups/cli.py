"""Command-line front end.

Three subcommands: `classify` one shape, `enumerate` its subgroups, `verify`
claim sweeps over a whole corpus.  JSON is the machine format (keys sorted,
stable ordering); `classify --table` renders the same data for humans.
Only `enumerate --kind all` enumerates the lattice and reads `--cache`; the
other kinds list the orbit and profile routes.

Exit codes: 0 ok, 1 a verification sweep found violations, 2 usage or parse
error (including unknown claim ids), 3 a resource cap was exceeded (the
message names the cap): by a `classify` or `enumerate` shape (the enumeration
cap only for `--kind all`), or by a `verify` corpus shape over the carrier
cap.  Other caps only skip `verify` oracle parts.

`run` reuses one parser per process (`build_parser` is cached), so a
long-lived caller pays for the parser once, not once per request.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional, Sequence

from .caps import CapExceeded, default_jobs
from .classify import classify, subgroup_descriptor
from .core import format_shape, make_shape
from .harness import LatticeStore, all_claim_ids, build_corpus, run_claims
from .invariance import characteristic_from_orbits, fi_from_profiles

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _parse_partition(text: str) -> tuple[int, ...]:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        exponents = tuple(int(piece) for piece in parts)
    except ValueError:
        raise ValueError(
            f"bad partition {text!r}: expected comma-separated integers"
        ) from None
    if not exponents:
        raise ValueError(f"bad partition {text!r}: empty")
    return exponents


def _describe(desc: dict) -> str:
    iso = desc["iso_type"] or "trivial"
    gens = ", ".join(
        "(" + ",".join(str(c) for c in g) + ")" for g in desc["generators"]
    )
    return f"order {desc['order']} type {iso} gen {gens or '()'}"


def _render_table(verdict: dict) -> str:
    lines = [f"{'shape':16s} {verdict['shape']}"]
    for key in (
        "is_ifi",
        "is_ic",
        "is_strongly_ifi",
        "is_strongly_ic",
        "is_weakly_ic",
        "criterion_ifi",
        "char_eq_fi",
    ):
        lines.append(f"{key:16s} {'yes' if verdict[key] else 'no'}")
    for name, witness in verdict["witnesses"].items():
        if "first" in witness:
            lines.append(
                f"witness {name}: {_describe(witness['first'])}"
                f" vs {_describe(witness['second'])}"
            )
        else:
            lines.append(f"witness {name}: {_describe(witness)}")
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    shape = make_shape(args.p, _parse_partition(args.partition))
    verdict = classify(shape).to_dict()
    if args.table:
        print(_render_table(verdict))
    else:
        print(json.dumps(verdict, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = make_shape(args.p, _parse_partition(args.partition))
    if args.kind == "all":
        lat = LatticeStore(args.cache).get(shape)
        listed = zip(lat.subgroups, lat.char_flags, lat.fi_flags)
    else:
        # both routes list their subgroups in the lattice's order
        char, fi = characteristic_from_orbits(shape), fi_from_profiles(shape)
        char_set, fi_set = set(char), set(fi)
        route = char if args.kind == "characteristic" else fi
        listed = ((h, h in char_set, h in fi_set) for h in route)
    entries = [
        subgroup_descriptor(h) | {"characteristic": c, "fully_invariant": f}
        for h, c, f in listed
    ]
    payload = {
        "shape": format_shape(shape),
        "kind": args.kind,
        "count": len(entries),
        "subgroups": entries,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    corpus = build_corpus(args.p, args.max_order)
    if args.claims.strip() == "all":
        claim_ids = all_claim_ids()
    else:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claim_ids:
            raise ValueError("no claim ids given")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        raise ValueError("--jobs must be positive")
    reports = run_claims(claim_ids, corpus, jobs=jobs, cache_dir=args.cache)
    for report in reports:
        print(report.to_json())
    if any(r.total_violations for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process: callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="pgroups",
        description="classify finite abelian p-groups and verify claim sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="full verdict for one shape")
    cl.add_argument("--p", type=int, required=True, help="prime")
    cl.add_argument("--partition", required=True, help="exponents, e.g. 1,3")
    mode = cl.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="JSON output (default)")
    mode.add_argument("--table", action="store_true", help="human-readable table")
    cl.set_defaults(func=cmd_classify)

    en = sub.add_parser("enumerate", help="list subgroups of one shape")
    en.add_argument("--p", type=int, required=True, help="prime")
    en.add_argument("--partition", required=True, help="exponents, e.g. 1,3")
    en.add_argument(
        "--kind",
        choices=["all", "characteristic", "fully-invariant"],
        default="all",
    )
    en.add_argument("--cache", help="lattice cache directory")
    en.set_defaults(func=cmd_enumerate)

    ve = sub.add_parser("verify", help="run claim sweeps over a corpus")
    ve.add_argument("--p", type=int, required=True, help="prime")
    ve.add_argument("--max-order", type=int, required=True)
    ve.add_argument("--claims", default="all", help="'all' or comma-separated ids")
    ve.add_argument("--jobs", type=int, default=None)
    ve.add_argument("--cache", help="lattice cache directory")
    ve.set_defaults(func=cmd_verify)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
