"""Command-line front end.

Three subcommands: `classify` one shape, `enumerate` its subgroups, `verify`
claim sweeps over a whole corpus.  JSON is the machine format (keys sorted,
stable ordering); `classify --table` renders the same data for humans.
Only `enumerate --kind all` enumerates the lattice and reads `--cache`; the
other kinds list the orbit and profile routes.

Exit codes: 0 ok, 1 a verification sweep found violations, 2 usage or parse
error (including unknown claim ids), 3 a resource cap was exceeded (the
message names the cap): by a `classify` or `enumerate` shape (the enumeration
and subgroup caps only for `--kind all`), or by a `verify` corpus shape over
the carrier cap.  Other caps only skip `verify` oracle parts.  4 (from `main`
only) stdout was closed before everything was written.

`run` reuses one parser per process (`build_parser` is cached), so a
long-lived caller pays for the parser once, not once per request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
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
EXIT_PIPE = 4


def _json_text(obj, prefix: str = "") -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, with every
    line after the first starting with `prefix`: dicts (str keys), lists,
    tuples and scalars, as `classify` and `enumerate` print them.

    The stdlib encoder runs in C only without `indent`; this writes the
    containers in Python and hands strings to its C string encoder.  Exact
    ints are written by `int.__repr__` (the exact-type test keeps out bool,
    an int subclass), and every other scalar (bool, None, float) by
    `json.dumps` itself.
    """
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = prefix + "  "
        items = [_json_text(value, inner) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + prefix + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = prefix + "  "
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + prefix + "}"
    return json.dumps(obj)


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
        print(_json_text(verdict))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = make_shape(args.p, _parse_partition(args.partition))
    if args.kind == "all":
        lat = LatticeStore(args.cache).get(shape)
        count = len(lat.subgroups)
        listed = zip(lat.subgroups, lat.char_flags, lat.fi_flags)
    else:
        # both routes list their subgroups in the lattice's order
        char, fi = characteristic_from_orbits(shape), fi_from_profiles(shape)
        char_set, fi_set = set(char), set(fi)
        route = char if args.kind == "characteristic" else fi
        count = len(route)
        listed = ((h, h in char_set, h in fi_set) for h in route)
    # _json_text(payload) for payload {"count", "kind", "shape", "subgroups"}:
    # the three head keys sort before "subgroups", whose entries are written
    # one at a time at the list's depth, so no list of every descriptor is
    # held; each kind lists at least the trivial subgroup, so the list is
    # never empty
    head = {"count": count, "kind": args.kind, "shape": format_shape(shape)}
    out = sys.stdout
    out.write("{\n")
    for name, value in sorted(head.items()):
        out.write(f"  {_json_text(name)}: {_json_text(value)},\n")
    out.write('  "subgroups": [\n')
    sep = "    "
    for h, c, f in listed:
        entry = subgroup_descriptor(h) | {"characteristic": c, "fully_invariant": f}
        out.write(sep + _json_text(entry, "    "))
        sep = ",\n    "
    out.write("\n  ]\n}\n")
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
    """The console entry point: `run`, then exit with its code.  A reader
    that closes stdout early (`| head`) ends the run with EXIT_PIPE and no
    traceback; `run` itself still raises the BrokenPipeError."""
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; pointed at devnull,
        # that flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
