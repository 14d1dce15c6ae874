"""Command-line interface: Hurwitz numbers, integral tables, verify suites.

This module parses arguments and dispatches; the suites behind ``verify``
live in ``hurwitz_hodge.verify``.

Exit codes: 0 success, 1 bad arguments or unreadable input (including a
``verify --cache`` file that does not exist), 2 a work or size bound was
exceeded, 3 an exact internal cross-check failed.  All values print as
canonical rationals ("num/den", integers bare, zero as "0"); nothing is
ever rounded.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import cache as cache_store
from . import cutjoin, engines, hodge, verify
from .errors import ConsistencyError, InfeasibleError
from .partitions import parse_profile
from .report import all_pass

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasible bounds here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bound(text: str) -> int:
    # engine bounds: zero is a real bound (--rmax 0 serves h(0; 1)), a
    # negative one is a usage error naming the flag
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitz-hodge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    hur = sub.add_parser("hurwitz", help="compute one connected Hurwitz number")
    hur.add_argument("--genus", type=int, required=True)
    hur.add_argument("--profile", required=True, help="pole orders, e.g. 2,1,1")
    hur.add_argument("--engine", choices=("auto", "brute", "frobenius", "cutjoin"), default="auto")
    hur.add_argument("--format", choices=("value", "record"), default="value")
    hur.add_argument("--cache", help="append-only cache file")
    hur.add_argument("--brute-sheets", type=_bound, default=engines.DEFAULT_SHEET_BOUND)
    hur.add_argument("--brute-work", type=_bound, default=engines.DEFAULT_WORK_BOUND)
    hur.add_argument("--kmax", type=_bound, default=engines.DEFAULT_K_BOUND,
                     help="sheet bound for the character engine")
    hur.add_argument("--rmax", type=_bound, default=engines.DEFAULT_R_BOUND)
    hur.add_argument("--cutjoin-kmax", type=_bound, default=cutjoin.DEFAULT_TRUNCATION)
    hur.set_defaults(func=_cmd_hurwitz)

    hdg = sub.add_parser("hodge", help="extract a table of psi/lambda integrals")
    hdg.add_argument("--genus", type=int, required=True)
    hdg.add_argument("--points", type=int, required=True, help="number of marked points n")
    hdg.add_argument("--grid-bound", type=int, default=None)
    hdg.add_argument("--format", choices=("records", "table"), default="records")
    hdg.add_argument("--cache", help="append-only cache file")
    hdg.add_argument("--kmax", type=_bound, default=engines.DEFAULT_K_BOUND)
    hdg.add_argument("--rmax", type=_bound, default=engines.DEFAULT_R_BOUND)
    hdg.set_defaults(func=_cmd_hodge)

    ver = sub.add_parser("verify", help="run one verification suite")
    ver.add_argument("suite", choices=verify.SUITES)
    ver.add_argument("--gmax", type=int, default=2, help="genus budget for fp-identity")
    ver.add_argument("--cache", help="cache file (degll also checks its records)")
    ver.set_defaults(func=_cmd_verify)
    return parser


# built on the first call to main and reused: parsing leaves no state on the
# parser, and building it costs more than most commands
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (cache_store.CacheError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# hurwitz


def _cache_records(path: str) -> list[dict[str, str]]:
    if not os.path.exists(path):
        return []
    return cache_store.read_records(path)


def _compute_hurwitz(args, g: int, profile) -> tuple[Fraction, str]:
    if args.engine == "brute":
        value = engines.brute_force_hurwitz(
            g, profile, sheet_bound=args.brute_sheets, work_bound=args.brute_work
        )
        return value, "brute"
    if args.engine == "frobenius":
        return engines.connected_hurwitz(g, profile, k_bound=args.kmax, r_bound=args.rmax), "frobenius"
    if args.engine == "cutjoin":
        return cutjoin.cut_and_join_hurwitz(g, profile, kmax=args.cutjoin_kmax, r_bound=args.rmax), "cutjoin"
    # auto: character engine, cross-checked against brute force when feasible
    value = engines.connected_hurwitz(g, profile, k_bound=args.kmax, r_bound=args.rmax)
    try:
        check = engines.brute_force_hurwitz(
            g, profile, sheet_bound=args.brute_sheets, work_bound=args.brute_work
        )
    except InfeasibleError:
        check = None
    if check is not None and check != value:
        raise ConsistencyError(
            f"engines disagree on genus {g}, profile {profile}: frobenius={value}, brute={check}"
        )
    return value, "frobenius"


def _cmd_hurwitz(args) -> int:
    profile = parse_profile(args.profile)
    g = args.genus
    mu_text = ",".join(map(str, sorted(profile, reverse=True)))
    cached = None
    if args.cache:
        for record in _cache_records(args.cache):
            if record["kind"] == "hurwitz" and record.get("g") == str(g) and record.get("mu") == mu_text:
                cached = record
                break
    if cached is not None:
        value = cache_store.parse_field(args.cache, cached, "value", Fraction)
    else:
        value, engine_used = _compute_hurwitz(args, g, profile)
        if args.cache:
            cache_store.append_records(
                args.cache,
                [{"kind": "hurwitz", "g": str(g), "mu": mu_text,
                  "engine": engine_used, "value": str(value)}],
            )
    if args.format == "record":
        print(f"hurwitz genus={g} profile={args.profile} engine={args.engine} value={value}")
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hodge


def _cmd_hodge(args) -> int:
    g, n = args.genus, args.points
    keys = hodge.hodge_keys(g, n)  # validates stability up front
    table = None
    if args.cache:
        index = {
            (rec.get("g"), rec.get("n"), rec.get("b"), rec.get("j")): rec
            for rec in _cache_records(args.cache)
            if rec["kind"] == "hodge"
        }
        hits = [
            index.get((str(g), str(n), ",".join(map(str, b)), str(j))) for j, b in keys
        ]
        if all(hit is not None for hit in hits):
            table = hodge.HodgeTable()
            for (j, b), hit in zip(keys, hits):
                table.set(g, n, b, j, cache_store.parse_field(args.cache, hit, "value", Fraction))
    if table is None:
        table = hodge.extract_hodge_integrals(
            g, n, grid_bound=args.grid_bound, k_bound=args.kmax, r_bound=args.rmax
        )
        if args.cache:
            cache_store.append_records(
                args.cache,
                [
                    {"kind": "hodge", "g": str(kg), "n": str(kn),
                     "b": ",".join(map(str, kb)), "j": str(kj),
                     "engine": "extraction", "value": str(table.values[(kg, kn, kb, kj)])}
                    for kg, kn, kb, kj in table.sorted_keys()
                ],
            )
    if args.format == "table":
        print("g n b j value")
        for kg, kn, kb, kj in table.sorted_keys():
            print(f"{kg} {kn} {','.join(map(str, kb))} {kj} {table.values[(kg, kn, kb, kj)]}")
    else:
        for line in table.to_lines():
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    checks = verify.run(args.suite, gmax=args.gmax, cache_path=args.cache)
    for check in checks:
        print(check.line())
    return EXIT_OK if all_pass(checks) else EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
