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


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command map, command name -> sub-parser."""
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
    return parser, sub.choices


# built on the first call to main and reused: parsing leaves no state on the
# parser, and building it costs more than most commands
_PARSER: argparse.ArgumentParser | None = None
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    # A known command goes straight to its sub-parser, which reads the
    # arguments once; through _PARSER they are scanned twice, once to
    # classify them and once more by the sub-parser.  Anything left over,
    # and anything that does not start with a command, goes through
    # _PARSER, so that usage errors, help and exit codes are its own.
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    global _PARSER, _COMMANDS
    if _PARSER is None:
        _PARSER, _COMMANDS = _build_parsers()
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
    record = {"kind": "hurwitz", "g": str(g), "mu": mu_text}
    cached = cache_store.find(args.cache, [record])[0] if args.cache else None
    if cached is not None:
        value = cache_store.parse_field(args.cache, cached, "value", Fraction)
        try:
            hodge.degree_LL(g, profile, value)
        except ConsistencyError as exc:
            raise ConsistencyError(
                f"bad cache hit in {cache_store.describe(args.cache, cached)}: {exc}"
            ) from exc
    else:
        value, engine_used = _compute_hurwitz(args, g, profile)
        if args.cache:
            cache_store.append_records(args.cache, [dict(record, engine=engine_used, value=str(value))])
    if args.format == "record":
        print(f"hurwitz genus={g} profile={','.join(map(str, profile))} engine={args.engine} value={value}")
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hodge


def _hodge_record(g, n, b, j, **fields) -> dict[str, str]:
    return {"kind": "hodge", "g": str(g), "n": str(n), "b": ",".join(map(str, b)), "j": str(j), **fields}


def _cmd_hodge(args) -> int:
    g, n = args.genus, args.points
    table = None
    # a cache with fewer records than (g, n) has keys cannot hold the table;
    # then no key is listed, nor counted (O((g + n) n) time) if the cache has
    # at most g or n - 4 records: every table has a key per j <= g, and at
    # least n - 3 at j = 0.  The extraction then refuses on its first points
    records = 0
    if args.cache and os.path.exists(args.cache):
        records = len(cache_store.read_records(args.cache))
    if max(g, n - 4) < records and hodge._key_count(g, n) <= records:
        keys = hodge.hodge_keys(g, n)
        hits = cache_store.find(args.cache, [_hodge_record(g, n, b, j) for j, b in keys])
        if None not in hits:
            table = hodge.HodgeTable()
            for (j, b), hit in zip(keys, hits):
                table.set(g, n, b, j, cache_store.parse_field(args.cache, hit, "value", Fraction))
    if table is None:
        table = hodge.extract_hodge_integrals(g, n, k_bound=args.kmax, r_bound=args.rmax)
        if args.cache:
            written = [_hodge_record(*key, engine="extraction", value=str(value))
                       for key, value in sorted(table.values.items())]
            hits = cache_store.find(args.cache, written)
            cache_store.append_records(args.cache, [rec for rec, hit in zip(written, hits) if hit is None])
    if args.format == "table":
        print("g n b j value")
        for (kg, kn, kb, kj), value in sorted(table.values.items()):
            print(f"{kg} {kn} {','.join(map(str, kb))} {kj} {value}")
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
