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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _quick(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
    # args names its bounds as verify.Bounds does.  auto is frobenius checked
    # by brute force where feasible, not by the genus-0 closed form, whose
    # cost on the poles benchmark the README's --engine paragraph gives
    auto = args.engine == "auto"
    engine = "frobenius" if auto else args.engine
    value = verify.SOURCES[engine](g, profile, args)
    for name, check in verify.witnesses(g, profile, ("brute",) if auto else (), args):
        if check != value:
            raise ConsistencyError(
                f"engines disagree on genus {g}, profile {profile}: {engine}={value}, {name}={check}"
            )
    return value, engine


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


# ---------------------------------------------------------------------------
# argument parsing


# command -> (handler, help, {argument: add_argument keywords}); a key
# without a leading "-" is a positional, and the positionals come first
_OPTIONS = {
    "hurwitz": (_cmd_hurwitz, "compute one connected Hurwitz number", {
        "--genus": dict(type=int, required=True),
        "--profile": dict(required=True, help="pole orders, e.g. 2,1,1"),
        "--engine": dict(choices=("auto", "brute", "frobenius", "cutjoin"), default="auto"),
        "--format": dict(choices=("value", "record"), default="value"),
        "--cache": dict(help="append-only cache file"),
        "--brute-sheets": dict(type=_bound, default=engines.DEFAULT_SHEET_BOUND),
        "--brute-work": dict(type=_bound, default=engines.DEFAULT_WORK_BOUND),
        "--kmax": dict(type=_bound, default=engines.DEFAULT_K_BOUND,
                       help="sheet bound for the character engine"),
        "--rmax": dict(type=_bound, default=engines.DEFAULT_R_BOUND),
        "--cutjoin-kmax": dict(type=_bound, default=cutjoin.DEFAULT_TRUNCATION),
    }),
    "hodge": (_cmd_hodge, "extract a table of psi/lambda integrals", {
        "--genus": dict(type=int, required=True),
        "--points": dict(type=int, required=True, help="number of marked points n"),
        "--format": dict(choices=("records", "table"), default="records"),
        "--cache": dict(help="append-only cache file"),
        "--kmax": dict(type=_bound, default=engines.DEFAULT_K_BOUND),
        "--rmax": dict(type=_bound, default=engines.DEFAULT_R_BOUND),
    }),
    "verify": (_cmd_verify, "run one verification suite", {
        "suite": dict(choices=verify.SUITES),
        "--gmax": dict(type=int, default=2, help="genus budget for fp-identity"),
        "--cache": dict(help="cache file (degll also checks its records)"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, one sub-parser per command of _OPTIONS."""
    parser = _Parser(prog="hurwitz-hodge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (handler, text, options) in _OPTIONS.items():
        command_parser = sub.add_parser(command, help=text)
        for name, keywords in options.items():
            command_parser.add_argument(name, **keywords)
        command_parser.set_defaults(func=handler)
    return parser


# command -> (handler, ((positional, choices), ...), {flag: (attribute, type,
# choices)}, required flags, {attribute: default}) for _quick, from _OPTIONS
_QUICK = {
    command: (
        handler,
        tuple((name, keywords["choices"]) for name, keywords in options.items() if name[0] != "-"),
        {flag: (flag[2:].replace("-", "_"), keywords.get("type", str), keywords.get("choices"))
         for flag, keywords in options.items() if flag[0] == "-"},
        frozenset(flag for flag, keywords in options.items() if keywords.get("required")),
        {name.lstrip("-").replace("-", "_"): keywords.get("default") for name, keywords in options.items()},
    )
    for command, (handler, _, options) in _OPTIONS.items()
}


def _quick(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser would return for a command of _OPTIONS
    followed by one of the choices of each of its positionals, then exact
    ``--flag value`` pairs, each value valid for its flag and not starting
    with "-" (a repeated flag keeps its last value); None for any other
    argv, which the full parser then reads, so that abbreviations,
    ``--flag=value``, ``--``, usage errors and help stay argparse's."""
    if not argv or argv[0] not in _QUICK:
        return None
    handler, positionals, flags, required, defaults = _QUICK[argv[0]]
    start = len(positionals) + 1
    if len(argv) < start or (len(argv) - start) % 2:
        return None
    values = defaults.copy()
    if positionals:
        for (name, choices), text in zip(positionals, argv[1:start]):
            if text not in choices:
                return None
            values[name] = text
    given = argv[start::2]
    for flag, text in zip(given, argv[start + 1::2]):
        spec = flags.get(flag)
        if spec is None or text.startswith("-"):
            return None
        name, kind, choices = spec
        try:
            value = kind(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    if not required.issubset(given):
        return None
    args = argparse.Namespace(command=argv[0], func=handler)
    vars(args).update(values)
    return args


if __name__ == "__main__":
    sys.exit(main())
