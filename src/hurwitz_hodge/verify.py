"""Verification suites, one Check per fact.  Each sweep is enumerated once,
here; the CLI's ``verify`` command and the acceptance tests both run it."""

import os
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

from . import cache as cache_store
from . import cutjoin, engines, hodge, series
from .errors import ConsistencyError, InfeasibleError
from .partitions import aut_count, parse_profile, partitions_of
from .report import Check, make_check


# Engine bounds under the hurwitz command's option names, so that its parsed
# arguments serve as bounds too; each defaults to its engine's default.
Bounds = namedtuple("Bounds", "brute_sheets brute_work kmax rmax cutjoin_kmax", defaults=(
    engines.DEFAULT_SHEET_BOUND, engines.DEFAULT_WORK_BOUND, engines.DEFAULT_K_BOUND,
    engines.DEFAULT_R_BOUND, cutjoin.DEFAULT_TRUNCATION))


def _closed_form(g: int, profile, bounds) -> Fraction:
    if g:
        raise InfeasibleError(f"the closed form counts genus 0 only, not genus {g}")
    return engines.genus_zero_closed_form(profile)


# Every source of h(g; mu): name -> call (g, mu, bounds), raising
# InfeasibleError where the source cannot serve.  A call looks its engine up
# as it runs, so a patched or traced module attribute is the one called.
SOURCES = {
    "brute": lambda g, mu, b: engines.brute_force_hurwitz(g, mu, sheet_bound=b.brute_sheets,
                                                          work_bound=b.brute_work),
    "frobenius": lambda g, mu, b: engines.connected_hurwitz(g, mu, k_bound=b.kmax, r_bound=b.rmax),
    "cutjoin": lambda g, mu, b: cutjoin.cut_and_join_hurwitz(g, mu, kmax=b.cutjoin_kmax, r_bound=b.rmax),
    "closed-form": _closed_form,
}


def witnesses(g: int, mu, names, bounds=Bounds()):
    """(name, h(g; mu)) from each source of ``names``, in that order,
    skipping the sources that cannot serve within ``bounds``."""
    for name in names:
        try:
            value = SOURCES[name](g, mu, bounds)
        except InfeasibleError:
            continue
        yield name, value


def _mu_text(mu) -> str:
    return ",".join(map(str, mu))


def _parse_genus(text: str) -> int:
    g = int(text)
    if g < 0:
        raise ValueError(f"genus must be a nonnegative integer, got {g}")
    return g


def _engine_keys():
    """(g, mu) for k <= 5 up to r = k + n + 2g - 2 = 12, then for the
    partitions of 6 at g <= 2."""
    for k in range(1, 6):
        for mu in partitions_of(k):
            for g in range((14 - k - len(mu)) // 2 + 1):
                yield g, mu
    for mu in partitions_of(6):
        for g in range(3):
            yield g, mu


def _genus0_keys():
    return [mu for k in range(1, 9) for mu in partitions_of(k)]


def _engines(gmax, cache_path) -> list[Check]:
    """Frobenius vs cut-and-join on every key, and vs brute force for k <= 5."""
    checks, bounds = [], Bounds(cutjoin_kmax=6)
    for g, mu in _engine_keys():
        key = f"g={g}/mu={_mu_text(mu)}"
        hf = engines.connected_hurwitz(g, mu)
        if sum(mu) <= 5:
            hb = engines.brute_force_hurwitz(g, mu)
            checks.append(make_check("engines", key + "/brute-vs-frobenius", hb, hf))
        hc = SOURCES["cutjoin"](g, mu, bounds)
        checks.append(make_check("engines", key + "/frobenius-vs-cutjoin", hf, hc))
    return checks


def _genus0(gmax, cache_path) -> list[Check]:
    return [make_check("genus0", f"mu={_mu_text(mu)}", engines.genus_zero_closed_form(mu),
                       engines.connected_hurwitz(0, mu)) for mu in _genus0_keys()]


def _degll_check(g: int, mu, h: Fraction) -> Check:
    try:
        actual, status = hodge.degree_LL(g, mu, h), "pass"
    except ConsistencyError:
        actual, status = Fraction(h) * aut_count(mu) * prod(mu), "fail"
    return Check("degll", f"g={g}/mu={_mu_text(mu)}", "nonnegative-integer", str(actual), status)


def _degll(gmax, cache_path) -> list[Check]:
    keys = dict.fromkeys([*_engine_keys(), *((0, mu) for mu in _genus0_keys())])
    checks = [_degll_check(g, mu, engines.connected_hurwitz(g, mu)) for g, mu in keys]
    for record in cache_store.read_records(cache_path) if cache_path else ():
        if record["kind"] != "hurwitz":
            continue
        g = cache_store.parse_field(cache_path, record, "g", _parse_genus)
        h = cache_store.parse_field(cache_path, record, "value", Fraction)
        mu = cache_store.parse_field(cache_path, record, "mu", parse_profile)
        checks.append(_degll_check(g, mu, h))
        # integrality alone misses a wrong but integral count: the first
        # source that serves recomputes it; beyond all three, integrality only
        for name, expected in witnesses(g, mu, ("closed-form", "frobenius", "brute")):
            checks.append(make_check("degll", f"g={g}/mu={_mu_text(mu)}/{name}", expected, h))
            break
    return checks


def _roundtrip(gmax, cache_path) -> list[Check]:
    checks, tables, bounds = [], {}, Bounds(kmax=15, rmax=20)
    for g in range(3):
        for n in range(1, 4):
            if not hodge.is_stable(g, n):
                continue
            table = hodge.extract_hodge_integrals(g, n, k_bound=bounds.kmax, r_bound=bounds.rmax)
            tables[g, n] = table
            level = table.grid_bound[(g, n)]
            for point in combinations_with_replacement(range(1, 5), n):
                expected = SOURCES["frobenius"](g, point, bounds)
                actual = hodge.hurwitz_from_hodge(g, point, table)
                # in-grid: on the sample the table was extracted from
                tag = "in-grid" if sum(point) - n <= level else "out-of-grid"
                checks.append(make_check("hodge-roundtrip", f"g={g}/mu={_mu_text(point)}/{tag}",
                                         expected, actual))
    # h(1;1) = 0 forces alternating signs.  The all-plus P of a table is the
    # alternating P of its copy with every odd-j entry negated: 1/6 here.
    t11, plus = tables[1, 1], hodge.HodgeTable()
    plus.values = {(g, n, b, j): (-1) ** j * value for (g, n, b, j), value in t11.values.items()}
    checks.append(make_check("hodge-roundtrip", "sign=alternating/h(1;1)", Fraction(0),
                             hodge.hurwitz_from_hodge(1, (1,), t11)))
    checks.append(make_check("hodge-roundtrip", "sign=plus/h(1;1)", Fraction(1, 6),
                             hodge.hurwitz_from_hodge(1, (1,), plus)))
    return checks


# Every suite takes (gmax, cache_path) and uses what applies to it.
SUITES = {
    "engines": _engines,
    "genus0": _genus0,
    "degll": _degll,
    "hodge-roundtrip": _roundtrip,
    "fp-identity": lambda gmax, cache_path: series.verify_faber_pandharipande(gmax),
}


def run(name: str, *, gmax: int = 2, cache_path: str | None = None) -> list[Check]:
    """All checks of the suite ``name``.  ``gmax`` is fp-identity's genus
    budget; degll also checks the records of the cache at ``cache_path``,
    which must exist."""
    if cache_path is not None and not os.path.exists(cache_path):
        raise cache_store.CacheError(f"no cache file at {cache_path}")
    return SUITES[name](gmax, cache_path)
