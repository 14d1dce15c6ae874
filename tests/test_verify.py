"""The table of count sources, and the map of which keys the verify suites
guard."""

from collections import Counter
from fractions import Fraction

import pytest

from hurwitz_hodge import cli, cutjoin, engines, verify
from hurwitz_hodge.errors import ConsistencyError
from hurwitz_hodge.partitions import partitions_of
from hurwitz_hodge.report import all_pass

# ---------------------------------------------------------------------------
# the source table


def test_witnesses_come_in_the_order_named():
    for names in [("cutjoin", "brute", "frobenius"), ("frobenius", "cutjoin", "brute")]:
        assert list(verify.witnesses(1, (2, 1), names)) == [(name, 40) for name in names]
    assert list(verify.witnesses(0, (2, 1), ("closed-form", "brute"))) == [("closed-form", 4), ("brute", 4)]


@pytest.mark.parametrize("g, mu, names, served", [
    # six sheets: past brute force's default sheet bound of 5
    (0, (3, 3), ("brute", "frobenius", "closed-form"), [("frobenius", 1215), ("closed-form", 1215)]),
    # k = 11: past frobenius's default --kmax and cut-and-join's truncation
    (0, (11,), ("frobenius", "cutjoin", "closed-form"), [("closed-form", 11 ** 8)]),
    # the closed form counts genus 0 only
    (1, (2, 1), ("closed-form", "frobenius"), [("frobenius", 40)]),
    # r = 61: past frobenius's and cut-and-join's --rmax of 40
    (30, (2,), ("frobenius", "cutjoin", "brute"), [("brute", Fraction(1, 2))]),
])
def test_witnesses_skip_sources_that_cannot_serve(g, mu, names, served):
    assert list(verify.witnesses(g, mu, names)) == served


def test_witnesses_pass_the_bounds_given():
    assert list(verify.witnesses(0, (3, 3), ("brute",), verify.Bounds(brute_sheets=6))) == [("brute", 1215)]
    assert list(verify.witnesses(0, (2, 1), ("frobenius", "cutjoin"), verify.Bounds(kmax=2))) == [
        ("cutjoin", 4)]
    assert list(verify.witnesses(0, (2, 1), ("cutjoin",), verify.Bounds(cutjoin_kmax=2))) == []
    assert list(verify.witnesses(1, (2,), ("brute", "frobenius"), verify.Bounds(brute_work=1, rmax=2))) == []


@pytest.mark.parametrize("g, mu", [
    (0, (1, 1, 1)), (0, (2, 1)), (0, (3, 2)), (1, (2,)), (1, (2, 1)), (2, (1, 1))])
def test_sources_equal_the_engines_called_directly(g, mu):
    direct = {
        "brute": engines.brute_force_hurwitz(g, mu),
        "frobenius": engines.connected_hurwitz(g, mu),
        "cutjoin": cutjoin.cut_and_join_hurwitz(g, mu),
    }
    if g == 0:
        direct["closed-form"] = engines.genus_zero_closed_form(mu)
    assert dict(verify.witnesses(g, mu, tuple(verify.SOURCES))) == direct


def test_sources_look_their_engines_up_when_called(monkeypatch):
    # a patched module attribute is what a source calls, as the benchmark's
    # tracer and the fault table need
    monkeypatch.setattr(engines, "brute_force_hurwitz", lambda g, profile, **bounds: Fraction(-1))
    monkeypatch.setattr(cutjoin, "cut_and_join_hurwitz", lambda g, profile, **bounds: Fraction(-2))
    monkeypatch.setattr(engines, "connected_hurwitz", lambda g, profile, **bounds: Fraction(-3))
    monkeypatch.setattr(engines, "genus_zero_closed_form", lambda profile: Fraction(-4))
    assert list(verify.witnesses(0, (2, 1), ("brute", "cutjoin", "frobenius", "closed-form"))) == [
        ("brute", -1), ("cutjoin", -2), ("frobenius", -3), ("closed-form", -4)]


def test_hurwitz_options_are_the_bounds():
    # _compute_hurwitz passes its parsed arguments as the bounds
    args = cli._build_parser().parse_args(["hurwitz", "--genus", "0", "--profile", "1"])
    assert {name: getattr(args, name) for name in verify.Bounds._fields} == verify.Bounds()._asdict()


# ---------------------------------------------------------------------------
# the check-coverage map

# the keys the default bounds serve at g <= 3 (k <= 10; every r is <= 24 < 40)
_KEYS = {(g, mu) for k in range(1, 11) for mu in partitions_of(k) for g in range(4)}


def _key(g, profile):
    return g, tuple(sorted(profile, reverse=True))


def _run_under(monkeypatch, suite, connected) -> bool:
    """Whether ``suite`` fails with ``connected`` as engines.connected_hurwitz."""
    with monkeypatch.context() as patch:
        patch.setattr(engines, "connected_hurwitz", connected)
        try:
            return not all_pass(verify.run(suite))
        except ConsistencyError:
            return True


def test_check_coverage_map(monkeypatch):
    """Which served keys a +1 fault in frobenius is caught at, by suite.
    A spy pass records the keys each suite reads; a fault pass adds 1 at
    each key a suite read, under that suite alone.  A key a suite does not
    read cannot be caught by it, so this is the map a fault at every key
    under every suite gives.  A check added later raises these numbers."""
    original = engines.connected_hurwitz
    read = {}
    for suite in verify.SUITES:
        seen = set()

        def spy(g, profile, **bounds):
            seen.add(_key(g, profile))
            return original(g, profile, **bounds)

        assert not _run_under(monkeypatch, suite, spy)
        read[suite] = seen & _KEYS
    caught = {}
    for suite, keys in read.items():
        caught[suite] = set()
        for key in keys:
            def faulty(g, profile, **bounds):
                value = original(g, profile, **bounds)
                return value + 1 if _key(g, profile) == key else value

            if _run_under(monkeypatch, suite, faulty):
                caught[suite].add(key)
    assert len(_KEYS) == 552
    assert {suite: len(keys) for suite, keys in caught.items()} == {
        "engines": 103, "genus0": 66, "degll": 0, "hodge-roundtrip": 93, "fp-identity": 7}
    # degll's sweep checks integrality only, and a +1 adds #Aut * prod k to
    # an integral LL degree; every other suite catches each key it reads
    assert len(read["degll"]) == 140
    assert all(caught[suite] == read[suite] for suite in read if suite != "degll")
    guarded = set().union(*caught.values())
    assert len(guarded) == 181
    # the README's table: guarded and unguarded keys by k
    by_k = Counter(sum(mu) for _, mu in guarded)
    assert [by_k[k] for k in range(1, 11)] == [4, 8, 12, 20, 26, 33, 27, 32, 13, 6]
    unguarded = Counter(sum(mu) for _, mu in _KEYS - guarded)
    assert [unguarded[k] for k in range(1, 11)] == [0, 0, 0, 0, 2, 11, 33, 56, 107, 162]
