"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact rational arithmetic; there are no tolerances
anywhere.
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from hurwitz_hodge import verify
from hurwitz_hodge.characters import character_value
from hurwitz_hodge.cutjoin import cut_and_join_hurwitz, cut_and_join_layers
from hurwitz_hodge.engines import brute_force_hurwitz, connected_hurwitz
from hurwitz_hodge.hodge import degree_LL, extract_hodge_integrals
from hurwitz_hodge.partitions import partitions_of, z_order
from hurwitz_hodge.series import sine_kernel
from hurwitz_hodge.report import all_pass

F = Fraction

ANCHORS = {
    (0, (1, 1, 1)): F(4),
    (0, (2, 1)): F(4),
    (0, (3,)): F(1),
    (0, (4,)): F(4),
    (0, (2, 2)): F(12),
    (0, (1, 1, 1, 1)): F(120),
    (1, (1,)): F(0),
    (1, (2,)): F(1, 2),
    (1, (1, 1)): F(1, 2),
    (1, (1, 1, 1)): F(40),
    (2, (1,)): F(0),
    (2, (2,)): F(1, 2),
    (2, (3,)): F(81),
}


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@lru_cache(maxsize=None)
def _suite(name):
    return tuple(verify.run(name))


def _keys(checks, suffix=""):
    return [c.key for c in checks if c.key.endswith(suffix)]


def test_criterion_1_anchor_values():
    ok = True
    for (g, mu), expected in ANCHORS.items():
        values = (
            brute_force_hurwitz(g, mu),
            connected_hurwitz(g, mu),
            cut_and_join_hurwitz(g, mu),
        )
        ok = ok and all(v == expected for v in values)
    _report(1, "anchor Hurwitz numbers on all three engines", ok)


def test_criterion_2_engine_agreement():
    start = time.monotonic()
    checks = _suite("engines")
    elapsed = time.monotonic() - start
    triple = _keys(checks, "/brute-vs-frobenius")
    pair = set(_keys(checks, "/frobenius-vs-cutjoin"))
    every_pair = {
        f"g={g}/mu={','.join(map(str, mu))}/frobenius-vs-cutjoin"
        for k in range(1, 7) for mu in partitions_of(k) for g in range(3)
    }
    ok = all_pass(checks) and len(triple) == 85 and every_pair <= pair and elapsed < 300
    _report(2, f"engine agreement ({len(triple)} triple + {len(pair)} pair keys, {elapsed:.1f}s)", ok)


def test_criterion_3_genus_zero_closed_form():
    checks = _suite("genus0")
    ok = all_pass(checks) and len(checks) == 66
    _report(3, f"genus-0 closed form for k <= 8 ({len(checks)} keys)", ok)


def test_criterion_4_degree_integrality():
    checks = _suite("degll")
    ok = all_pass(checks) and len(set(_keys(checks))) == 155
    for (g, mu), h in ANCHORS.items():
        degree_LL(g, mu, h)
    _report(4, f"deg LL integrality over {len(checks)} computed values", ok)


def test_criterion_5_hodge_extraction():
    t11 = extract_hodge_integrals(1, 1)
    t03 = extract_hodge_integrals(0, 3)
    t21 = extract_hodge_integrals(2, 1)
    ok = (
        t11.get(1, 1, (1,), 0) == F(1, 24)
        and t11.get(1, 1, (0,), 1) == F(1, 24)
        and t03.get(0, 3, (0, 0, 0), 0) == 1
        and t21.get(2, 1, (4,), 0) == F(1, 1152)
        and t21.get(2, 1, (3,), 1) == F(1, 480)
        and t21.get(2, 1, (2,), 2) == F(7, 5760)
        and all(t.surplus_rows[key] >= 1 for t, key in [(t11, (1, 1)), (t03, (0, 3)), (t21, (2, 1))])
    )
    _report(5, "extracted integral tables with surplus residual rows", ok)


@lru_cache(maxsize=None)
def _level(g, n):
    return extract_hodge_integrals(g, n).grid_bound[(g, n)]


def _off_sample(key):
    """Whether the profile of a hodge-roundtrip key lies off the sample of
    its table: sum(k_i - 1) above the table's level."""
    genus, mu, _ = key.split("/")
    profile = tuple(int(k) for k in mu[3:].split(","))
    return sum(profile) - len(profile) > _level(int(genus[2:]), len(profile))


def test_criterion_6_round_trip():
    checks = _suite("hodge-roundtrip")
    outside = _keys(checks, "/out-of-grid")
    tagged = _keys(checks, "/in-grid") + outside
    # the tags agree with the samples, and every pole count 1..3 is
    # checked off its sample
    ok = (all_pass(checks) and all(_off_sample(key) == key.endswith("/out-of-grid") for key in tagged)
          and {key.count(",") + 1 for key in outside} == {1, 2, 3})
    _report(6, f"round trip through extraction ({len(outside)} out-of-grid profiles)", ok)


def test_criterion_7_sine_kernel_identity():
    ok = True
    for k in range(1, 6):
        kernel = sine_kernel(k, 6)
        ok = ok and kernel[2] == F(k + 1, 24)
        ok = ok and kernel[4] == F((k + 1) * (5 * k + 7), 5760)
    ok = ok and all_pass(verify.run("fp-identity"))
    _report(7, "sine-kernel coefficients and extracted-table identity", ok)


def test_criterion_8_sign_convention():
    signs = {c.key: c for c in _suite("hodge-roundtrip") if c.key.startswith("sign=")}
    plus = signs["sign=plus/h(1;1)"]
    ok = all_pass(signs.values()) and plus.expected == plus.actual == "1/6"
    _report(8, "alternating signs forced by h(1;1)=0 (plus variant gives 1/6)", ok)


def test_criterion_9_property_suites():
    ok = True
    # normalization integrality: h * k! is a nonnegative integer
    for k in range(1, 7):
        for mu in partitions_of(k):
            for g in range(3):
                h = connected_hurwitz(g, mu)
                ok = ok and h >= 0 and (h * factorial(k)).denominator == 1
    # profile-permutation invariance
    for profile in [(1, 2, 3), (2, 2, 1), (4, 1)]:
        for g in range(2):
            ok = ok and len({connected_hurwitz(g, p) for p in set(permutations(profile))}) == 1
    # cut-and-join parity vanishing: monomials appear only with a legal genus
    for r, layer in enumerate(cut_and_join_layers(10, kmax=5)):
        for mono in layer:
            twice_genus = r - sum(mono) - len(mono) + 2
            ok = ok and twice_genus >= 0 and twice_genus % 2 == 0
    # character orthogonality for k <= 6
    for k in range(1, 7):
        shapes = partitions_of(k)
        for mu in shapes:
            for nu in shapes:
                total = sum(character_value(lam, mu) * character_value(lam, nu) for lam in shapes)
                ok = ok and total == (z_order(mu) if mu == nu else 0)
    _report(9, "integrality, symmetry, parity, orthogonality (all exact)", ok)
