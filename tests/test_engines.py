import importlib.util
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, permutations, product
from math import comb, factorial
from pathlib import Path

import pytest

from hurwitz_hodge import characters, engines
from hurwitz_hodge.characters import character_value, content_eigenvalue, irrep_dimension
from hurwitz_hodge.cutjoin import cut_and_join_hurwitz
from hurwitz_hodge.engines import (
    brute_force_hurwitz,
    connected_hurwitz,
    frobenius_disconnected,
    genus_zero_closed_form,
    ramification_count,
)
from hurwitz_hodge.errors import ConsistencyError, InfeasibleError
from hurwitz_hodge.partitions import aut_count, partitions_of


# ---------------------------------------------------------------------------
# literal enumeration oracle, independent of every engine


def _apply(perm, a, b):
    return [b if v == a else a if v == b else v for v in perm]


def _cycle_type(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        length, i = 0, s
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def _is_connected(k, edges):
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(k)}) == 1


def enumerate_tuples(mu, r, require_connected):
    """Count length-r transposition tuples with product of type mu by
    walking every tuple; transitivity by orbit (union-find) on the edges."""
    k = sum(mu)
    mu = tuple(sorted(mu, reverse=True))
    transpositions = [(a, b) for a in range(k) for b in range(a + 1, k)]
    count = 0
    for tup in product(transpositions, repeat=r):
        perm = list(range(k))
        for a, b in tup:
            perm = _apply(perm, a, b)
        if _cycle_type(perm) != mu:
            continue
        if require_connected and not _is_connected(k, tup):
            continue
        count += 1
    return Fraction(count, factorial(k))


def _small_cases():
    cases = []
    for k in range(1, 4):
        for mu in partitions_of(k):
            n = len(mu)
            g = 0
            while k + n + 2 * g - 2 <= 6:
                cases.append((g, tuple(mu)))
                g += 1
    for mu in partitions_of(4):
        if 4 + len(mu) - 2 <= 4:
            cases.append((0, tuple(mu)))
    return cases


@pytest.mark.parametrize("g,mu", _small_cases())
def test_brute_force_against_literal_enumeration(g, mu):
    r = ramification_count(g, mu)
    assert brute_force_hurwitz(g, mu) == enumerate_tuples(mu, r, require_connected=True)


@pytest.mark.parametrize("g,mu", _small_cases())
def test_frobenius_against_literal_enumeration(g, mu):
    r = ramification_count(g, mu)
    assert frobenius_disconnected(mu, r) == enumerate_tuples(mu, r, require_connected=False)


# ---------------------------------------------------------------------------
# documented values


def test_ramification_count_examples():
    assert ramification_count(0, (1, 1, 1)) == 4
    assert ramification_count(1, (2,)) == 3
    assert ramification_count(2, (3,)) == 6
    with pytest.raises(ValueError):
        ramification_count(-1, (2,))


def test_brute_force_examples():
    assert brute_force_hurwitz(0, (1, 1, 1)) == 4
    assert brute_force_hurwitz(1, (1,)) == 0
    assert brute_force_hurwitz(1, (2,)) == Fraction(1, 2)
    assert brute_force_hurwitz(0, (2, 1)) == 4


def test_frobenius_examples():
    assert frobenius_disconnected((1, 1, 1), 4) == Fraction(9, 2)
    assert frobenius_disconnected((2,), 3) == Fraction(1, 2)
    assert frobenius_disconnected((2, 2), 4) == 13


ANCHORS = {
    (0, (1, 1, 1)): Fraction(4),
    (0, (2, 2)): Fraction(12),
    (1, (1, 1, 1)): Fraction(40),
    (0, (1, 1, 1, 1)): Fraction(120),
    (2, (3,)): Fraction(81),
}


@pytest.mark.parametrize("key,expected", sorted(ANCHORS.items()))
def test_connected_examples(key, expected):
    g, mu = key
    assert connected_hurwitz(g, mu) == expected


def test_genus_zero_closed_form_examples():
    assert genus_zero_closed_form((1, 1, 1)) == 4
    assert genus_zero_closed_form((3,)) == 1
    assert genus_zero_closed_form((2, 2)) == 12


@pytest.mark.parametrize("k", range(1, 9))
def test_genus_zero_closed_form_matches_engine(k):
    for mu in partitions_of(k):
        assert connected_hurwitz(0, mu) == genus_zero_closed_form(mu)


# ---------------------------------------------------------------------------
# inclusion-exclusion over sub-multisets of poles, against sources that never
# go through it: the cut-and-join layers and the genus-0 closed form


def test_connected_matches_cut_and_join_weight_8():
    for mu in partitions_of(8):
        for g in range(2):
            assert connected_hurwitz(g, mu) == cut_and_join_hurwitz(g, mu, kmax=8)


@pytest.mark.parametrize(
    "mu", [(1,) * 14, (2,) + (1,) * 12, (3, 3) + (1,) * 8, (2, 2, 2) + (1,) * 6]
)
def test_genus_zero_closed_form_many_repeated_poles(mu):
    assert connected_hurwitz(0, mu, k_bound=16) == genus_zero_closed_form(mu)


# ---------------------------------------------------------------------------
# invariants


def test_profile_order_invariance():
    for profile in [(1, 3, 2), (2, 1, 2), (4, 1, 1)]:
        for g in range(2):
            values = {connected_hurwitz(g, p) for p in set(permutations(profile))}
            assert len(values) == 1


def test_normalization_integrality():
    for k in range(1, 7):
        for mu in partitions_of(k):
            for g in range(3):
                h = connected_hurwitz(g, mu)
                assert h >= 0
                assert (h * factorial(k)).denominator == 1


def test_parity_vanishing():
    # wrong-parity transposition counts give exactly zero
    for k in range(1, 6):
        for mu in partitions_of(k):
            base = k - len(mu)
            for r in range(9):
                if (r - base) % 2:
                    assert frobenius_disconnected(mu, r) == 0
    # and the literal enumeration agrees that nothing was there to count
    assert enumerate_tuples((2,), 2, require_connected=False) == 0
    assert enumerate_tuples((1, 1, 1), 3, require_connected=False) == 0


def test_disconnected_dominates_connected():
    for k in range(1, 6):
        for mu in partitions_of(k):
            n = len(mu)
            for g in range(3):
                r = k + n + 2 * g - 2
                disconnected = frobenius_disconnected(mu, r)
                connected = connected_hurwitz(g, mu)
                assert disconnected >= connected
                if n == 1:
                    # a full-length cycle in the monodromy forces transitivity
                    assert disconnected == connected


def test_brute_force_state_table_is_thread_safe():
    # four threads growing the same cold state table used to step it twice
    # and leave a wrong count behind for every later call
    engines._BRUTE_STATE.pop(5, None)
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append(brute_force_hurwitz(1, (1,) * 5))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    r = ramification_count(1, (1,) * 5)
    assert results == [connected_hurwitz(1, (1,) * 5)] * 4
    assert len(engines._BRUTE_STATE[5]["summaries"]) == r + 1


def _state_summaries(k, r):
    """The brute-force summaries stepped state by state: (permutation,
    connectivity labels) pairs, each block labelled by its least sheet."""
    transpositions = [(a, b) for a in range(k) for b in range(a + 1, k)]
    states = {(tuple(range(k)), tuple(range(k))): 1}
    summaries = []
    for step in range(r + 1):
        if step:
            nxt = {}
            for (perm, labels), cnt in states.items():
                for a, b in transpositions:
                    keep, drop = sorted((labels[a], labels[b]))
                    key = (tuple(_apply(perm, a, b)),
                           tuple(keep if lab == drop else lab for lab in labels))
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
        summary = {}
        for (perm, labels), cnt in states.items():
            if not any(labels):
                ct = _cycle_type(perm)
                summary[ct] = summary.get(ct, 0) + cnt
        summaries.append(summary)
    return summaries


@pytest.mark.parametrize("k,r", [(1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 8)])
def test_orbit_summaries_match_state_summaries(k, r):
    assert engines._brute_summaries(k, r)[:r + 1] == _state_summaries(k, r)


def test_each_orbit_move_table_is_built_once(monkeypatch):
    # one table per multiset of partitions of k (the block cycle types),
    # all reached within 3k steps; a longer run reuses them
    built = []
    original = engines._orbit_moves
    monkeypatch.setattr(engines, "_orbit_moves", lambda key: built.append(key) or original(key))
    for k, orbits in zip(range(1, 6), (1, 3, 6, 14, 27)):
        saved = engines._BRUTE_STATE.pop(k, None)
        try:
            built.clear()
            engines._brute_summaries(k, 3 * k)
            assert len(built) == len(set(built)) == len(engines._BRUTE_STATE[k]["moves"]) == orbits
            built.clear()
            engines._brute_summaries(k, 3 * k + 5)
            assert built == []
        finally:
            engines._BRUTE_STATE.pop(k, None)
            if saved is not None:
                engines._BRUTE_STATE[k] = saved


@pytest.mark.parametrize("mu", partitions_of(6))
def test_brute_force_six_sheets_matches_frobenius(mu):
    for g in range(3):
        assert brute_force_hurwitz(g, mu, sheet_bound=6) == connected_hurwitz(g, mu)


def _clear_character_engine():
    characters._expansion.cache_clear()
    for table in (engines._char_data, engines._class_row):
        table.cache_clear()
    engines._CLASSES.clear()


def _poles_workload():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.POLES


def test_indivisible_character_sum_is_refused(monkeypatch):
    # a class row whose power sum z(mu) does not divide is an engine fault,
    # named with the class, r and z; the fake record keeps z((2,)) = 2, and
    # the cleared memo tables keep no value of its row
    engines._CLASSES.clear()
    monkeypatch.setattr(engines, "_class_row", lambda mu: (2, ((1, 1),)))
    try:
        with pytest.raises(ConsistencyError,
                           match=r"^character sum 1 for class \(2,\) and r=1 is not divisible by z=2$"):
            frobenius_disconnected((2,), 1)
    finally:
        engines._CLASSES.clear()


def test_poles_queries_count_aut_and_z_once_per_class(monkeypatch):
    # both layers count pole-labeled tuples: on the benchmark's poles
    # queries z(mu) is computed once per class row built and #Aut(mu) once
    # per public call, never inside the recursion
    poles = _poles_workload()
    _clear_character_engine()
    calls = []
    for name in ("aut_count", "z_order"):
        original = getattr(engines, name)
        monkeypatch.setattr(engines, name,
                            lambda mu, original=original: calls.append(mu) or original(mu))
    for g, profile in poles:
        connected_hurwitz(g, profile, k_bound=16)
    rows = engines._class_row.cache_info().misses
    assert rows and len(calls) <= rows + len(poles), (len(calls), rows)


@lru_cache(maxsize=None)
def _oracle_connected(mu, r):
    # the inclusion-exclusion memoized per (mu, r), every r_block running
    # up to r: k! * #Aut(mu) times the connected Hurwitz number
    k = sum(mu)
    total = _labeled_disconnected(mu, r)
    orders = [(v, len(list(run))) for v, run in groupby(mu[1:])]
    for counts in product(*(range(m + 1) for _, m in orders)):
        weight = 1
        block = [mu[0]]
        rest = []
        for c, (v, m) in zip(counts, orders):
            weight *= comb(m, c)
            block += [v] * c
            rest += [v] * (m - c)
        if not rest:
            continue
        block_mu = tuple(block)
        rest_mu = tuple(rest)
        weight *= comb(k, sum(block_mu))
        for r_block in range(sum(block_mu) + len(block_mu) - 2, r + 1, 2):
            h_block = _oracle_connected(block_mu, r_block)
            if not h_block:
                continue
            h_rest = _labeled_disconnected(rest_mu, r - r_block)
            if h_rest:
                total -= weight * comb(r, r_block) * h_block * h_rest
    return total


def _labeled_disconnected(mu, r):
    value = frobenius_disconnected(mu, r, k_bound=16) * factorial(sum(mu)) * aut_count(mu)
    assert value.denominator == 1
    return int(value)


def test_connected_matches_full_inclusion_exclusion():
    # the engine stops each r_block loop where the rest runs out of
    # transpositions and reads per-class rows; the oracle runs every
    # r_block up to r
    queries = [(g, mu) for k in range(1, 10) for mu in partitions_of(k) for g in range(4)]
    for g, profile in [*queries, *_poles_workload()]:
        mu = tuple(sorted(profile, reverse=True))
        expected = Fraction(_oracle_connected(mu, ramification_count(g, mu)),
                            factorial(sum(mu)) * aut_count(mu))
        assert connected_hurwitz(g, profile, k_bound=16) == expected, (g, profile)
    assert connected_hurwitz(0, (1,) * 16, k_bound=16) == genus_zero_closed_form((1,) * 16)


def test_expansions_and_counts_are_shared():
    # an expansion is keyed by its class suffix alone, so 1^12 is the one
    # inside 1^13, and (2, 1^11) adds one strip to it
    _clear_character_engine()
    expansions = characters._expansion.cache_info
    engines._class_row((1,) * 13)
    assert expansions().currsize == 14
    engines._class_row((1,) * 12)
    assert expansions().currsize == 14
    engines._class_row((2,) + (1,) * 11)
    assert expansions().currsize == 15

    def entries():
        return sum(len(c.disconnected) + len(c.connected) for c in engines._CLASSES.values())

    profile = (2, 2) + (1,) * 8
    value = connected_hurwitz(1, profile, k_bound=12)
    built = entries()
    assert built and connected_hurwitz(1, profile, k_bound=12) == value
    assert entries() == built


def test_character_engine_tables_are_thread_safe():
    # four threads filling the same cold memo tables must each see finished
    # expansions and rows, never a partly built one
    genus_one = (2, 2) + (1,) * 8
    single = connected_hurwitz(1, genus_one, k_bound=12)
    _clear_character_engine()
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append((connected_hurwitz(0, (1,) * 12, k_bound=12),
                        connected_hurwitz(1, genus_one, k_bound=12)))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(genus_zero_closed_form((1,) * 12), single)] * 4


def test_characters_go_through_engines_character_value(monkeypatch):
    # the benchmark's tracer counts character calls by wrapping this
    # attribute; a class row asks for each (shape, class) pair once
    calls = []
    original = engines.character_value

    def counting(lam, mu):
        calls.append((lam, mu))
        return original(lam, mu)

    expected = connected_hurwitz(1, (3, 2, 1))
    monkeypatch.setattr(engines, "character_value", counting)
    _clear_character_engine()
    assert connected_hurwitz(1, (3, 2, 1)) == expected
    assert calls and len(set(calls)) == len(calls)
    # each class asks for exactly the shapes of content sum >= 0, each once;
    # conjugation gives the rest of its row
    asked = {}
    for lam, mu in calls:
        asked.setdefault(mu, []).append(lam)
    for mu, shapes in asked.items():
        kept = [lam for lam in partitions_of(sum(mu)) if content_eigenvalue(lam) >= 0]
        assert sorted(shapes) == sorted(kept)


@pytest.mark.parametrize("k", range(13))
def test_class_row_matches_full_character_sum(k):
    # the row built from half the shapes equals the sum over all of them
    shapes = partitions_of(k)
    for mu in shapes:
        full = {}
        for lam in shapes:
            content = content_eigenvalue(lam)
            full[content] = full.get(content, 0) + irrep_dimension(lam) * character_value(lam, mu)
        assert dict(engines._class_row(mu)[1]) == {c: w for c, w in full.items() if w}


def test_engine_agreement_sample():
    for k in range(1, 6):
        for mu in partitions_of(k):
            for g in range(2):
                assert brute_force_hurwitz(g, mu) == connected_hurwitz(g, mu)


# ---------------------------------------------------------------------------
# bounds


def test_brute_force_sheet_bound():
    with pytest.raises(InfeasibleError, match="sheet bound"):
        brute_force_hurwitz(0, (6,))
    with pytest.raises(InfeasibleError, match="work bound"):
        brute_force_hurwitz(0, (3, 2), work_bound=10)


def test_brute_force_work_bound_rejects_long_runs(monkeypatch):
    # one or two sheets step almost nothing per transposition, yet every
    # step keeps a summary: a genus of 10^6 must be refused before any step
    def no_steps(k, r):
        raise AssertionError(f"stepped {k} sheets to r={r}")

    monkeypatch.setattr(engines, "_brute_summaries", no_steps)
    for profile in ((1,), (2,)):
        with pytest.raises(InfeasibleError, match="work bound"):
            brute_force_hurwitz(10 ** 6, profile)


def test_brute_force_work_estimate_lists_no_partitions(monkeypatch):
    # p(70) = 4,087,968: the estimate counts the summary's classes, so a
    # raised sheet bound is refused without listing them
    def no_listing(k, parts=None):
        raise AssertionError(f"listed the partitions of {k}")

    monkeypatch.setattr(engines, "partitions_of", no_listing)
    assert engines._brute_work(70, 1) > engines.DEFAULT_WORK_BOUND
    with pytest.raises(InfeasibleError, match="work bound"):
        brute_force_hurwitz(0, (70,), sheet_bound=100)


def test_brute_force_refused_on_visits_counts_no_partitions(monkeypatch):
    # the transposition tries at a few sheets already exceed the bound, so
    # neither p(2000) nor the orbits on 2000 sheets are ever counted
    original = engines._orbit_counts

    def few_terms(t):
        if t > 10:
            raise AssertionError(f"counted the partitions of {t}")
        return original(t)

    monkeypatch.setattr(engines, "_orbit_counts", few_terms)
    with pytest.raises(InfeasibleError, match="estimate 111832056 exceeds work bound"):
        brute_force_hurwitz(0, (2000,), sheet_bound=2000)


def test_brute_force_work_estimate_accepts_small_queries():
    # every brute-force key of verify engines and of the auto checks has
    # k <= 5 and r <= 12
    assert engines._brute_work(5, 12) <= engines.DEFAULT_WORK_BOUND
    assert all(engines._brute_work(k, r) > 0 for k in range(1, 6) for r in range(3))


# the orbits the estimate prices: multisets of partitions of total k
# (OEIS A001970), k = 1..12
ORBITS = [1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527, 2870]


def test_orbit_count_is_multisets_of_partitions():
    assert [engines._orbit_counts(k)[1] for k in range(1, 13)] == ORBITS
    assert [engines._orbit_counts(k)[0] for k in range(13)] == [len(partitions_of(k)) for k in range(13)]


@pytest.mark.parametrize("k", range(1, 9))
def test_orbit_count_is_the_orbits_stepped(monkeypatch, k):
    # from an empty state table, 2k + 4 steps build one move table per orbit
    monkeypatch.setattr(engines, "_BRUTE_STATE", {})
    engines._brute_summaries(k, 2 * k + 4)
    assert len(engines._BRUTE_STATE[k]["moves"]) == engines._orbit_counts(k)[1] == ORBITS[k - 1]


def test_brute_force_seven_sheets_is_accepted():
    # 111 orbits: about 13 ms of estimated work, well inside the default
    # work bound, though 7 sheets on the state count exceeded it
    assert engines._brute_work(7, 14) <= engines.DEFAULT_WORK_BOUND
    value = brute_force_hurwitz(1, (1,) * 7, sheet_bound=7)
    assert value == connected_hurwitz(1, (1,) * 7) == 171121991040


def test_character_engine_bounds():
    with pytest.raises(InfeasibleError, match="bound"):
        connected_hurwitz(0, (11,))
    with pytest.raises(InfeasibleError, match="bound"):
        connected_hurwitz(20, (2,))
    with pytest.raises(InfeasibleError, match="bound"):
        frobenius_disconnected((11,), 2)
    with pytest.raises(InfeasibleError, match="r=41 exceeds bound 40"):
        frobenius_disconnected((2,), 41)
    assert connected_hurwitz(0, (11,), k_bound=11) == genus_zero_closed_form((11,))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        connected_hurwitz(0, ())
    with pytest.raises(ValueError):
        frobenius_disconnected((2,), -1)
    with pytest.raises(ValueError):
        brute_force_hurwitz(0, (0, 1))
