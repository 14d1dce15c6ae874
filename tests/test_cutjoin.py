import sys
import threading
from fractions import Fraction

import pytest

from hurwitz_hodge import cutjoin, engines
from hurwitz_hodge.cutjoin import (
    cut_and_join_hurwitz,
    cut_and_join_layer,
    cut_and_join_layers,
)
from hurwitz_hodge.engines import connected_hurwitz
from hurwitz_hodge.errors import ConsistencyError, InfeasibleError
from hurwitz_hodge.partitions import partitions_of

F = Fraction


def test_hand_derived_layers():
    layers = cut_and_join_layers(3, kmax=6)
    assert layers[0] == {(1,): F(1)}
    assert layers[1] == {(2,): F(1, 2)}
    assert layers[2] == {(1, 1): F(1, 2), (3,): F(1)}
    assert layers[3] == {(2,): F(1, 2), (2, 1): F(4), (4,): F(4)}


def test_single_step_matches_layer_list():
    # the step over the derivative tables of F_0..F_{r-1} gives the
    # numerators of F_r over 6!
    layers = cut_and_join_layers(4, kmax=6)
    stored = cutjoin._LAYER_CACHE[6]
    for r in range(1, 5):
        step = cut_and_join_layer([table for _, table in stored[:r]], kmax=6)
        assert step == {mono: value * 720 for mono, value in layers[r].items()}
        assert step == stored[r][0]


def test_each_derivative_table_is_built_once(monkeypatch):
    builds, steps = [], []
    first_derivatives, layer = cutjoin._first_derivatives, cutjoin.cut_and_join_layer

    def counting_tables(poly):
        builds.append(len(poly))
        return first_derivatives(poly)

    def counting_steps(tables, kmax):
        steps.append(len(tables))
        return layer(tables, kmax)

    monkeypatch.setattr(cutjoin, "_LAYER_CACHE", {})
    monkeypatch.setattr(cutjoin, "_first_derivatives", counting_tables)
    monkeypatch.setattr(cutjoin, "cut_and_join_layer", counting_steps)
    cut_and_join_layers(22, kmax=10)
    assert len(builds) == 23
    assert steps == list(range(1, 23))
    cut_and_join_layers(22, kmax=10)
    assert len(builds) == 23 and len(steps) == 22


def test_coefficient_examples():
    assert cut_and_join_hurwitz(0, (2,)) == F(1, 2)
    assert cut_and_join_hurwitz(0, (1, 1)) == F(1, 2)
    assert cut_and_join_hurwitz(0, (4,)) == 4


def test_layer_monomials_satisfy_genus_parity():
    layers = cut_and_join_layers(9, kmax=6)
    for r, layer in enumerate(layers):
        for mono in layer:
            assert sum(mono) <= 6
            twice_genus = r - sum(mono) - len(mono) + 2
            assert twice_genus >= 0 and twice_genus % 2 == 0


def test_absent_monomial_is_zero():
    # wrong parity: r = 2 cannot produce the type (2) (odd permutation)
    assert cut_and_join_hurwitz(0, (3,)) != 0
    layers = cut_and_join_layers(2, kmax=4)
    assert (2,) not in layers[2]


def test_agreement_with_character_engine():
    for k in range(1, 6):
        for mu in partitions_of(k):
            for g in range(3):
                assert cut_and_join_hurwitz(g, mu, kmax=6) == connected_hurwitz(g, mu)


def test_truncation_bound_error():
    with pytest.raises(InfeasibleError, match="truncation"):
        cut_and_join_hurwitz(0, (7, 4), kmax=10)
    # same request succeeds with a bigger carrier
    value = cut_and_join_hurwitz(0, (7, 4), kmax=11, r_bound=40)
    assert value == connected_hurwitz(0, (7, 4), k_bound=11)
    with pytest.raises(ValueError, match="layer index"):
        cut_and_join_layers(-1)
    with pytest.raises(ValueError, match="truncation bound"):
        cut_and_join_layers(0, kmax=0)


def test_r_bound_error():
    with pytest.raises(InfeasibleError, match="r="):
        cut_and_join_hurwitz(30, (2,), r_bound=40)


def test_layer_list_is_cut_at_r():
    # a shorter list asked for after a longer one was built stops at F_r
    assert len(cut_and_join_layers(9, kmax=5)) == 10
    layers = cut_and_join_layers(3, kmax=5)
    assert len(layers) == 4 and layers[3] == {(2,): F(1, 2), (2, 1): F(4), (4,): F(4)}


def test_layers_are_copies():
    layers = cut_and_join_layers(1, kmax=6)
    layers[1][(9, 9)] = F(1)
    assert cut_and_join_layers(1, kmax=6)[1] == {(2,): F(1, 2)}


def test_layer_cache_is_thread_safe():
    # four threads growing the same cold layer list used to append layers
    # twice and leave a wrong list behind for every later call
    cutjoin._LAYER_CACHE.clear()
    profile = (1,) * 7
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append(cut_and_join_hurwitz(1, profile, kmax=9))

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
    r = engines._query(1, profile)[2]
    assert results == [F(171121991040)] * 4
    assert len(cutjoin._LAYER_CACHE[9]) == r + 1


def test_ramification_consistency():
    # the layer holding h_{g;mu} is indexed by the branch point count
    mu = (2, 1)
    r = engines._query(1, mu)[2]
    layers = cut_and_join_layers(r, kmax=6)
    assert layers[r][(2, 1)] == connected_hurwitz(1, mu)


def test_every_coefficient_matches_character_engine():
    # at kmax = 9 the largest genus-2 layer is r = 9 + 9 + 2 (mu = 1^9); each
    # layer must hold exactly the nonzero h_{g;mu} of its r, |mu| <= 9
    kmax, rmax = 9, 20
    layers = cut_and_join_layers(rmax, kmax=kmax)
    profiles = [mu for k in range(1, kmax + 1) for mu in partitions_of(k)]
    for r, layer in enumerate(layers):
        expected = {}
        for mu in profiles:
            twice_genus = r - sum(mu) - len(mu) + 2
            if twice_genus >= 0 and twice_genus % 2 == 0:
                h = connected_hurwitz(twice_genus // 2, mu, k_bound=kmax, r_bound=rmax)
                if h:
                    expected[tuple(sorted(mu, reverse=True))] = h
        assert layer == expected, r


def test_layer_outside_denominator_raises():
    # F_0 = p_1 has numerator 6! = 720 at kmax = 6; a table claiming 1 makes
    # the join term of F_1 a multiple of 1/1440, not of 1/720
    with pytest.raises(ConsistencyError, match="not a multiple of 1/720"):
        cut_and_join_layer([{1: [(0, (), 1)]}], kmax=6)
