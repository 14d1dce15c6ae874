import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest

from hurwitz_hodge import hodge
from hurwitz_hodge.engines import connected_hurwitz, genus_zero_closed_form
from hurwitz_hodge.errors import ConsistencyError, InfeasibleError
from hurwitz_hodge.hodge import (
    HodgeTable,
    _monomial_sum,
    degree_LL,
    extract_hodge_integrals,
    hodge_keys,
    hurwitz_from_hodge,
    is_stable,
    minimal_grid_bound,
    normalized_value,
    prefactor,
    weight_w,
)
from hurwitz_hodge.linsolve import column_rank, solve_exact

F = Fraction


# Oracle: the extraction as it was before interpolation, one equation per
# sorted grid profile, eliminated whole.  Slow but independent of the
# interpolation basis, the residue tables and the dense-block bookkeeping.
def _design_matrix(keys, points) -> list[list[int]]:
    memo: dict = {}
    return [[(-1) ** j * _monomial_sum(b, point, memo) for j, b in keys] for point in points]


def _oracle_bound(g, n):
    keys = hodge_keys(g, n)
    bound = 1
    while comb(bound + n - 1, n) < len(keys) + n:
        bound += 1
    while column_rank(_design_matrix(keys, combinations_with_replacement(range(1, bound + 1), n))) < len(keys):
        bound += 1
    return bound


def _oracle_table(g, n, bound, hurwitz):
    keys = hodge_keys(g, n)
    points = list(combinations_with_replacement(range(1, bound + 1), n))
    rhs = [normalized_value(g, point, hurwitz) for point in points]
    solution = solve_exact(_design_matrix(keys, points), rhs)
    return {(g, n, b, j): value for (j, b), value in zip(keys, solution)}, len(points) - len(keys)


def test_prefactor_examples():
    assert prefactor(1, (2,)) == 12
    assert prefactor(0, (1, 1, 1)) == 4
    assert prefactor(2, (3,)) == 3240


def test_weight_examples():
    assert weight_w((1,)) == 1
    assert weight_w((2, 2)) == 16
    assert weight_w((3,)) == F(27, 2)


def test_degree_ll_examples():
    assert degree_LL(0, (1, 1, 1), F(4)) == 24
    assert degree_LL(1, (2,), F(1, 2)) == 1
    assert degree_LL(2, (3,), F(81)) == 243


def test_degree_ll_rejects_non_integer():
    with pytest.raises(ConsistencyError):
        degree_LL(0, (3,), F(1, 7))
    with pytest.raises(ConsistencyError):
        degree_LL(0, (3,), F(-1))


def test_degree_ll_integrality_sweep():
    from hurwitz_hodge.partitions import partitions_of

    for k in range(1, 7):
        for mu in partitions_of(k):
            for g in range(3):
                degree_LL(g, mu, connected_hurwitz(g, mu))


def test_normalized_value_examples():
    assert normalized_value(0, (1, 1, 1)) == 1
    assert normalized_value(1, (2,)) == F(1, 24)
    assert normalized_value(2, (3,)) == F(1, 40)


def test_unstable_rejected():
    assert not is_stable(0, 1) and not is_stable(0, 2) and is_stable(0, 3)
    for args in [(0, (1,)), (0, (1, 1))]:
        with pytest.raises(ValueError, match="unstable"):
            normalized_value(*args)
    with pytest.raises(ValueError, match="unstable"):
        extract_hodge_integrals(0, 2)
    with pytest.raises(ValueError, match="unstable"):
        hurwitz_from_hodge(0, (3,), HodgeTable())


def test_hodge_key_counts():
    # hand counts of (j, b) pairs per moduli space
    expected = {(0, 3): 1, (1, 1): 2, (1, 2): 3, (1, 3): 5, (2, 1): 3, (2, 2): 8, (2, 3): 16}
    for (g, n), count in expected.items():
        keys = hodge_keys(g, n)
        assert len(keys) == count
        for j, b in keys:
            assert sum(b) + j == 3 * g - 3 + n
            assert b == tuple(sorted(b)) and len(b) == n


def test_extraction_g1_n1():
    table = extract_hodge_integrals(1, 1)
    assert table.get(1, 1, (1,), 0) == F(1, 24)
    assert table.get(1, 1, (0,), 1) == F(1, 24)
    assert table.surplus_rows[(1, 1)] >= 1
    assert table.grid_bound[(1, 1)] == 3


def test_extraction_g0_n3():
    table = extract_hodge_integrals(0, 3)
    assert table.get(0, 3, (0, 0, 0), 0) == 1
    assert table.surplus_rows[(0, 3)] >= 1


def test_extraction_g2_n1():
    table = extract_hodge_integrals(2, 1)
    assert table.get(2, 1, (4,), 0) == F(1, 1152)
    assert table.get(2, 1, (3,), 1) == F(1, 480)
    assert table.get(2, 1, (2,), 2) == F(7, 5760)
    assert table.surplus_rows[(2, 1)] >= 1


def test_explicit_grid_too_small():
    with pytest.raises(InfeasibleError, match="grid too small"):
        extract_hodge_integrals(2, 1, grid_bound=3)


def test_minimal_grid_bound_includes_rank():
    # point count alone would give 4 at (2, 3); rank needs 5
    assert minimal_grid_bound(2, 3) == 5
    assert minimal_grid_bound(1, 1) == 3
    assert minimal_grid_bound(0, 3) == 2


def test_bad_provider_trips_residual_check():
    def provider(g, profile):
        # k-dependent corruption that no polynomial of the right shape fits
        return connected_hurwitz(g, profile) + (1 if sum(profile) == 3 else 0)

    with pytest.raises(ConsistencyError, match="residual"):
        extract_hodge_integrals(1, 1, hurwitz=provider)


def _misfit(message):
    found = re.search(r"at profile \(([\d, ]+)\): (\S+)$", message)
    assert found, message
    return tuple(int(k) for k in found.group(1).replace(",", " ").split()), F(found.group(2))


def _perturbed(at):
    def provider(g, profile):
        return connected_hurwitz(g, profile, k_bound=40, r_bound=80) + (profile == at)
    return provider


def test_residual_names_first_misfit_without_dense_block():
    # (1, 2) at B = 3 has no dense key: the solved polynomial keeps the
    # interpolant's coefficients on the keys and drops the rest, which the
    # square interpolation system on the grid recomputes independently
    g, n, at = 1, 2, (2, 3)
    bound = minimal_grid_bound(g, n)
    assert hodge._reduced_system(g, n, bound).dense == ()
    with pytest.raises(ConsistencyError, match="nonzero residual extracting") as info:
        extract_hodge_integrals(g, n, hurwitz=_perturbed(at))
    profile, residual = _misfit(str(info.value))
    points = list(combinations_with_replacement(range(1, bound + 1), n))
    basis = list(combinations_with_replacement(range(bound), n))
    values = [normalized_value(g, p, _perturbed(at)) for p in points]
    coefficients = solve_exact([[_monomial_sum(beta, p) for beta in basis] for p in points], values)
    kept = {b for _, b in hodge_keys(g, n)}

    def solved(p):
        return sum(c * _monomial_sum(beta, p) for beta, c in zip(basis, coefficients) if beta in kept)

    first = next(i for i, p in enumerate(points) if solved(p) != values[i])
    assert (profile, residual) == (points[first], solved(points[first]) - values[first])


@pytest.mark.parametrize("g, n, at", [(2, 1, (3,)), (2, 3, (2, 4, 5)), (1, 4, (1, 1, 2, 3))])
def test_residual_names_a_grid_profile_the_solution_misses(g, n, at):
    # with dense keys the solution depends on the pivot rows; check what
    # the message claims: some polynomial of the keys' shape fits the counts
    # at every grid profile before the named one and misses it by R != 0
    with pytest.raises(ConsistencyError, match="nonzero residual extracting") as info:
        extract_hodge_integrals(g, n, hurwitz=_perturbed(at))
    profile, residual = _misfit(str(info.value))
    points = list(combinations_with_replacement(range(1, minimal_grid_bound(g, n) + 1), n))
    assert profile in points and residual != 0
    prefix = points[:points.index(profile) + 1]
    values = [normalized_value(g, p, _perturbed(at)) for p in prefix]
    values[-1] += residual
    design = _design_matrix(hodge_keys(g, n), prefix)
    assert column_rank(design) == column_rank([row + [v] for row, v in zip(design, values)])


ORACLE_PAIRS = [(g, n) for g in range(3) for n in range(1, 10) if is_stable(g, n) and 3 * g - 3 + n <= 6]


def _provider(g):
    if g == 0:  # the closed form keeps n up to 9 fast
        return lambda gg, profile: genus_zero_closed_form(profile)
    return lambda gg, profile: connected_hurwitz(gg, profile, k_bound=40, r_bound=80)


@pytest.mark.parametrize("g, n", ORACLE_PAIRS)
def test_extraction_matches_design_matrix_oracle(g, n):
    table = extract_hodge_integrals(g, n, hurwitz=_provider(g))
    bound = _oracle_bound(g, n)
    assert table.grid_bound[(g, n)] == minimal_grid_bound(g, n) == bound
    assert (table.values, table.surplus_rows[(g, n)]) == _oracle_table(g, n, bound, _provider(g))


@pytest.mark.parametrize("g, n", [(3, 3), (2, 4), (4, 2)])
def test_benchmark_tables_match_design_matrix_oracle(g, n):
    table = extract_hodge_integrals(g, n, k_bound=40, r_bound=60)
    bound = _oracle_bound(g, n)
    assert table.grid_bound[(g, n)] == bound
    assert (table.values, table.surplus_rows[(g, n)]) == _oracle_table(g, n, bound, _provider(g))


@pytest.mark.parametrize("g, n, bound", [(2, 1, 5), (1, 3, 4), (2, 2, 6)])
def test_explicit_bound_with_only_unit_keys_matches_oracle(g, n, bound):
    assert bound > minimal_grid_bound(g, n)
    assert hodge._reduced_system(g, n, bound).dense == ()  # every key a unit column
    provider = _provider(g)
    table = extract_hodge_integrals(g, n, bound, hurwitz=provider)
    assert table.grid_bound[(g, n)] == bound
    assert (table.values, table.surplus_rows[(g, n)]) == _oracle_table(g, n, bound, provider)


def test_forward_examples():
    t11 = extract_hodge_integrals(1, 1)
    assert hurwitz_from_hodge(1, (2,), t11) == F(1, 2)
    assert hurwitz_from_hodge(1, (1,), t11) == 0
    t21 = extract_hodge_integrals(2, 1)
    assert hurwitz_from_hodge(2, (2,), t21) == F(1, 2)


def test_forward_sign_variant():
    t11 = extract_hodge_integrals(1, 1)
    assert hurwitz_from_hodge(1, (1,), t11, lambda_signs="plus") == F(1, 6)
    with pytest.raises(ValueError):
        hurwitz_from_hodge(1, (1,), t11, lambda_signs="minus")


def test_forward_missing_keys_listed():
    table = HodgeTable()
    table.set(1, 1, (1,), 0, F(1, 24))
    with pytest.raises(KeyError, match=r"missing 1 integral"):
        hurwitz_from_hodge(1, (2,), table)


def test_round_trip_out_of_grid():
    t11 = extract_hodge_integrals(1, 1)
    bound = t11.grid_bound[(1, 1)]
    for k in range(bound + 1, bound + 4):
        assert hurwitz_from_hodge(1, (k,), t11) == connected_hurwitz(1, (k,))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_genus_zero_psi_closed_form(n):
    # extracted <psi^b>_{0,n} must equal (n-3)!/prod b_i!; provider uses the
    # genus-0 closed form so the test stays fast at larger n
    table = extract_hodge_integrals(0, n, hurwitz=lambda g, prof: genus_zero_closed_form(prof))
    for j, b in hodge_keys(0, n):
        assert j == 0
        expected = F(factorial(n - 3), prod(factorial(e) for e in b))
        assert table.get(0, n, b, j) == expected


def test_table_validation():
    table = HodgeTable()
    with pytest.raises(ValueError, match="grading"):
        table.set(1, 1, (2,), 0, F(1))
    with pytest.raises(ValueError, match="grading"):
        table.set(2, 1, (4,), 1, F(1))
    with pytest.raises(ValueError):
        table.set(1, 1, (1, 0), 0, F(1))


def test_serialization_round_trip():
    table = extract_hodge_integrals(2, 1)
    lines = table.to_lines()
    assert lines == [
        "g=2 n=1 b=2 j=2 value=7/5760",
        "g=2 n=1 b=3 j=1 value=1/480",
        "g=2 n=1 b=4 j=0 value=1/1152",
    ]
    again = HodgeTable.from_lines(lines)
    assert again.values == table.values
    with pytest.raises(ValueError, match="malformed"):
        HodgeTable.from_lines(["g=1 n=1 nonsense"])


def test_tables_merge_across_moduli():
    table = HodgeTable()
    for g, n in [(1, 1), (0, 3)]:
        part = extract_hodge_integrals(g, n)
        for key, value in part.values.items():
            table.set(*key, value)
    assert len(table) == 3
    assert hurwitz_from_hodge(1, (2,), table) == F(1, 2)
    assert hurwitz_from_hodge(0, (1, 2, 3), table) == connected_hurwitz(0, (1, 2, 3))


def test_monomial_sum_matches_set_of_permutations():
    for n in range(5):
        for b in product(range(4), repeat=n):
            for ks in [(2, 3, 5, 7)[:n], (1, 1, 2, 3)[:n]]:
                expected = sum(
                    prod(k ** e for k, e in zip(ks, p)) for p in set(permutations(b))
                )
                assert _monomial_sum(b, ks) == expected


def test_design_matrix_matches_set_of_permutations():
    pairs = [(g, n) for g in range(3) for n in range(1, 6) if is_stable(g, n) and 3 * g - 3 + n <= 6]
    assert len(pairs) == 11
    for g, n in pairs:
        keys = hodge_keys(g, n)
        points = list(combinations_with_replacement(range(1, 4), n))
        if n > 1:  # rows whose tails agree, so a memo keyed by b alone would fail
            assert any(p[1:] == q[1:] and p[0] != q[0] for p in points for q in points)
        expected = [
            [(-1) ** j * sum(prod(k ** e for k, e in zip(point, p)) for p in set(permutations(b)))
             for j, b in keys]
            for point in points
        ]
        assert _design_matrix(keys, points) == expected, (g, n)


def test_extraction_goes_through_hodge_call_sites(monkeypatch):
    # the benchmark's tracer times the grid probe, the rank calls and the
    # solve by wrapping these module attributes
    calls = {name: 0 for name in ("column_rank", "solve_exact", "minimal_grid_bound")}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hodge, name, counting(name, getattr(hodge, name)))
    table = extract_hodge_integrals(1, 2)
    assert table.get(1, 2, (0, 1), 1) == F(1, 24)
    assert all(count >= 1 for count in calls.values()), calls


def test_probe_ranks_every_bound_and_builds_each_system_once(monkeypatch):
    # (2, 3): the count floor 4 is rank deficient, 5 is not; each bound's
    # reduced system is built once, and the final one serves the solve too
    ranks = []
    original = hodge.column_rank
    monkeypatch.setattr(hodge, "column_rank", lambda m: ranks.append(len(m)) or original(m))
    hodge._reduced_system.cache_clear()
    table = extract_hodge_integrals(2, 3, hurwitz=_provider(2))
    assert table.grid_bound[(2, 3)] == 5 and len(ranks) == 2
    assert hodge._reduced_system.cache_info().misses == 2
    # the count floor of (1, 2) already has only unit keys; it is still probed
    ranks.clear()
    extract_hodge_integrals(1, 2)
    assert len(ranks) == 1 and hodge._reduced_system(1, 2, 3).dense == ()


@pytest.mark.parametrize("bound", [1, 2, 5, 9])
def test_interpolation_tables(bound):
    nodes = range(1, bound + 1)
    # (B-1)! V^-1 times V is (B-1)! I, for V = (v^t) with v = 1..B
    inverse = hodge._scaled_inverse(bound)
    assert [[sum(inverse[t][v - 1] * v ** s for v in nodes) for s in range(bound)]
            for t in range(bound)] == [[factorial(bound - 1) * (t == s) for s in range(bound)]
                                       for t in range(bound)]
    # each residue polynomial has degree below B and agrees with x^e on 1..B
    for e, row in enumerate(hodge._residues(bound, 3 * bound)):
        assert len(row) == bound
        assert [sum(c * v ** t for t, c in enumerate(row)) for v in nodes] == [v ** e for v in nodes]
