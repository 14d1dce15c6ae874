from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest

from hurwitz_hodge import hodge
from hurwitz_hodge.engines import connected_hurwitz, genus_zero_closed_form
from hurwitz_hodge.errors import ConsistencyError, InfeasibleError
from hurwitz_hodge.hodge import (
    HodgeTable,
    _design_matrix,
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

F = Fraction


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
