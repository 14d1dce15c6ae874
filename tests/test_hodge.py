import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, lcm, prod
from operator import mul

import pytest

from hurwitz_hodge import engines, hodge
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
from hurwitz_hodge.partitions import partitions_of

F = Fraction


# Oracle: the extraction as it was before interpolation, one equation per
# sorted profile of the box {1..B}^n, eliminated whole.  Slow but
# independent of the sample, the interpolation basis, the Newton and
# Stirling tables and the dense-block bookkeeping, and eliminated by its
# own Gauss-Jordan over Fractions, which shares no code with the program's
# integer elimination (hodge.column_rank and hodge.solve_exact) or with the
# extraction's integer check of the surplus rows.
def _gauss_jordan(rows, width):
    """Reduced row echelon form of ``rows`` and its pivot columns, sought
    in the first ``width`` columns; later columns are carried along."""
    work = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(width):
        top = len(pivots)
        at = next((r for r in range(top, len(work)) if work[r][col]), None)
        if at is None:
            continue
        work[top], work[at] = work[at], work[top]
        pivot = work[top][col]
        head = work[top] = [v / pivot for v in work[top]]
        for r, row in enumerate(work):
            if r != top and (f := row[col]):
                work[r] = [a - f * b for a, b in zip(row, head)]
        pivots.append(col)
    return work, pivots


def column_rank(matrix) -> int:
    return len(_gauss_jordan(matrix, len(matrix[0]))[1])


def solve_exact(matrix, rhs) -> list[Fraction]:
    """The unique solution; fails unless the columns are independent and
    every row holds."""
    width = len(matrix[0])
    work, pivots = _gauss_jordan([[*row, b] for row, b in zip(matrix, rhs)], width)
    assert pivots == list(range(width)), "dependent columns"
    assert not any(row[-1] for row in work[width:]), "inconsistent rows"
    return [row[-1] for row in work[:width]]


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


def _oracle_table(g, n, hurwitz):
    keys = hodge_keys(g, n)
    points = list(combinations_with_replacement(range(1, _oracle_bound(g, n) + 1), n))
    rhs = [normalized_value(g, point, hurwitz) for point in points]
    solution = solve_exact(_design_matrix(keys, points), rhs)
    return {(g, n, b, j): value for (j, b), value in zip(keys, solution)}


def _sample(n, level):
    """The level-L sample: ascending points x with x_i >= 1 and
    sum(x_i - 1) <= L, in lexicographic order."""
    return [p for p in combinations_with_replacement(range(1, level + 2), n) if sum(p) - n <= level]


def _monomial_basis(n, level):
    """Ascending exponent tuples beta of total at most L."""
    return [tuple(x - 1 for x in p) for p in _sample(n, level)]


def _oracle_level(g, n):
    """Smallest level with #keys + n sample points whose design matrix has
    full column rank."""
    keys = hodge_keys(g, n)
    level = 0
    while len(_sample(n, level)) < len(keys) + n:
        level += 1
    while column_rank(_design_matrix(keys, _sample(n, level))) < len(keys):
        level += 1
    return level


def test_hodge_keys_match_filtered_partitions():
    # the direct enumeration of partitions with at most n parts gives the
    # same keys, in the same order, as filtering every partition of s
    for g in range(7):
        for n in range(1, 20 - 3 * g):
            if not is_stable(g, n):
                continue
            expected = [
                (j, tuple(sorted(lam + (0,) * (n - len(lam)))))
                for j in range(g + 1)
                for lam in partitions_of(3 * g - 3 + n - j)
                if len(lam) <= n
            ]
            assert hodge_keys(g, n) == expected, (g, n)


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
    for g, n in [(-1, 3), (1, 0), (1.0, 1)]:
        with pytest.raises(ValueError, match=r"invalid \(g, n\)"):
            extract_hodge_integrals(g, n)


def test_key_count_matches_listed_keys():
    # the extraction's bounds count the keys without listing them
    for g in range(8):
        for n in range(1, 22 - 3 * g):
            if is_stable(g, n):
                assert hodge._key_count(g, n) == len(hodge_keys(g, n)), (g, n)


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
    # level 2: the sample is k = 1, 2, 3
    table = extract_hodge_integrals(1, 1)
    assert table.get(1, 1, (1,), 0) == F(1, 24)
    assert table.get(1, 1, (0,), 1) == F(1, 24)
    assert table.surplus_rows[(1, 1)] == 1
    assert table.grid_bound[(1, 1)] == 2


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


def test_provider_asked_for_first_point_then_count_floor_corner():
    # (2, 3): the first sample point, then (L0 + 1, 1, 1), the largest k
    # on the sample of the level floor L0 = 6, both before the rank probe
    # runs and the sample is listed
    calls = []

    def provider(g, profile):
        calls.append(profile)
        return connected_hurwitz(g, profile, k_bound=40, r_bound=80)

    extract_hodge_integrals(2, 3, hurwitz=provider)
    assert calls[:3] == [(1, 1, 1), (7, 1, 1), (1, 1, 1)]
    assert calls[2:] == _sample(3, 6) and len(calls) == 2 + 23

    def refusing(g, profile):
        if profile == (7, 1, 1):
            calls.append(profile)
            raise InfeasibleError("corner refused")
        return provider(g, profile)

    calls.clear()
    with pytest.raises(InfeasibleError, match="corner refused"):
        extract_hodge_integrals(2, 3, hurwitz=refusing)
    assert calls == [(1, 1, 1), (7, 1, 1)]


def test_third_positional_argument_is_refused():
    # the grid bound is no argument; an old positional bound is neither
    # used as one nor called as a provider
    for third in (5, connected_hurwitz):
        with pytest.raises(TypeError, match="positional arguments"):
            extract_hodge_integrals(2, 1, third)


def test_minimal_grid_bound_includes_rank():
    # point count alone would give level 7 at (1, 8) and 10 at (3, 5);
    # rank needs 8 and 11
    assert hodge._level_floor(1, 8) == 7 and minimal_grid_bound(1, 8) == 8
    assert hodge._level_floor(3, 5) == 10 and minimal_grid_bound(3, 5) == 11
    assert minimal_grid_bound(1, 1) == 2
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
    # (1, 2) at level 3 has no dense key: the solved polynomial keeps the
    # interpolant's coefficients on the keys and drops the rest, which the
    # square interpolation system on the sample recomputes independently
    g, n, at = 1, 2, (2, 3)
    level = minimal_grid_bound(g, n)
    assert hodge._reduced_system(g, n, level).dense == ()
    with pytest.raises(ConsistencyError, match="nonzero residual extracting") as info:
        extract_hodge_integrals(g, n, hurwitz=_perturbed(at))
    profile, residual = _misfit(str(info.value))
    points = _sample(n, level)
    basis = _monomial_basis(n, level)
    values = [normalized_value(g, p, _perturbed(at)) for p in points]
    coefficients = solve_exact([[_monomial_sum(beta, p) for beta in basis] for p in points], values)
    kept = {b for _, b in hodge_keys(g, n)}

    def solved(p):
        return sum(c * _monomial_sum(beta, p) for beta, c in zip(basis, coefficients) if beta in kept)

    first = next(i for i, p in enumerate(points) if solved(p) != values[i])
    assert (profile, residual) == (points[first], solved(points[first]) - values[first])


@pytest.mark.parametrize("g, n, at", [(2, 1, (3,)), (2, 3, (2, 3, 4)), (1, 4, (1, 1, 2, 3)),
                                      (3, 2, (2, 7))])
def test_residual_names_a_grid_profile_the_solution_misses(g, n, at):
    # with dense keys ((2, 1) and (3, 2)) the solution depends on the pivot
    # rows; check what the message claims: some polynomial of the keys'
    # shape fits the counts at every sample profile before the named one
    # and misses it by R != 0
    with pytest.raises(ConsistencyError, match="nonzero residual extracting") as info:
        extract_hodge_integrals(g, n, hurwitz=_perturbed(at))
    profile, residual = _misfit(str(info.value))
    points = _sample(n, minimal_grid_bound(g, n))
    assert profile in points and residual != 0
    prefix = points[:points.index(profile) + 1]
    values = [normalized_value(g, p, _perturbed(at)) for p in prefix]
    values[-1] += residual
    design = _design_matrix(hodge_keys(g, n), prefix)
    assert column_rank(design) == column_rank([row + [v] for row, v in zip(design, values)])


ORACLE_PAIRS = [(g, n) for g in range(3) for n in range(1, 10) if is_stable(g, n) and 3 * g - 3 + n <= 6]


def test_oracle_pairs_cover_unit_only_and_dense_systems():
    # the oracle checks both solve paths: minimal systems whose keys are all
    # unit columns (back substitution alone) and systems with dense keys
    unit_only = {(g, n) for g, n in ORACLE_PAIRS
                 if hodge._reduced_system(g, n, minimal_grid_bound(g, n)).dense == ()}
    assert {(0, 3), (1, 2), (0, 5)} <= unit_only
    assert unit_only < set(ORACLE_PAIRS)


def _provider(g):
    if g == 0:  # the closed form keeps n up to 9 fast
        return lambda gg, profile: genus_zero_closed_form(profile)
    return lambda gg, profile: connected_hurwitz(gg, profile, k_bound=40, r_bound=80)


@pytest.mark.parametrize("g, n", ORACLE_PAIRS)
def test_extraction_matches_design_matrix_oracle(g, n):
    table = extract_hodge_integrals(g, n, hurwitz=_provider(g))
    level = _oracle_level(g, n)
    assert table.grid_bound[(g, n)] == minimal_grid_bound(g, n) == level
    assert table.surplus_rows[(g, n)] == len(_sample(n, level)) - len(hodge_keys(g, n))
    assert table.values == _oracle_table(g, n, _provider(g))


@pytest.mark.parametrize("g, n", [(3, 3), (2, 4), (4, 2)])
def test_benchmark_tables_match_design_matrix_oracle(g, n):
    table = extract_hodge_integrals(g, n, k_bound=40, r_bound=60)
    level = _oracle_level(g, n)
    assert table.grid_bound[(g, n)] == level
    assert table.surplus_rows[(g, n)] == len(_sample(n, level)) - len(hodge_keys(g, n))
    assert table.values == _oracle_table(g, n, _provider(g))


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
    # the level-L sample of one pole is k = 1..L+1
    t11 = extract_hodge_integrals(1, 1)
    level = t11.grid_bound[(1, 1)]
    for k in range(level + 2, level + 5):
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

    hodge.minimal_grid_bound.cache_clear()
    for name in calls:
        monkeypatch.setattr(hodge, name, counting(name, getattr(hodge, name)))
    table = extract_hodge_integrals(1, 2)
    assert table.get(1, 2, (0, 1), 1) == F(1, 24)
    assert all(count >= 1 for count in calls.values()), calls


def test_probe_ranks_every_bound_and_builds_each_system_once(monkeypatch):
    # (1, 8): the level floor 7 is rank deficient, 8 is not; each level's
    # reduced system is built once, and the final one serves the solve too.
    # The provider evaluates a table of arbitrary values, which the
    # extraction must give back.
    g, n = 1, 8
    rng = random.Random(18)
    expected = HodgeTable()
    for j, b in hodge_keys(g, n):
        expected.set(g, n, b, j, F(rng.randrange(-9, 10), rng.randrange(1, 9)))
    ranks = []
    original = hodge.column_rank
    monkeypatch.setattr(hodge, "column_rank", lambda m: ranks.append(len(m)) or original(m))
    hodge._reduced_system.cache_clear()
    hodge.minimal_grid_bound.cache_clear()
    table = extract_hodge_integrals(g, n, hurwitz=lambda gg, p: hurwitz_from_hodge(gg, p, expected))
    assert table.values == expected.values
    assert table.grid_bound[(g, n)] == 8 and len(ranks) == 2
    assert hodge._reduced_system.cache_info().misses == 2
    # the level floor of (1, 2) already has only unit keys; it is still probed
    ranks.clear()
    extract_hodge_integrals(1, 2)
    assert len(ranks) == 1 and hodge._reduced_system(1, 2, 3).dense == ()


def test_warm_extraction_ranks_no_block(monkeypatch):
    # the level of each (g, n) is kept with the reduced systems it ranked,
    # so a second extraction of the same table ranks no block.  The
    # provider evaluates a table of ones, within no engine's bounds.
    ones = HodgeTable()
    for j, b in hodge_keys(1, 8):
        ones.set(1, 8, b, j, 1)

    def provider(g, profile):
        return hurwitz_from_hodge(g, profile, ones)

    extract_hodge_integrals(1, 8, hurwitz=provider)
    ranks = []
    original = hodge.column_rank
    monkeypatch.setattr(hodge, "column_rank", lambda m: ranks.append(len(m)) or original(m))
    assert extract_hodge_integrals(1, 8, hurwitz=provider).values == ones.values
    assert ranks == []
    # a kept level does not answer for an argument that fails validation
    with pytest.raises(ValueError, match=r"invalid \(g, n\)"):
        minimal_grid_bound(1.0, 8)


def _interpolated(values, n, level):
    """hodge._interpolate's integer numerators over D as Fractions, after
    checking that D is the values' common denominator times L!^n."""
    numerators, denominator = hodge._interpolate(values, n, level)
    assert denominator == lcm(*(F(v).denominator for v in values.values())) * factorial(level) ** n
    assert all(type(v) is int for v in numerators.values())
    return {beta: F(v, denominator) for beta, v in numerators.items()}


@pytest.mark.parametrize("level", [1, 2, 5, 9])
def test_interpolation_tables(level):
    # a random symmetric polynomial of total degree at most L, sampled on
    # the level-L sample, interpolates back to its own coefficients
    rng = random.Random(level)
    for n in range(1, 5 if level < 9 else 4):
        coefficients = {beta: F(rng.randrange(-20, 21), rng.randrange(1, 13))
                        for beta in _monomial_basis(n, level)}
        values = {p: sum(c * _monomial_sum(beta, p) for beta, c in coefficients.items())
                  for p in _sample(n, level)}
        assert _interpolated(values, n, level) == coefficients, (level, n)


@pytest.mark.parametrize("g, n", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_dense_columns_interpolate_their_keys(g, n):
    # on the sample, a dense key m_b equals the interpolant of its own
    # values; its column holds that interpolant on every basis row, the
    # free rows of the block and the rows of the unit keys
    level = minimal_grid_bound(g, n)
    system = hodge._reduced_system(g, n, level)
    assert system.dense
    rows = dict(zip(system.free, system.block))
    rows.update((system.keys[i][1], row) for i, row in system.unit)
    assert sorted(rows) == sorted(_monomial_basis(n, level))
    for c, i in enumerate(system.dense):
        j, b = system.keys[i]
        assert sum(b) > level
        interpolant = _interpolated({p: F(_monomial_sum(b, p)) for p in _sample(n, level)}, n, level)
        assert {beta: row[c] for beta, row in rows.items()} == {
            beta: (-1) ** j * value for beta, value in interpolant.items()}, (g, n, b, j)


def test_stirling_identity():
    # x^e = sum_t S(e+1, t+1) (x-1)(x-2)...(x-t), checked at more points
    # than the degree, so as polynomials
    rows = hodge._stirling_rows(12)
    assert len(rows) == 13 and rows[3] == (1, 7, 6, 1)
    for e, row in enumerate(rows):
        assert len(row) == e + 1
        for x in range(-4, 16):
            assert sum(s * prod(x - v for v in range(1, t + 1)) for t, s in enumerate(row)) == x ** e


# The dense-block elimination, on integer blocks and integer rhs, as the
# extraction passes them.  solve_exact returns the pivot rows' solution as
# (numerators, det); it does not check the other rows, the extraction does.

def _solved(block, rhs) -> list[Fraction]:
    numerators, det = hodge.solve_exact(block, rhs)
    return [F(v, det) for v in numerators]


def test_solve_exact_known_square_system():
    assert hodge.solve_exact([[2, 1], [1, 3]], [5, 10]) == ([5, 15], 5)
    assert _solved([[2, 1], [1, 3]], [5, 10]) == [F(1), F(3)]


def test_solve_exact_overdetermined_consistent():
    assert _solved([[1, 1], [1, -1], [2, 0], [0, 3]], [3, 1, 4, 3]) == [F(2), F(1)]


def test_solve_exact_overdetermined_inconsistent():
    # the third row misses; the pivot rows' solution is returned
    assert _solved([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) == [F(1), F(1)]


def test_solve_exact_inconsistent_system_carries_the_pivot_solution():
    assert _solved([[1, 0], [0, 2], [1, 1]], [1, 1, 3]) == [F(1), F(1, 2)]


def test_solve_exact_rank_shortfall():
    with pytest.raises(ConsistencyError, match="column rank below 2: no pivot for column 1"):
        hodge.solve_exact([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
    with pytest.raises(ConsistencyError, match="column rank below 3"):
        hodge.solve_exact([[1, 2, 3]], [1])  # more columns than rows


def test_solve_exact_pivoting_handles_leading_zeros():
    assert _solved([[0, 1], [1, 0]], [7, 5]) == [F(5), F(7)]


def test_solve_exact_solution_entries_are_fractions():
    # each entry is an exact fraction: integer numerators over one integer
    # det.  Compare types, not values: 1.0 == 1, so a float would pass ==
    for block, rhs in [
        ([[2, 1], [1, 3]], [5, 10]),
        ([[2]], [1]),
        ([[4, 0], [0, 3], [4, 3]], [2, 1, 3]),
    ]:
        numerators, det = hodge.solve_exact(block, rhs)
        assert all(type(v) is int for v in [*numerators, det]), (numerators, det)


def test_block_column_rank():
    assert hodge.column_rank([[1, 2], [2, 4]]) == 1
    assert hodge.column_rank([[1, 0], [0, 1]]) == 2
    assert hodge.column_rank([[0, 0], [0, 0]]) == 0
    # a pivot column is skipped
    assert hodge.column_rank([[1, 2, 3], [2, 4, 7], [3, 6, 10]]) == 2
    assert hodge.column_rank([[0, 0, 1], [0, 0, 2]]) == 1


def test_block_without_columns():
    # the extraction's dense block is empty once every key is a unit column
    assert hodge.solve_exact([(), ()], [0, 0]) == ([], 1)
    assert hodge.column_rank([(), ()]) == 0
    # a nonzero rhs misses the empty solution, which is still returned
    assert hodge.solve_exact([(), ()], [0, 1]) == ([], 1)


def _block_of_rank(rng, rank, cols, n_rows):
    # unit lower (rank columns, extra rows free) times upper with a nonzero
    # diagonal (rank rows): a product of exact rank `rank`
    lower = [[rng.randrange(-3, 4) if j < i else int(i == j) for j in range(rank)] for i in range(n_rows)]
    upper = [[rng.randrange(1, 5) if i == j else rng.randrange(-3, 4) if j > i else 0
              for j in range(cols)] for i in range(rank)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(rank)) for j in range(cols)] for i in range(n_rows)]


def test_solve_exact_randomized_round_trip():
    rng = random.Random(20240815)
    for _ in range(25):
        n = rng.randrange(1, 6)
        block = _block_of_rank(rng, n, n, n)
        solution = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
        rows = block + [block[rng.randrange(n)] for _ in range(rng.randrange(0, 3))]
        scale = lcm(*(v.denominator for v in solution))
        rhs = [sum(a * v * scale for a, v in zip(row, solution)) for row in rows]
        assert all(v.denominator == 1 for v in rhs)
        assert [v / scale for v in _solved(rows, [int(v) for v in rhs])] == solution


def test_column_rank_randomized_known_rank():
    rng = random.Random(20261017)
    for _ in range(40):
        cols = rng.randrange(1, 6)
        rank = rng.randrange(0, cols + 1)
        n_rows = rank + rng.randrange(0, 4)
        if n_rows == 0:
            continue
        block = _block_of_rank(rng, rank, cols, n_rows)
        assert hodge.column_rank(block) == rank
        shuffled = block[:]
        rng.shuffle(shuffled)
        assert hodge.column_rank(shuffled) == rank
        scales = [rng.choice([-1, 1]) * rng.randrange(1, 9) for _ in block]
        assert hodge.column_rank([[s * v for v in row] for s, row in zip(scales, shuffled)]) == rank
        if rank < cols:
            x = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cols)]
            scale = lcm(*(v.denominator for v in x))
            rhs = [sum(a * v * scale for a, v in zip(row, x)) for row in block]
            assert all(v.denominator == 1 for v in rhs)
            with pytest.raises(ConsistencyError, match="column rank below"):
                hodge.solve_exact(block, [int(v) for v in rhs])


def test_block_elimination_agrees_with_oracle_elimination():
    # rank, the pivot rows' solution, and whether a row misses it: the
    # program's integer elimination and the oracle's Gauss-Jordan pick the
    # same pivot rows (the first nonzero entry at or below each pivot)
    rng = random.Random(20261019)
    for _ in range(200):
        cols = rng.randrange(0, 6)
        rank = rng.randrange(0, cols + 1)
        n_rows = max(1, rank + rng.randrange(0, 4))
        block = _block_of_rank(rng, rank, cols, n_rows)
        rng.shuffle(block)
        x = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cols)]
        rhs = [sum((a * v for a, v in zip(row, x)), F(0)) for row in block]
        if rng.random() < 0.5:
            rhs[rng.randrange(n_rows)] += F(rng.randrange(1, 9), rng.randrange(1, 9))
        scale = lcm(*(b.denominator for b in rhs))
        rhs = [b.numerator * (scale // b.denominator) for b in rhs]
        work, pivots = _gauss_jordan([[*row, b] for row, b in zip(block, rhs)], cols)
        assert hodge.column_rank(block) == len(pivots)
        if len(pivots) < cols:
            with pytest.raises(ConsistencyError, match="column rank below"):
                hodge.solve_exact(block, rhs)
            continue
        expected = [row[-1] for row in work[:cols]]
        numerators, det = hodge.solve_exact(block, rhs)
        assert [F(v, det) for v in numerators] == expected
        # the extraction's surplus check, row . x == det * rhs, misses
        # exactly when the oracle leaves a nonzero row
        assert (any(sum(map(mul, row, numerators)) != det * b for row, b in zip(block, rhs))
                == any(row[-1] for row in work[cols:]))


@pytest.mark.parametrize("call", [
    lambda: extract_hodge_integrals(1, 1, hurwitz=lambda g, p: float(connected_hurwitz(g, p))),
    lambda: degree_LL(0, (2,), 0.5),
    lambda: HodgeTable().set(1, 1, (1,), 0, 0.1),  # 0.1 is a binary fraction, not 1/10
], ids=["provider", "degree_LL", "table_set"])
def test_only_ints_and_fractions_accepted(call):
    with pytest.raises(TypeError, match="must be an int or a Fraction, got float"):
        call()


def test_huge_point_count_refused_before_its_first_profile_is_built(monkeypatch):
    # (1, ..., 1) with 10^7 poles would cost O(n) time and memory to build
    # and validate; the bound check on k = n needs neither
    def refuse(profile):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(engines, "check_profile", refuse)
    with pytest.raises(InfeasibleError, match="k=10000000 exceeds bound 10"):
        extract_hodge_integrals(0, 10 ** 7)
