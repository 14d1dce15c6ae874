import random
from fractions import Fraction

import pytest

from hurwitz_hodge.linsolve import (
    InconsistentSystemError,
    RankDeficientError,
    column_rank,
    solve_exact,
)

F = Fraction


def test_known_square_system():
    matrix = [[2, 1], [1, 3]]
    rhs = [F(5), F(10)]
    assert solve_exact(matrix, rhs) == [F(1), F(3)]


def test_exact_fractions_no_drift():
    matrix = [[F(1, 3), F(1, 7)], [F(1, 11), F(1, 13)]]
    x = solve_exact(matrix, [F(1), F(2)])
    assert matrix[0][0] * x[0] + matrix[0][1] * x[1] == 1
    assert matrix[1][0] * x[0] + matrix[1][1] * x[1] == 2


def test_overdetermined_consistent():
    matrix = [[1, 1], [1, -1], [2, 0], [0, 3]]
    rhs = [3, 1, 4, 3]
    assert solve_exact(matrix, rhs) == [F(2), F(1)]


def test_overdetermined_inconsistent():
    matrix = [[1, 0], [0, 1], [1, 1]]
    with pytest.raises(InconsistentSystemError) as info:
        solve_exact(matrix, [1, 1, 3])
    assert info.value.row_index == 2
    assert info.value.residual == -1


def test_rank_deficient():
    with pytest.raises(RankDeficientError):
        solve_exact([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
    with pytest.raises(RankDeficientError):
        solve_exact([[1, 2, 3]], [1])  # more columns than rows


def test_pivoting_handles_leading_zeros():
    matrix = [[0, 1], [1, 0]]
    assert solve_exact(matrix, [F(7), F(5)]) == [F(5), F(7)]


def test_solution_entries_are_fractions():
    # compare types, not values: 0.5 == F(1, 2), so a float would pass ==
    for matrix, rhs in [
        ([[2, 1], [1, 3]], [5, 10]),
        ([[2]], [1]),
        ([[4, 0], [0, 3], [4, 3]], [2, 1, 3]),
        ([[F(1, 2), 0], [0, F(1, 3)]], [F(1, 5), 1]),
    ]:
        solution = solve_exact(matrix, rhs)
        assert all(type(v) is Fraction for v in solution), solution


def test_residual_in_original_units():
    # rows scaled to integers would report -1 for the last row
    matrix = [[F(1, 2), 0], [0, F(1, 3)], [F(1, 6), F(1, 6)]]
    with pytest.raises(InconsistentSystemError) as info:
        solve_exact(matrix, [1, 1, 1])
    assert info.value.row_index == 2
    assert info.value.residual == F(-1, 6)
    assert type(info.value.residual) is Fraction


def test_column_rank():
    assert column_rank([[1, 2], [2, 4]]) == 1
    assert column_rank([[1, 0], [0, 1]]) == 2
    assert column_rank([[0, 0], [0, 0]]) == 0
    # a pivot column is skipped
    assert column_rank([[1, 2, 3], [2, 4, 7], [3, 6, 10]]) == 2
    assert column_rank([[0, 0, 1], [0, 0, 2]]) == 1
    assert column_rank([[F(1, 2), 1, F(3, 2)], [F(1, 3), F(2, 3), F(7, 6)], [1, 2, 3]]) == 2
    assert column_rank([[F(1, 3), F(1, 7)], [F(1, 11), F(1, 13)]]) == 2


def test_randomized_round_trip():
    rng = random.Random(20240815)
    for _ in range(25):
        n = rng.randrange(1, 6)
        extra = rng.randrange(0, 3)
        # unit lower times upper with nonzero diagonal: full column rank
        lower = [[F(rng.randrange(-3, 4)) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
        upper = [[F(rng.randrange(1, 5)) if i == j else F(rng.randrange(-3, 4)) if j > i else F(0) for j in range(n)] for i in range(n)]
        matrix = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        solution = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
        rows = matrix + [matrix[rng.randrange(n)] for _ in range(extra)]
        rhs = [sum(row[j] * solution[j] for j in range(n)) for row in rows]
        assert solve_exact(rows, rhs) == solution


def test_randomized_known_rank():
    rng = random.Random(20261017)
    for _ in range(40):
        cols = rng.randrange(1, 6)
        rank = rng.randrange(0, cols + 1)
        n_rows = rank + rng.randrange(0, 4)
        if n_rows == 0:
            continue
        # unit lower (rank columns, extra rows free) times upper with a
        # nonzero diagonal (rank rows): a product of exact rank `rank`
        lower = [[F(rng.randrange(-3, 4)) if j < i else F(int(i == j)) for j in range(rank)] for i in range(n_rows)]
        upper = [[F(rng.randrange(1, 5)) if i == j else F(rng.randrange(-3, 4)) if j > i else F(0) for j in range(cols)] for i in range(rank)]
        matrix = [[sum((lower[i][k] * upper[k][j] for k in range(rank)), F(0)) for j in range(cols)] for i in range(n_rows)]
        assert column_rank(matrix) == rank
        shuffled = matrix[:]
        rng.shuffle(shuffled)
        assert column_rank(shuffled) == rank
        scales = [F(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 9)) for _ in matrix]
        assert column_rank([[s * v for v in row] for s, row in zip(scales, shuffled)]) == rank
        if rank < cols:
            x = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(cols)]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in matrix]
            with pytest.raises(RankDeficientError):
                solve_exact(matrix, rhs)


def test_shape_validation():
    assert column_rank([]) == 0
    with pytest.raises(ValueError):
        solve_exact([], [])
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [1]], [1, 2])
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1, 2])


def test_inconsistent_system_carries_the_pivot_solution():
    with pytest.raises(InconsistentSystemError) as info:
        solve_exact([[1, 0], [0, 2], [1, 1]], [1, 1, 3])
    assert info.value.solution == [F(1), F(1, 2)]


def test_system_without_columns():
    # the extraction's dense block is empty once every key is a unit column
    assert solve_exact([[], []], [0, F(0)]) == []
    assert column_rank([[], []]) == 0
    with pytest.raises(InconsistentSystemError) as info:
        solve_exact([[], []], [0, F(1, 3)])
    assert (info.value.row_index, info.value.residual, info.value.solution) == (1, F(-1, 3), [])


@pytest.mark.parametrize("matrix, rhs", [
    ([[1], [2]], [0.1, 0.2]),  # 0.1 is a binary fraction, not 1/10
    ([[1.0], [2]], [1, 2]),
    ([["1"], [2]], [1, 2]),
])
def test_only_ints_and_fractions_accepted(matrix, rhs):
    with pytest.raises(TypeError, match="entries must be int or Fraction, got (float|str)"):
        solve_exact(matrix, rhs)
    with pytest.raises(TypeError, match="entries must be int or Fraction, got (float|str)"):
        column_rank([[*row, b] for row, b in zip(matrix, rhs)])
