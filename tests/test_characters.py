from math import factorial

import pytest

from hurwitz_hodge.characters import character_value, content_eigenvalue, irrep_dimension
from hurwitz_hodge.partitions import partitions_of, z_order

# classes of S_3 / S_4 keyed by cycle type; rows are hand-checkable
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}
S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def _count_syt(shape, memo={}):
    """Independent oracle: count standard Young tableaux by removing
    corner cells one at a time."""
    shape = tuple(shape)
    if not shape:
        return 1
    if shape in memo:
        return memo[shape]
    total = 0
    for i, row in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if row > below:
            child = shape[:i] + (row - 1,) + shape[i + 1 :]
            if child[-1] == 0:
                child = child[:-1]
            total += _count_syt(child)
    memo[shape] = total
    return total


def test_dimension_examples():
    assert irrep_dimension((2, 1)) == 2
    assert irrep_dimension((2, 2)) == 2
    for k in range(1, 9):
        assert irrep_dimension((k,)) == 1
        assert irrep_dimension((1,) * k) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_dimension_against_tableau_enumeration(k):
    for lam in partitions_of(k):
        assert irrep_dimension(lam) == _count_syt(lam)


@pytest.mark.parametrize("k", range(1, 9))
def test_dimension_sum_of_squares(k):
    assert sum(irrep_dimension(lam) ** 2 for lam in partitions_of(k)) == factorial(k)


@pytest.mark.parametrize("table", [S3_TABLE, S4_TABLE])
def test_frozen_character_tables(table):
    for lam, row in table.items():
        for mu, expected in row.items():
            assert character_value(lam, mu) == expected


def test_character_examples():
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((2, 2), (2, 2)) == 2
    assert character_value((1, 1, 1), (3,)) == 1


def test_character_on_identity_is_dimension():
    for k in range(1, 8):
        identity = (1,) * k
        for lam in partitions_of(k):
            assert character_value(lam, identity) == irrep_dimension(lam)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 2), r"partition parts must be weakly decreasing, got \(1, 2\)"),
        ((2, 0), "partition parts must be positive integers, got 0"),
        ((2, -1), "partition parts must be positive integers, got -1"),
    ],
)
def test_invalid_shapes_rejected(bad, message):
    for call in (
        lambda: character_value(bad, (1,) * sum(bad)),
        lambda: character_value((sum(bad),), bad),
        lambda: irrep_dimension(bad),
        lambda: content_eigenvalue(bad),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_character_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value((2, 1), (2, 2))


@pytest.mark.parametrize("k", range(1, 7))
def test_character_orthogonality(k):
    classes = partitions_of(k)
    shapes = partitions_of(k)
    for mu in classes:
        for nu in classes:
            total = sum(character_value(lam, mu) * character_value(lam, nu) for lam in shapes)
            assert total == (z_order(mu) if mu == nu else 0)


def test_content_examples():
    assert content_eigenvalue((3,)) == 3
    assert content_eigenvalue((1, 1, 1)) == -3
    assert content_eigenvalue((2, 2)) == 0
    assert content_eigenvalue(()) == 0


@pytest.mark.parametrize("k", range(2, 9))
def test_content_is_class_sum_eigenvalue(k):
    # |C_2| chi(transposition class)/dim equals the content sum
    transposition_class = (2,) + (1,) * (k - 2)
    size = k * (k - 1) // 2
    for lam in partitions_of(k):
        chi = character_value(lam, transposition_class)
        dim = irrep_dimension(lam)
        assert size * chi % dim == 0
        assert content_eigenvalue(lam) == size * chi // dim
