from functools import lru_cache
from math import factorial

import pytest

from hurwitz_hodge.characters import _content_sum, _dimension, character_value
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


@lru_cache(maxsize=None)
def _border_strip(lam, mu):
    """Independent oracle: Murnaghan-Nakayama by removing border strips
    from the beta-set of lam as a set of ints, the largest part of mu first."""
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + m - 1 - i for i in range(m)]
    members = set(beta)
    total = 0
    for b in beta:
        c = b - strip
        if c < 0 or c in members:
            continue
        jumped = sum(1 for x in beta if c < x < b)
        moved = sorted((members - {b}) | {c}, reverse=True)
        shape = tuple(moved[i] - (m - 1 - i) for i in range(m))
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        total += (-1) ** jumped * _border_strip(shape, rest)
    return total


def _conjugate(shape):
    """The transposed shape: column j has as many cells as rows longer than j."""
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0))


def _hook_length(shape):
    """Independent oracle: the hook-length formula, k! over the product of
    every cell's hook, with the hooks read off the conjugate shape."""
    if not shape:
        return 1
    conj = _conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(sum(shape)) // hooks


def test_dimension_examples():
    assert _dimension((2, 1)) == 2
    assert _dimension((2, 2)) == 2
    for k in range(1, 9):
        assert _dimension((k,)) == 1
        assert _dimension((1,) * k) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_dimension_against_tableau_enumeration(k):
    for lam in partitions_of(k):
        assert _dimension(lam) == _count_syt(lam)


def test_dimension_against_hook_length():
    shapes = [lam for k in range(21) for lam in partitions_of(k)]
    assert len(shapes) == 2714
    for lam in shapes:
        assert _dimension(lam) == _hook_length(lam)


@pytest.mark.parametrize("k", range(1, 9))
def test_dimension_sum_of_squares(k):
    assert sum(_dimension(lam) ** 2 for lam in partitions_of(k)) == factorial(k)


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
            assert character_value(lam, identity) == _dimension(lam)


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
    assert _content_sum((3,)) == 3
    assert _content_sum((1, 1, 1)) == -3
    assert _content_sum((2, 2)) == 0
    assert _content_sum(()) == 0


@pytest.mark.parametrize("k", range(2, 9))
def test_content_is_class_sum_eigenvalue(k):
    # |C_2| chi(transposition class)/dim equals the content sum
    transposition_class = (2,) + (1,) * (k - 2)
    size = k * (k - 1) // 2
    for lam in partitions_of(k):
        chi = character_value(lam, transposition_class)
        dim = _dimension(lam)
        assert size * chi % dim == 0
        assert _content_sum(lam) == size * chi // dim


@pytest.mark.parametrize("k", range(11))
def test_conjugate_shape_identities(k):
    # the class rows in engines are built from the shapes of content >= 0
    # and mirrored through these three identities
    shapes = partitions_of(k)
    for lam in shapes:
        conj = _conjugate(lam)
        assert _dimension(conj) == _dimension(lam)
        assert _content_sum(conj) == -_content_sum(lam)
        for mu in shapes:
            sign = (-1) ** (k - len(mu))
            assert character_value(conj, mu) == sign * character_value(lam, mu)


@pytest.mark.parametrize("k", range(11))
def test_character_against_border_strip_removal(k):
    shapes = partitions_of(k)
    for lam in shapes:
        for mu in shapes:
            assert character_value(lam, mu) == _border_strip(lam, mu)


@pytest.mark.parametrize("k", range(1, 10))
def test_character_row_and_column_orthogonality(k):
    shapes = partitions_of(k)
    table = {(lam, mu): character_value(lam, mu) for lam in shapes for mu in shapes}
    for mu in shapes:
        for nu in shapes:
            total = sum(table[lam, mu] * table[lam, nu] for lam in shapes)
            assert total == (z_order(mu) if mu == nu else 0)
    # sum over classes of chi^lam chi^rho / z(mu) is delta(lam, rho); scaled
    # by k! the weights become the class sizes k!/z(mu)
    for lam in shapes:
        for rho in shapes:
            total = sum(table[lam, mu] * table[rho, mu] * (factorial(k) // z_order(mu))
                        for mu in shapes)
            assert total == (factorial(k) if lam == rho else 0)
