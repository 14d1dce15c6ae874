from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest

from hurwitz_hodge.partitions import (
    aut_count,
    check_partition,
    check_profile,
    partition_counts,
    partitions_of,
    z_order,
)

# p(0)..p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_examples():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(4)) == 5
    assert partitions_of(1) == [(1,)]
    assert partitions_of(0) == [()]


def test_partitions_of_order_is_lex_descending():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for k in range(9):
        parts = partitions_of(k)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == k for p in parts)


@pytest.mark.parametrize("k", range(11))
def test_partition_counts(k):
    assert len(partitions_of(k)) == PARTITION_COUNTS[k]
    assert partition_counts(k, k)[k] == PARTITION_COUNTS[k]


def test_partitions_of_with_at_most_parts():
    assert partitions_of(3, 2) == [(3,), (2, 1)]
    assert partitions_of(0, 1) == [()]
    for k in range(21):
        every = partitions_of(k)
        for parts in range(1, k + 2):
            assert partitions_of(k, parts) == [p for p in every if len(p) <= parts]
    for parts in (0, -1):
        with pytest.raises(ValueError, match=f"parts={parts}"):
            partitions_of(3, parts)


def test_partition_counts_match_listed_partitions():
    assert partition_counts(4, 2) == [1, 1, 2, 2, 3]
    assert partition_counts(0, 0) == [1]
    for largest in range(8):
        assert partition_counts(12, largest) == [
            sum(1 for p in partitions_of(t) if not p or p[0] <= largest) for t in range(13)
        ]


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_partitions_of_plain_tuples_in_reference_order():
    # reference: every multiset of parts summing to k, largest part first,
    # listed lexicographically descending
    for k in range(9):
        reference = sorted(
            (tuple(reversed(parts))
             for m in range(k + 1)
             for parts in combinations_with_replacement(range(1, k + 1), m)
             if sum(parts) == k),
            reverse=True,
        )
        parts = partitions_of(k)
        assert parts == reference
        assert all(type(p) is tuple for p in parts)


def test_partition_validation():
    assert check_partition((3, 1, 1)) == (3, 1, 1)
    assert check_partition(()) == ()
    assert check_partition([4, 2]) == (4, 2) and type(check_partition([4, 2])) is tuple
    with pytest.raises(ValueError, match=r"weakly decreasing, got \(1, 2\)"):
        check_partition((1, 2))
    with pytest.raises(ValueError, match="positive integers, got 0"):
        check_partition((2, 0))
    with pytest.raises(ValueError, match="positive integers, got -1"):
        check_partition((2, -1))
    with pytest.raises(ValueError, match="positive integers, got 1.0"):
        check_partition((2, 1.0))


def test_check_profile():
    assert check_profile([2, 1, 2]) == (2, 1, 2)
    with pytest.raises(ValueError):
        check_profile(())
    with pytest.raises(ValueError):
        check_profile((1, 0))


def test_aut_count_examples():
    assert aut_count((1, 1, 1)) == 6
    assert aut_count((2, 1)) == 1
    assert aut_count((2, 2)) == 2
    assert aut_count((3, 1, 1, 2, 2, 2)) == 2 * 6


def test_z_order_examples():
    assert z_order((1, 1, 1)) == 6
    assert z_order((2, 2)) == 8
    assert z_order((2, 1)) == 2


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


@pytest.mark.parametrize("k", range(1, 6))
def test_z_order_against_class_size_enumeration(k):
    # z(mu) * |class of type mu| = k!, with class sizes counted directly
    sizes = {}
    for perm in permutations(range(k)):
        ct = _cycle_type(perm)
        sizes[ct] = sizes.get(ct, 0) + 1
    for mu in partitions_of(k):
        assert z_order(mu) * sizes[tuple(mu)] == factorial(k)


def test_aut_divides_z():
    for k in range(1, 8):
        for mu in partitions_of(k):
            assert z_order(mu) % aut_count(mu) == 0
