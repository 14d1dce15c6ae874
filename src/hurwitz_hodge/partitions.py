"""Integer partitions, pole profiles, and conjugacy-class bookkeeping.

A partition is a plain tuple of weakly decreasing positive integers; it
labels a conjugacy class of the symmetric group on k = sum of parts
letters, or an unordered multiset of pole orders, and () is the empty
partition.  A pole profile is the ordered variant: a plain tuple of
positive integers that keeps its positions, so inclusion-exclusion over
labeled poles can address individual entries.  ``check_partition`` and
``check_profile`` validate tuples arriving from outside the package.
Partitions are listed by ``partitions_of`` (valid, never checked again;
``hodge`` builds its psi exponent tuples and sample points from them) and
counted by ``partition_counts`` (``engines`` counts p(k) with its orbits).
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod


def check_profile(orders) -> tuple[int, ...]:
    """Validate a pole profile: a nonempty sequence of positive integers."""
    profile = tuple(orders)
    if not profile:
        raise ValueError("pole profile must contain at least one pole order")
    for p in profile:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"pole orders must be positive integers, got {p!r}")
    return profile


def check_partition(parts) -> tuple[int, ...]:
    """Validate a partition: weakly decreasing positive integers; () is the
    empty partition."""
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if i and parts[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
    return parts


def parse_profile(text: str) -> tuple[int, ...]:
    """A pole profile written as comma-separated positive integers, e.g. "2,1,1"."""
    try:
        profile = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"profile must be comma-separated integers, got {text!r}") from None
    if not profile or any(p < 1 for p in profile):
        raise ValueError(f"profile entries must be positive, got {text!r}")
    return profile


def partitions_of(k: int, parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of k with at most ``parts`` parts (any number if
    None), each exactly once, in lexicographically descending order:
    partitions_of(3) == [(3,), (2, 1), (1, 1, 1)] and partitions_of(3, 2)
    == [(3,), (2, 1)].  k = 0 yields the single empty partition; negative
    k and ``parts`` below 1 are rejected.
    """
    if k < 0:
        raise ValueError("cannot partition a negative integer")
    if parts is None:
        parts = k
    elif parts < 1:
        raise ValueError(f"a partition needs room for at least one part, got parts={parts}")
    out: list[tuple[int, ...]] = []

    def descend(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        # a part below remaining / slots leaves too few slots, so none is tried
        slots = parts - len(prefix)
        for part in range(min(remaining, largest), -(-remaining // slots) - 1, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(k, k, ())
    return out


def partition_counts(top: int, largest: int) -> list[int]:
    """For each t in [0, top], the number of partitions of t into parts of
    size at most ``largest``, counted without listing any."""
    ways = [1] + [0] * top
    for part in range(1, min(largest, top) + 1):
        for total in range(part, top + 1):
            ways[total] += ways[total - part]
    return ways


def aut_count(profile) -> int:
    """Number of automorphisms of the tuple: prod over values v of m_v!
    where m_v is the multiplicity of v among the entries."""
    count = 1
    for m in Counter(profile).values():
        count *= factorial(m)
    return count


def z_order(mu) -> int:
    """Centralizer order prod_i i^{m_i} m_i!; equals k! divided by the size
    of the conjugacy class of cycle type mu."""
    return aut_count(mu) * prod(mu)
