"""Integer partitions, pole profiles, and conjugacy-class bookkeeping.

A partition is a plain tuple of weakly decreasing positive integers; it
labels a conjugacy class of the symmetric group on k = sum of parts
letters, or an unordered multiset of pole orders, and () is the empty
partition.  A pole profile is the ordered variant: a plain tuple of
positive integers that keeps its positions, so inclusion-exclusion over
labeled poles can address individual entries.  ``check_partition`` and
``check_profile`` validate tuples arriving from outside the package;
``partitions_of`` builds valid ones and does not check them again.
"""

from __future__ import annotations

from collections import Counter
from math import factorial


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


def partitions_of(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, each exactly once, in lexicographically
    descending order: partitions_of(3) == [(3,), (2, 1), (1, 1, 1)].

    k = 0 yields the single empty partition; negative k is rejected.
    """
    if k < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[tuple[int, ...]] = []

    def descend(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(k, k, ())
    return out


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
    z = 1
    for part, m in Counter(mu).items():
        z *= part ** m * factorial(m)
    return z
