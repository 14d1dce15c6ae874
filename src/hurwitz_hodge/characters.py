"""Irreducible symmetric-group characters via the Murnaghan-Nakayama rule.

Shapes are manipulated through their beta-sets (first-column hook lengths):
removing a border strip of length L from the shape is moving one beta
element down by L, with sign (-1)^(number of elements jumped over).  All
arithmetic is integer and memoized, so repeated table lookups are cheap.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import check_partition


def _conjugate(lam: tuple[int, ...]) -> list[int]:
    conj = [0] * lam[0]
    for row in lam:
        for j in range(row):
            conj[j] += 1
    return conj


def irrep_dimension(lam) -> int:
    """Number of standard Young tableaux of the given shape.

    Hook-length formula; the product of hooks always divides k!, so the
    division at the end is exact.
    """
    lam = check_partition(lam)
    if not lam:
        return 1
    conj = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(sum(lam)) // hooks


def character_value(lam, mu) -> int:
    """Character of the irreducible indexed by lam on the class of type mu.

    Both arguments must partition the same integer.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"shape {lam} and class {mu} must partition the same integer")
    return _border_strip(lam, mu)


@lru_cache(maxsize=None)
def _border_strip(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
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


def content_eigenvalue(lam) -> int:
    """Sum of cell contents (column - row, both 1-based) of the shape.

    The sum of all transpositions acts on the irreducible indexed by lam as
    this scalar, which is what powers the class-algebra Hurwitz engine.
    """
    lam = check_partition(lam)
    return sum(row * (row - 1 - 2 * i) for i, row in enumerate(lam)) // 2
