"""Irreducible symmetric-group characters via the Murnaghan-Nakayama rule.

A shape is an int bitmask, its Maya diagram: with N particles, bit
lam_i + N - 1 - i is set for each of its N rows (empty rows included),
i.e. the beta-set of first-column hook lengths.  Adding a border strip of
length m moves one particle from an occupied b to an empty b + m, with
sign (-1)^(number of particles jumped over); this is the fermionic picture
of Okounkov, "Toda equations for Hurwitz numbers" (2000).  The Schur
expansion of the power sum p_mu is built bottom up, one strip per part of
mu, and memoized by the descending class suffix alone: the expansion of a
suffix nu uses |nu| particles, so a strip of length m first adds m
particles below the previous ones (mask << m | (1 << m) - 1) and then
moves one particle up by m.  Every class ending in nu shares its expansion,
whatever its size.  A character value is a lookup of the shape's mask in
its class's expansion, and a dimension is Frobenius' formula on the
shape's beta-set.  The memoized expansions are never mutated once built,
and all arithmetic is integer.

Conjugation (transposing the shape, lam -> lam') keeps the dimension,
negates the content sum and multiplies the character by the sign of the
class: chi^lam'(mu) = (-1)^(k - len(mu)) chi^lam(mu).  The class rows of
the Frobenius engine are built from the shapes of content sum >= 0 and
mirrored through this identity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .partitions import check_partition


def _dimension(lam: tuple[int, ...]) -> int:
    # the number of standard Young tableaux of the valid shape lam, by
    # Frobenius' formula on the beta-set b_i = lam_i + N - 1 - i of its N
    # rows: k! prod_{i<j} (b_i - b_j) / prod_i b_i!, an exact division
    beta = [row + len(lam) - 1 - i for i, row in enumerate(lam)]
    spread = prod(b - c for b, c in combinations(beta, 2))
    return factorial(sum(lam)) * spread // prod(map(factorial, beta))


def character_value(lam, mu) -> int:
    """Character of the irreducible indexed by lam on the class of type mu.

    Both arguments must partition the same integer.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    k = sum(lam)
    if k != sum(mu):
        raise ValueError(f"shape {lam} and class {mu} must partition the same integer")
    return _expansion(mu).get(_maya(lam, k), 0)


def _maya(lam: tuple[int, ...], particles: int) -> int:
    # bit lam_i + particles - 1 - i for every row, empty rows included
    mask = (1 << (particles - len(lam))) - 1
    for i, row in enumerate(lam):
        mask |= 1 << (row + particles - 1 - i)
    return mask


@lru_cache(maxsize=None)
def _expansion(mu: tuple[int, ...]) -> dict[int, int]:
    """Nonzero coefficients chi^lam(mu) of p_mu = sum_lam chi^lam(mu) s_lam,
    keyed by the Maya diagram of lam with sum(mu) particles.

    mu is a descending class suffix: its smallest parts are added first,
    so classes that share their tail share the memoized expansion of it.
    """
    if not mu:
        return {0: 1}
    strip = mu[0]
    fill = (1 << strip) - 1
    out: dict[int, int] = {}
    for below, coef in _expansion(mu[1:]).items():
        # the same shapes with strip more (empty) rows
        mask = below << strip | fill
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            high = low << strip
            if mask & high:
                continue
            moved = mask ^ low ^ high
            jumped = (mask & (high - (low << 1))).bit_count()
            out[moved] = out.get(moved, 0) + (-coef if jumped & 1 else coef)
    return {mask: coef for mask, coef in out.items() if coef}


def _content_sum(lam: tuple[int, ...]) -> int:
    # the sum of cell contents (column - row) of the valid shape lam: the
    # scalar by which the sum of all transpositions acts on its irreducible
    return sum(row * (row - 1 - 2 * i) for i, row in enumerate(lam)) // 2
