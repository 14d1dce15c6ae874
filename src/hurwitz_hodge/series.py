"""The one-pole identity between extracted integrals and the sine kernel.

For each k >= 1,

    1 + sum_{g>=1} t^{2g} sum_{j=0}^{g} k^{g-j} <psi^{3g-2-j} lambda_j>_{g,1}
        = (t/2 / sin(t/2))^{k+1},

where the one-pole integrals come out of the extraction module.  Note the
plus signs on the left: this one-pole statement and the alternating-sign
covering-count expansion are different normalizations, and both are pinned
by the tests.

The right side is s^{-(k+1)} with s = sin(t/2)/(t/2) =
sum_m (-1)^m t^{2m} / (4^m (2m+1)!).  Its coefficients come from J.C.P.
Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7): since
s_0 = 1, c_0 = 1 and

    c_m = -(1/m) sum_{i even, 2 <= i <= m} (k i + m) s_i c_{m-i},

exactly, in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .hodge import HodgeTable, extract_hodge_integrals
from .report import Check, make_check


def sine_kernel(k: int, order: int) -> list[Fraction]:
    """Coefficients of (t/2 / sin(t/2))^(k+1) through t^order.

    Only even powers of t occur; the constant term is 1 and the t^2
    coefficient is (k+1)/24.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if order < 2 or order % 2:
        raise ValueError("order must be even and at least 2")
    s = {i: Fraction((-1) ** (i // 2), 2 ** i * factorial(i + 1)) for i in range(2, order + 1, 2)}
    c = [Fraction(0)] * (order + 1)
    c[0] = Fraction(1)
    for m in range(2, order + 1, 2):
        c[m] = -sum((k * i + m) * s[i] * c[m - i] for i in range(2, m + 1, 2)) / m
    return c


def hodge_side_coefficient(g: int, k: int, table: HodgeTable) -> Fraction:
    """The t^{2g} coefficient sum_j k^{g-j} <psi^{3g-2-j} lambda_j>_{g,1}
    of the one-pole generating function at the given k."""
    if g < 1:
        raise ValueError("the identity starts at genus 1")
    total = Fraction(0)
    for j in range(g + 1):
        key = (g, 1, (3 * g - 2 - j,), j)
        if key not in table.values:
            raise KeyError(f"table is missing {key}")
        total += k ** (g - j) * table.values[key]
    return total


# the k the identity is checked at
K_VALUES = (1, 2, 3, 4, 5)


def verify_faber_pandharipande(g_max: int = 2) -> list[Check]:
    """Compare extracted one-pole integrals against the sine kernel for all
    g <= g_max and k in K_VALUES; one Check per pair, never partial silence.

    Every one-pole table is extracted with the default engine before the
    kernels are expanded to t^{2 g_max}, so a genus the extraction refuses
    stops the run before that expansion.
    """
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    tables = {g: extract_hodge_integrals(g, 1) for g in range(1, g_max + 1)}
    kernels = {k: sine_kernel(k, 2 * g_max) for k in K_VALUES}
    return [
        make_check("fp-identity", f"g={g}/k={k}", kernels[k][2 * g],
                   hodge_side_coefficient(g, k, tables[g]))
        for g in range(1, g_max + 1)
        for k in K_VALUES
    ]
