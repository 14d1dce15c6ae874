"""Exact psi/lambda intersection numbers from covering counts, both ways.

For n poles of orders k_1..k_n on a genus-g surface, the normalized count
P(k_1..k_n) = h_{g;k} / prefactor(g, k) is a polynomial in the k_i with one
coefficient per pair (j, b), where j in [0, g] indexes a lambda class and b
is a multiset of n psi exponents graded by sum(b) + j = 3g - 3 + n (the
dimension of the moduli space of curves; integrals of any other degree
vanish):

    P(k) = sum_j (-1)^j sum_b <psi^b lambda_j> m_b(k),

with m_b the monomial symmetric sum over distinct rearrangements of b.
Sampling P on a grid of sorted positive profiles and solving the
overdetermined linear system exactly recovers the table of integrals;
surplus rows must have residual exactly zero, which turns any engine or
sign error into a loud failure instead of a wrong table.

The alternating sign (-1)^j is forced by h_{1;1} = 0: with all-plus signs
the one-pole genus-1 prediction would be 1/6.  ``hurwitz_from_hodge`` keeps
a "plus" variant selectable so the failure is demonstrable.

Unstable pairs (g, n) = (0, 1) and (0, 2) have no moduli space and are
rejected by every operation here, although the covering counts themselves
exist and the engines compute them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

from . import engines
from .errors import ConsistencyError, InfeasibleError
from .linsolve import (
    InconsistentSystemError,
    RankDeficientError,
    column_rank,
    solve_exact,
)
from .partitions import aut_count, check_profile, partitions_of

# (g, n, psi exponents ascending, lambda index)
HodgeKey = tuple[int, int, tuple[int, ...], int]


def is_stable(g: int, n: int) -> bool:
    """Whether the moduli space of genus-g curves with n points exists."""
    return 2 * g - 2 + n > 0


def _require_stable(g: int, n: int) -> None:
    if not isinstance(g, int) or not isinstance(n, int) or g < 0 or n < 1:
        raise ValueError(f"invalid (g, n) = ({g!r}, {n!r})")
    if not is_stable(g, n):
        raise ValueError(f"unstable (g, n) = ({g}, {n}); no moduli space of curves")


def prefactor(g: int, profile) -> Fraction:
    """The combinatorial factor d!/#Aut * prod_i k_i^{k_i}/k_i! relating the
    covering count to the normalized polynomial P."""
    profile = check_profile(profile)
    d = engines.ramification_count(g, profile)
    value = Fraction(factorial(d), aut_count(profile))
    for k in profile:
        value *= Fraction(k ** k, factorial(k))
    return value


def weight_w(profile) -> Fraction:
    """Quasihomogeneity weight prod_i k_i^{k_i}/(k_i - 1)!."""
    profile = check_profile(profile)
    value = Fraction(1)
    for k in profile:
        value *= Fraction(k ** k, factorial(k - 1))
    return value


def degree_LL(g: int, profile, h) -> int:
    """Degree of the Lyashko-Looijenga critical-value map:
    h * #Aut * prod_i k_i.

    Must come out a nonnegative integer whenever h is the true Hurwitz
    number for (g, profile); anything else raises ConsistencyError, since
    it signals a broken engine (or a wrong h supplied by the caller).
    """
    profile = check_profile(profile)
    engines.ramification_count(g, profile)  # validates the genus
    value = Fraction(h) * aut_count(profile) * prod(profile)
    if value.denominator != 1 or value < 0:
        raise ConsistencyError(
            f"deg LL = {value} for genus {g}, profile {profile} is not a nonnegative "
            "integer; the supplied Hurwitz number cannot be correct"
        )
    return int(value)


def normalized_value(g: int, profile, hurwitz=None) -> Fraction:
    """P(g, profile) = h / prefactor: the value of the bracketed integral.

    ``hurwitz`` is an optional callable (g, profile) -> Fraction; defaults
    to the connected class-algebra engine.
    """
    profile = check_profile(profile)
    _require_stable(g, len(profile))
    h = (hurwitz or engines.connected_hurwitz)(g, profile)
    return Fraction(h) / prefactor(g, profile)


def hodge_keys(g: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The (j, b) pairs appearing in P at (g, n): lambda index j in [0, g]
    and ascending psi exponents b with sum(b) + j = 3g - 3 + n.  Order is
    deterministic (j ascending, then the partition enumeration order)."""
    _require_stable(g, n)
    dim = 3 * g - 3 + n
    keys = []
    for j in range(g + 1):
        s = dim - j
        if s < 0:
            continue
        for lam in partitions_of(s):
            if len(lam) <= n:
                keys.append((j, tuple(sorted(lam + (0,) * (n - len(lam))))))
    return keys


def _monomial_sum(b, ks, memo=None) -> int:
    """m_b(k_1..k_n), the sum of prod_i k_i^{b'_i} over the distinct
    rearrangements b' of b, by the first-variable recursion

        m_b(k_1..k_n) = sum over distinct e in b of k_1^e * m_{b-e}(k_2..k_n),

    with m_() = 1.  Calls sharing one ``memo`` dict, keyed by (b, ks), share
    common tails; they must pass b as an ascending tuple and ks as a tuple."""
    if memo is None:
        return _monomial_sum(tuple(sorted(b)), tuple(ks), {})
    if not b:
        return 1
    value = memo.get((b, ks))
    if value is None:
        head, tail = ks[0], ks[1:]
        value = memo[b, ks] = sum(
            head ** e * _monomial_sum(b[:i] + b[i + 1:], tail, memo)
            for i, e in enumerate(b) if i == 0 or e != b[i - 1]
        )
    return value


class HodgeTable:
    """Exact values of <psi^b lambda_j>, keyed by (g, n, b ascending, j).

    ``grid_bound`` and ``surplus_rows`` record, per (g, n), the grid used by
    the extraction and how many surplus equations were residual-checked.
    """

    def __init__(self):
        self.values: dict[HodgeKey, Fraction] = {}
        self.grid_bound: dict[tuple[int, int], int] = {}
        self.surplus_rows: dict[tuple[int, int], int] = {}

    def set(self, g: int, n: int, b, j: int, value) -> None:
        b = tuple(sorted(b))
        _require_stable(g, n)
        if len(b) != n or any(not isinstance(e, int) or e < 0 for e in b):
            raise ValueError(f"bad psi exponents {b} for n={n}")
        if not 0 <= j <= g or sum(b) + j != 3 * g - 3 + n:
            raise ValueError(f"key (g={g}, n={n}, b={b}, j={j}) violates the degree grading")
        self.values[(g, n, b, j)] = Fraction(value)

    def get(self, g: int, n: int, b, j: int) -> Fraction:
        return self.values[(g, n, tuple(sorted(b)), j)]

    def __contains__(self, key: HodgeKey) -> bool:
        return key in self.values

    def __len__(self) -> int:
        return len(self.values)

    def sorted_keys(self) -> list[HodgeKey]:
        return sorted(self.values)

    def to_lines(self) -> list[str]:
        """Line-delimited records ``g=.. n=.. b=..,.. j=.. value=num/den``
        in deterministic key order."""
        return [
            f"g={g} n={n} b={','.join(map(str, b))} j={j} value={self.values[(g, n, b, j)]}"
            for g, n, b, j in self.sorted_keys()
        ]

    @classmethod
    def from_lines(cls, lines) -> "HodgeTable":
        table = cls()
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            fields = {}
            for token in line.split():
                name, eq, value = token.partition("=")
                if not eq:
                    raise ValueError(f"malformed record {line!r}")
                fields[name] = value
            try:
                g, n, j = int(fields["g"]), int(fields["n"]), int(fields["j"])
                b = tuple(int(x) for x in fields["b"].split(","))
                value = Fraction(fields["value"])
            except (KeyError, ValueError) as exc:
                raise ValueError(f"malformed record {line!r}: {exc}") from exc
            table.set(g, n, b, j, value)
        return table


def _design_matrix(keys, points) -> list[list[int]]:
    memo: dict = {}
    return [[(-1) ** j * _monomial_sum(b, point, memo) for j, b in keys] for point in points]


def _count_floor(unknowns: int, n: int) -> int:
    """Smallest B whose sorted grid in {1..B}^n has unknowns + n points."""
    bound = 1
    while comb(bound + n - 1, n) < unknowns + n:
        bound += 1
    return bound


def minimal_grid_bound(g: int, n: int) -> int:
    """Smallest B whose sorted grid in {1..B}^n both has #unknowns + n
    points (surplus rows for residual checking) and gives the unknowns a
    full-rank design matrix.

    The point count alone can be insufficient: the columns are monomial
    symmetric sums of per-variable degree up to 3g - 3 + n, and too few
    distinct coordinate values makes high powers collide (B = 3g - 2 + n
    always suffices, and the loop stops well before that in practice).
    The rank probe needs no covering counts, so this is cheap.
    """
    keys = hodge_keys(g, n)
    bound = _count_floor(len(keys), n)
    while column_rank(
        _design_matrix(keys, combinations_with_replacement(range(1, bound + 1), n))
    ) < len(keys):
        bound += 1
    return bound


def extract_hodge_integrals(
    g: int,
    n: int,
    grid_bound: int | None = None,
    hurwitz=None,
    *,
    k_bound: int = engines.DEFAULT_K_BOUND,
    r_bound: int = engines.DEFAULT_R_BOUND,
) -> HodgeTable:
    """Solve for every <psi^b lambda_j> at (g, n) from covering counts.

    One equation per sorted profile in {1..B}^n with B = ``grid_bound``
    (defaults to ``minimal_grid_bound``).  The system must have full column
    rank ("grid too small" otherwise) and zero residual on every surplus
    row (ConsistencyError otherwise).  ``hurwitz`` is an optional callable
    (g, profile) -> Fraction replacing the default connected engine.
    """
    _require_stable(g, n)
    keys = hodge_keys(g, n)
    if grid_bound is not None and (not isinstance(grid_bound, int) or grid_bound < 1):
        raise ValueError(f"grid_bound must be a positive integer, got {grid_bound!r}")
    # the count floor always has enough points; an explicit bound may not
    bound = _count_floor(len(keys), n) if grid_bound is None else grid_bound
    if comb(bound + n - 1, n) <= len(keys):
        raise InfeasibleError(
            f"grid too small: {comb(bound + n - 1, n)} sorted points in"
            f" {{1..{bound}}}^{n} cannot overdetermine {len(keys)} unknowns"
        )
    if hurwitz is None:
        def hurwitz(gg, prof):
            return engines.connected_hurwitz(gg, prof, k_bound=k_bound, r_bound=r_bound)
    # The corner (B, ..., B) has the largest k and r on the grid, so asking
    # for it first lets the engine reject a bound it cannot serve before the
    # rank probe runs or the C(B + n - 1, n) grid points are listed.
    hurwitz(g, (bound,) * n)
    if grid_bound is None:
        bound = minimal_grid_bound(g, n)
    points = list(combinations_with_replacement(range(1, bound + 1), n))
    matrix = _design_matrix(keys, points)
    rhs = [normalized_value(g, point, hurwitz) for point in points]
    try:
        solution = solve_exact(matrix, rhs)
    except RankDeficientError as exc:
        raise InfeasibleError(f"grid too small for (g={g}, n={n}): {exc}") from exc
    except InconsistentSystemError as exc:
        raise ConsistencyError(
            f"nonzero residual extracting (g={g}, n={n}) integrals at profile"
            f" {points[exc.row_index]}: {exc.residual}"
        ) from exc
    table = HodgeTable()
    for (j, b), value in zip(keys, solution):
        table.set(g, n, b, j, value)
    table.grid_bound[(g, n)] = bound
    table.surplus_rows[(g, n)] = len(points) - len(keys)
    return table


def hurwitz_from_hodge(
    g: int,
    profile,
    table: HodgeTable,
    *,
    lambda_signs: str = "alternating",
) -> Fraction:
    """Forward evaluation: prefactor * P(profile) from a table of integrals.

    ``lambda_signs`` selects the sign of the lambda_j term in P:
    "alternating" (the default and the convention consistent with
    h_{1;1} = 0) or "plus" (kept to demonstrate that the naive choice
    fails).  Raises KeyError listing any integrals missing from the table.
    """
    if lambda_signs not in ("alternating", "plus"):
        raise ValueError(f"unknown lambda_signs {lambda_signs!r}")
    profile = check_profile(profile)
    n = len(profile)
    _require_stable(g, n)
    keys = hodge_keys(g, n)
    missing = [(g, n, b, j) for j, b in keys if (g, n, b, j) not in table.values]
    if missing:
        raise KeyError(f"table is missing {len(missing)} integral(s): {missing}")
    p_value = Fraction(0)
    for j, b in keys:
        sign = (-1) ** j if lambda_signs == "alternating" else 1
        p_value += sign * table.values[(g, n, b, j)] * _monomial_sum(b, profile)
    return prefactor(g, profile) * p_value
