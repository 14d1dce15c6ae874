"""Exact psi/lambda intersection numbers from covering counts, both ways.

For n poles of orders k_1..k_n on a genus-g surface, the normalized count
P(k_1..k_n) = h_{g;k} / prefactor(g, k) is a polynomial in the k_i with one
coefficient per pair (j, b), where j in [0, g] indexes a lambda class and b
is a multiset of n psi exponents graded by sum(b) + j = 3g - 3 + n (the
dimension of the moduli space of curves; integrals of any other degree
vanish):

    P(k) = sum_j (-1)^j sum_b <psi^b lambda_j> m_b(k),

with m_b the monomial symmetric sum over distinct rearrangements of b.
Sampling P on the sorted profiles of {1..B}^n and solving exactly recovers
the table of integrals, in three steps:

* Interpolate.  A symmetric function on the grid {1..B}^n is the restriction
  of exactly one symmetric polynomial of degree below B in each variable.
  Its coefficients c_beta in the basis m_beta, beta sorted in {0..B-1}^n,
  come from the inverse Vandermonde matrix of the nodes 1..B applied along
  each axis, in integers scaled by (B-1)! per axis and by the values'
  common denominator.
* Reduce.  On the grid, x^e agrees with its remainder modulo
  q(x) = prod_{v=1..B} (x - v), so each key m_b agrees with a combination
  of the m_beta.  A key with every exponent below B is the unit vector at
  beta = b; only the keys with an exponent of B or more ("dense" keys)
  keep a column.
* Solve.  The dense columns, restricted to the basis rows that hold no
  unit key, are solved exactly; each unit key then follows by back
  substitution from its own row.

This is an invertible row transform of the system "one equation per
sorted profile", so rank and solution are those of that system.  The
C(B + n - 1, n) - #keys surplus rows are all residual-checked exactly, and
any nonzero residual names a grid profile at which the solved polynomial
and the counts disagree: an engine or sign error fails loudly instead of
giving a wrong table.

The alternating sign (-1)^j is forced by h_{1;1} = 0: with all-plus signs
the one-pole genus-1 prediction would be 1/6.  ``hurwitz_from_hodge`` keeps
a "plus" variant selectable so the failure is demonstrable.

Unstable pairs (g, n) = (0, 1) and (0, 2) have no moduli space and are
rejected by every operation here, although the covering counts themselves
exist and the engines compute them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from typing import NamedTuple

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


def _monomial_sum(b, ks, memo=None, power=pow) -> int:
    """m_b(k_1..k_n), the sum of prod_i k_i^{b'_i} over the distinct
    rearrangements b' of b, by the first-variable recursion

        m_b(k_1..k_n) = sum over distinct e in b of k_1^e * m_{b-e}(k_2..k_n),

    with m_() = 1.  ``power(k, e)`` stands in for k^e.  Calls sharing one
    ``memo`` dict, keyed by (b, ks), share common tails; they must pass the
    same ``power``, b as an ascending tuple and ks as a tuple."""
    if memo is None:
        return _monomial_sum(tuple(sorted(b)), tuple(ks), {}, power)
    if not b:
        return 1
    value = memo.get((b, ks))
    if value is None:
        head, tail = ks[0], ks[1:]
        value = memo[b, ks] = sum(
            power(head, e) * _monomial_sum(b[:i] + b[i + 1:], tail, memo, power)
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


def _count_floor(unknowns: int, n: int) -> int:
    """Smallest B whose sorted grid in {1..B}^n has unknowns + n points."""
    bound = 1
    while comb(bound + n - 1, n) < unknowns + n:
        bound += 1
    return bound


def _poly_with_roots(roots) -> list[int]:
    """Ascending coefficients of prod (x - v) over ``roots``."""
    poly = [1]
    for v in roots:
        poly = [(poly[t - 1] if t else 0) - v * (poly[t] if t < len(poly) else 0)
                for t in range(len(poly) + 1)]
    return poly


def _scaled_inverse(bound: int) -> list[list[int]]:
    """(B-1)! times the inverse of the Vandermonde matrix (v^t) with nodes
    v = 1..B: row t, entry v - 1 is the x^t coefficient of (B-1)! L_v(x),
    where L_v(x) = prod_{u != v} (x - u) / ((v-1)! (-1)^(B-v) (B-v)!) is
    the Lagrange basis polynomial of node v.  Integral, since (v-1)! (B-v)!
    divides (B-1)!."""
    nodes = range(1, bound + 1)
    columns = [
        [(-1) ** (bound - v) * comb(bound - 1, v - 1) * c
         for c in _poly_with_roots(u for u in nodes if u != v)]
        for v in nodes
    ]
    return [list(row) for row in zip(*columns)]


def _residues(bound: int, top: int) -> list[list[int]]:
    """Row e, for e = 0..top, holds the ascending coefficients of
    x^e mod prod_{v=1..B} (x - v): a polynomial of degree below B that
    agrees with x^e at x = 1..B."""
    q = _poly_with_roots(range(1, bound + 1))
    rows = [[int(t == e) for t in range(bound)] for e in range(min(top + 1, bound))]
    for _ in range(bound, top + 1):
        last = rows[-1]
        rows.append([(last[t - 1] if t else 0) - last[-1] * q[t] for t in range(bound)])
    return rows


def _interpolate(values: dict, n: int, bound: int) -> dict:
    """Coefficients c_beta, for beta sorted in {0..B-1}^n, of the symmetric
    polynomial of degree below B in each variable that takes ``values``
    (sorted point of {1..B}^n -> Fraction) on the grid.

    The inverse Vandermonde matrix is applied one axis at a time.  After m
    axes the partial transform is symmetric in its m transformed indices
    and in its n - m untransformed ones, so it is stored once per pair of
    sorted tuples, never as the full B^n tensor.  Everything stays in
    integers until the final division by the common denominator.
    """
    inverse = _scaled_inverse(bound)
    scale = lcm(*(v.denominator for v in values.values()))
    stage = {((), point): v.numerator * (scale // v.denominator) for point, v in values.items()}
    for m in range(1, n + 1):
        nxt = {}
        for tail in combinations_with_replacement(range(1, bound + 1), n - m):
            merged = [tuple(sorted(tail + (v,))) for v in range(1, bound + 1)]
            for alpha in combinations_with_replacement(range(bound), m):
                head = alpha[:-1]
                nxt[alpha, tail] = sum(w * stage[head, point]
                                       for w, point in zip(inverse[alpha[-1]], merged))
        stage = nxt
    denominator = scale * factorial(bound - 1) ** n
    return {alpha: Fraction(value, denominator) for (alpha, _), value in stage.items()}


class _Reduced(NamedTuple):
    """The keys of (g, n) reduced to the interpolation basis at bound B.

    ``dense`` lists the indices of the keys with an exponent of B or more,
    ``free`` the basis rows beta that hold no unit key, and ``block`` the
    dense columns on those rows.  ``unit`` pairs each other key's index
    with the dense columns on its own row beta = b.  Columns carry the sign
    (-1)^j of their key."""
    keys: tuple
    dense: tuple
    free: tuple
    block: tuple
    unit: tuple


@lru_cache(maxsize=16)
def _reduced_system(g: int, n: int, bound: int) -> _Reduced:
    """The reduced system of (g, n) at bound B.  It needs no covering
    counts; the last rank probe and the solve share one build."""
    keys = tuple(hodge_keys(g, n))
    residues = _residues(bound, 3 * g - 3 + n)

    def residue(t, e):
        return residues[e][t]

    dense = tuple(i for i, (_, b) in enumerate(keys) if b[-1] >= bound)
    memo: dict = {}
    rows = {
        beta: tuple((-1) ** keys[i][0] * _monomial_sum(keys[i][1], beta, memo, residue)
                    for i in dense)
        for beta in combinations_with_replacement(range(bound), n)
    }
    unit = tuple((i, rows[b]) for i, (_, b) in enumerate(keys) if b[-1] < bound)
    held = {keys[i][1] for i, _ in unit}
    free = tuple(beta for beta in rows if beta not in held)
    return _Reduced(keys, dense, free, tuple(rows[beta] for beta in free), unit)


def _back_substitute(system: _Reduced, coefficients: dict, dense) -> list[Fraction]:
    """Every key's value, given the dense keys' values: a unit key (j, b)
    is (-1)^j times what its row c_b leaves after the dense columns."""
    solution = [Fraction(0)] * len(system.keys)
    for i, value in zip(system.dense, dense):
        solution[i] = value
    for i, row in system.unit:
        j, b = system.keys[i]
        solution[i] = (-1) ** j * (coefficients[b] - sum(a * v for a, v in zip(row, dense)))
    return solution


def minimal_grid_bound(g: int, n: int) -> int:
    """Smallest B whose sorted grid in {1..B}^n both has #unknowns + n
    points (surplus rows for residual checking) and determines every
    unknown.

    The point count alone can be insufficient: the keys are monomial
    symmetric sums of per-variable degree up to 3g - 3 + n, and too few
    distinct coordinate values makes high powers collide (B = 3g - 2 + n
    always suffices, and the loop stops well before that in practice).
    The grid determines the unknowns exactly when the dense block of the
    reduced system has full column rank; the probe needs no covering
    counts, so this is cheap.
    """
    bound = _count_floor(len(hodge_keys(g, n)), n)
    while True:
        system = _reduced_system(g, n, bound)
        if column_rank(system.block) == len(system.dense):
            return bound
        bound += 1


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
    (defaults to ``minimal_grid_bound``), solved by interpolation and the
    dense block (see the module docstring).  The system must have full
    column rank ("grid too small" otherwise) and zero residual on every
    surplus row (ConsistencyError otherwise, naming a grid profile where
    the solved polynomial misses the count).  ``hurwitz`` is an optional
    callable (g, profile) -> Fraction replacing the default connected
    engine.
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
    system = _reduced_system(g, n, bound)
    points = list(combinations_with_replacement(range(1, bound + 1), n))
    values = {point: normalized_value(g, point, hurwitz) for point in points}
    coefficients = _interpolate(values, n, bound)
    try:
        dense = solve_exact(system.block, [coefficients[beta] for beta in system.free])
    except RankDeficientError as exc:
        raise InfeasibleError(
            f"grid too small for (g={g}, n={n}): {{1..{bound}}}^{n} does not determine"
            f" the keys with an exponent of {bound} or more ({exc})"
        ) from exc
    except InconsistentSystemError as exc:
        # Some grid profile must miss, since the reduction is invertible.
        solution = _back_substitute(system, coefficients, exc.solution)
        memo: dict = {}
        profile, residual = next(
            (point, r) for point in points
            if (r := sum((-1) ** j * x * _monomial_sum(b, point, memo)
                         for (j, b), x in zip(keys, solution)) - values[point])
        )
        raise ConsistencyError(
            f"nonzero residual extracting (g={g}, n={n}) integrals at profile"
            f" {profile}: {residual}"
        ) from exc
    table = HodgeTable()
    for (j, b), value in zip(keys, _back_substitute(system, coefficients, dense)):
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
