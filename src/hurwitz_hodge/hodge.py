"""Exact psi/lambda intersection numbers from covering counts, both ways.

For n poles of orders k_1..k_n on a genus-g surface, the normalized count
P(k_1..k_n) = h_{g;k} / prefactor(g, k) is a polynomial in the k_i with one
coefficient per pair (j, b), where j in [0, g] indexes a lambda class and b
is a multiset of n psi exponents graded by sum(b) + j = 3g - 3 + n (the
dimension of the moduli space of curves; integrals of any other degree
vanish):

    P(k) = sum_j (-1)^j sum_b <psi^b lambda_j> m_b(k),

with m_b the monomial symmetric sum over distinct rearrangements of b, so
P is symmetric of total degree 3g - 3 + n.  Polynomials of total degree at
most L are determined by their values on the principal lattice
{x : x_i >= 1, sum(x_i - 1) <= L} (Chung and Yao, SIAM J. Numer. Anal.
1977), and symmetric ones by their values on its ascending points, the
level-L sample.  Sampling P there, at the level L = minimal_grid_bound(g,
n), and solving exactly recovers the table of integrals, in three steps
(any sample that determines the table gives the same one, P being a
polynomial):

* Interpolate.  Forward differences Delta^alpha f(1, ..., 1), taken one
  axis at a time, give the Newton form of the interpolant,
  sum_alpha Delta^alpha f / alpha! prod_i (x_i - 1)...(x_i - alpha_i),
  and a second pass spreads each falling factorial over the powers of its
  variable.  The result is the coefficients c_beta in the basis m_beta,
  beta ascending of total at most L.  Both passes store one entry per
  pair of ascending index tuples and stay in integers, scaled by the
  values' common denominator and by L!/a! per axis.
* Reduce.  x^e = sum_t S(e+1, t+1) (x - 1)...(x - t), with S the Stirling
  numbers of the second kind, and on the sample every product of these
  falling factorials of total order above L vanishes.  So each key m_b
  agrees on the sample with a combination of the m_beta: a key with
  sum(b) <= L is the unit vector at beta = b, and only the keys of higher
  total degree ("dense" keys) keep a column, found by the same two steps:
  the key's Newton coefficients, then the pass to powers.
* Solve.  The dense columns on the basis rows that hold no unit key form
  an integer block, and its right-hand side is the interpolant's integer
  numerators on those rows, over the counts' common denominator D.  One
  fraction-free (Bareiss) elimination serves the rank probe and the
  solve: each update divides by the previous pivot, exactly by Sylvester's
  identity, so every entry is an integer minor, and by Cramer's rule the
  pivot rows' solution is integral over their determinant det.  Each unit
  key then follows by back substitution from its own row, still in
  integers over det * D; each integral is one Fraction at the end.

This is an invertible row transform of the system "one equation per
sample point", so rank and solution are those of that system.  The
extraction checks every row of the block against the pivot rows'
solution in integers, so the #points - #keys surplus rows are all
residual-checked exactly, and any nonzero residual names a sample profile
at which the solved polynomial and the counts disagree: an engine or sign
error fails loudly instead of giving a wrong table.

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
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import mul
from typing import NamedTuple

from . import engines
from .errors import ConsistencyError
from .partitions import aut_count, check_profile, partition_counts, partitions_of

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


def _exact(value, name: str):
    """``value`` if it is an int or a Fraction; anything else (a float is
    already rounded) raises TypeError naming its type."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or a Fraction, got {type(value).__name__} {value!r}")
    return value


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
    value = Fraction(_exact(h, "h")) * aut_count(profile) * prod(profile)
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
    return Fraction(_exact(h, "a Hurwitz number")) / prefactor(g, profile)


def hodge_keys(g: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The (j, b) pairs appearing in P at (g, n): lambda index j in [0, g]
    and ascending psi exponents b with sum(b) + j = 3g - 3 + n.  Order is
    deterministic: j ascending, then the nonzero exponents of b in the
    order partitions_of(3g - 3 + n - j, n) lists them."""
    _require_stable(g, n)
    return [(j, (0,) * (n - len(parts)) + parts[::-1])
            for j in range(g + 1) for parts in partitions_of(3 * g - 3 + n - j, n)]


def _key_count(g: int, n: int) -> int:
    """len(hodge_keys(g, n)) without listing the keys: for each j, the
    partitions of 3g - 3 + n - j into at most n parts."""
    _require_stable(g, n)
    top = 3 * g - 3 + n
    return sum(partition_counts(top, n)[top - g:])


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
        value = 0
        for i, e in enumerate(b):
            if i and e == b[i - 1]:
                continue
            factor = power(head, e)
            if factor:  # a zero residue needs no tail sum
                value += factor * _monomial_sum(b[:i] + b[i + 1:], tail, memo, power)
        memo[b, ks] = value
    return value


class HodgeTable:
    """Exact values of <psi^b lambda_j>, keyed by (g, n, b ascending, j).

    ``grid_bound`` and ``surplus_rows`` record, per (g, n), the level of the
    sample used by the extraction and how many surplus equations were
    residual-checked.
    Tables are saved and reloaded through the cache (``hodge --cache``).
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
        self.values[(g, n, b, j)] = Fraction(_exact(value, "value"))

    def get(self, g: int, n: int, b, j: int) -> Fraction:
        return self.values[(g, n, tuple(sorted(b)), j)]

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


def _level_floor(g: int, n: int) -> int:
    """Smallest level whose sample has #keys + n points.  The level-L point
    count is the sum, over t <= L, of the partitions of t into at most n
    parts; each level adds at least one point, so level 3g - 3 + 2n
    always suffices."""
    need = _key_count(g, n) + n
    points = accumulate(partition_counts(3 * g - 3 + 2 * n, n))
    return next(level for level, count in enumerate(points) if count >= need)


@lru_cache(maxsize=256)
def _simplex(m: int, level: int) -> tuple[tuple[int, ...], ...]:
    """The ascending m-tuples of nonnegative integers with sum at most
    ``level``, in lexicographic order.  The level-L sample of n poles is
    _simplex(n, L) shifted by one in every coordinate."""
    tuples = [((), 0, level)]
    for slots in range(m, 0, -1):
        # each of the remaining slots takes at least y
        tuples = [(t + (y,), y, room - y)
                  for t, low, room in tuples
                  for y in range(low, room // slots + 1)]
    return tuple(t for t, _, _ in tuples)


def _poly_with_roots(roots) -> list[int]:
    """Ascending coefficients of prod (x - v) over ``roots``."""
    poly = [1]
    for v in roots:
        poly = [(poly[t - 1] if t else 0) - v * (poly[t] if t < len(poly) else 0)
                for t in range(len(poly) + 1)]
    return poly


@lru_cache(maxsize=16)
def _stirling_rows(top: int) -> tuple[tuple[int, ...], ...]:
    """Row e, for e = 0..top, holds the Stirling numbers of the second kind
    S(e+1, t+1) for t = 0..e, so that x^e = sum_t S(e+1, t+1) (x-1)...(x-t)."""
    rows = [(1,)]
    for e in range(1, top + 1):
        last = rows[-1]
        rows.append(tuple((t + 1) * (last[t] if t < e else 0) + (last[t - 1] if t else 0)
                          for t in range(e + 1)))
    return tuple(rows)


@lru_cache(maxsize=16)
def _differences(level: int) -> tuple:
    """Forward differences Delta^a f(0) = sum_s (-1)^(a-s) C(a, s) f(s),
    for a = 0..L, as _axis_pass weights."""
    return tuple((0, tuple((-1) ** (a - s) * comb(a, s) for s in range(a + 1)))
                 for a in range(level + 1))


@lru_cache(maxsize=16)
def _falling_to_powers(level: int, scaled: bool) -> tuple:
    """The falling factorials (x-1)...(x-a), for a = 0..L and times L!/a!
    if ``scaled``, spread over the powers x^b, as _axis_pass weights: x^b
    collects from every a >= b."""
    falling = [_poly_with_roots(range(1, a + 1)) for a in range(level + 1)]
    return tuple(
        (b, tuple((factorial(level) // factorial(a) if scaled else 1) * falling[a][b]
                  for a in range(b, level + 1)))
        for b in range(level + 1)
    )


def _axis_pass(stage: dict, n: int, level: int, weights) -> dict:
    """Apply one triangular per-axis map along each of the n axes in turn.
    weights[a] = (start, w) makes new index a the sum of w[i] times old
    index start + i.

    ``stage`` maps each ascending point y of _simplex(n, level) to a tuple
    of integers (one per column), and the result maps each ascending new
    index tuple to one.  The map of new index a reads old indices at most
    level minus the rest of the point, all of which the simplex holds.
    After m axes the partial result is symmetric in its m new indices and
    in its n - m old ones, so it is stored once per pair of ascending
    tuples (head, tail), never as the full tensor.
    """
    stage = {((), y): value for y, value in stage.items()}
    for m in range(1, n + 1):
        nxt = {}
        for tail in _simplex(n - m, level):
            room = level - sum(tail)
            merged = [tuple(sorted(tail + (y,))) for y in range(room + 1)]
            for head in _simplex(m, room):
                rest, a = head[:-1], head[-1]
                start, w = weights[a]
                stop = min(start + len(w), room - (sum(head) - a) + 1)
                sources = [stage[rest, point] for point in merged[start:stop]]
                nxt[head, tail] = tuple(sum(map(mul, w, column)) for column in zip(*sources))
        stage = nxt
    return {head: value for (head, _), value in stage.items()}


def _interpolate(values: dict, n: int, level: int) -> tuple[dict, int]:
    """Coefficients c_beta, for beta ascending of total at most L, of the
    symmetric polynomial of total degree at most L that takes ``values``
    (sample point -> Fraction) on the level-L sample, as integer numerators
    over one denominator D: the pair ({beta: c_beta * D}, D).

    Forward differences Delta^alpha f(1, ..., 1), one axis at a time, give
    the Newton form sum_alpha Delta^alpha f / alpha! prod_i (x_i-1)...(x_i-alpha_i);
    a second pass spreads each falling factorial over the monomials.  Both
    stay in integers, scaled by the values' common denominator and by
    L!/a! per axis, so D is that denominator times L!^n.
    """
    scale = lcm(*(v.denominator for v in values.values()))
    stage = {tuple(x - 1 for x in point): (v.numerator * (scale // v.denominator),)
             for point, v in values.items()}
    stage = _axis_pass(stage, n, level, _differences(level))
    stage = _axis_pass(stage, n, level, _falling_to_powers(level, True))
    return {beta: value for beta, (value,) in stage.items()}, scale * factorial(level) ** n


class _Reduced(NamedTuple):
    """The keys of (g, n) reduced to the interpolation basis at level L.

    ``dense`` lists the indices of the keys of total degree above L,
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
def _reduced_system(g: int, n: int, level: int) -> _Reduced:
    """The reduced system of (g, n) at level L.  It needs no covering
    counts; the last rank probe and the solve share one build."""
    keys = tuple(hodge_keys(g, n))
    stirling = _stirling_rows(3 * g - 3 + n)

    def power(t, e):  # the (x-1)...(x-t) coefficient of x^e
        return stirling[e][t] if t <= e else 0

    dense = tuple(i for i, (_, b) in enumerate(keys) if sum(b) > level)
    memo: dict = {}
    newton = {
        alpha: tuple((-1) ** keys[i][0] * _monomial_sum(keys[i][1], alpha, memo, power)
                     for i in dense)
        for alpha in _simplex(n, level)
    }
    rows = _axis_pass(newton, n, level, _falling_to_powers(level, False))
    unit = tuple((i, rows[b]) for i, (_, b) in enumerate(keys) if sum(b) <= level)
    held = {keys[i][1] for i, _ in unit}
    free = tuple(beta for beta in rows if beta not in held)
    return _Reduced(keys, dense, free, tuple(rows[beta] for beta in free), unit)


def _back_substitute(system: _Reduced, numerators: dict, dense, det: int) -> list[int]:
    """Every key's value times det * D, given the interpolant's numerators
    over D and the dense keys' values times det * D: a unit key (j, b) is
    (-1)^j times what its row c_b leaves after the dense columns."""
    solution = [0] * len(system.keys)
    for i, value in zip(system.dense, dense):
        solution[i] = value
    for i, row in system.unit:
        j, b = system.keys[i]
        solution[i] = (-1) ** j * (det * numerators[b] - sum(map(mul, row, dense)))
    return solution


def _echelon(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of ``rows`` and its pivot columns.

    Pivots are sought in the first ``width`` columns, and pivot i ends up
    in row i; columns past ``width`` (a right-hand side) are carried along.
    Bareiss's update divides by the previous pivot, and by Sylvester's
    identity that division is exact, so every entry is a minor of ``rows``.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    previous = 1
    for col in range(width):
        top_at = len(pivots)
        pivot_at = next((r for r in range(top_at, len(work)) if work[r][col]), None)
        if pivot_at is None:
            continue
        work[top_at], work[pivot_at] = work[pivot_at], work[top_at]
        top = work[top_at]
        pivot = top[col]
        for row in work[top_at + 1:]:
            f = row[col]
            row[col:] = [(pivot * a - f * b) // previous for a, b in zip(row[col:], top[col:])]
        previous = pivot
        pivots.append(col)
    return work, pivots


def column_rank(block) -> int:
    """Rank of the columns of a dense block (integer rows, at least one)."""
    return len(_echelon(block, len(block[0]))[1])


def solve_exact(block, rhs) -> tuple[list[int], int]:
    """The pivot rows' solution of block x = rhs, for integer rows and rhs,
    as (numerators, det) with x = numerators / det and det the pivot rows'
    determinant.

    Raises ConsistencyError if the columns are dependent.  The other rows
    are not checked against x; that is the caller's surplus check.  A block
    without columns has the empty solution and det 1.
    """
    width = len(block[0])
    work, pivots = _echelon([[*row, b] for row, b in zip(block, rhs)], width)
    if len(pivots) < width:
        col = next(c for c in range(width) if c not in pivots)
        raise ConsistencyError(f"column rank below {width}: no pivot for column {col}")
    # The last pivot is the determinant det of the pivot rows, so by Cramer's
    # rule det * x is integral: back substitution divides exactly.
    det = work[width - 1][width - 1] if width else 1
    numerators = [0] * width
    for col in range(width - 1, -1, -1):
        row = work[col]
        s = det * row[-1] - sum(row[c] * numerators[c] for c in range(col + 1, width))
        numerators[col] = s // row[col]
    return numerators, det


@lru_cache(maxsize=16, typed=True)
def minimal_grid_bound(g: int, n: int) -> int:
    """Smallest level L whose sample (the ascending points x with x_i >= 1
    and sum(x_i - 1) <= L) both has #unknowns + n points (surplus rows for
    residual checking) and determines every unknown.

    The point count alone can be insufficient: a key of total degree above
    L agrees on the sample with a combination of the lower monomials, and
    those combinations can collide.  The sample determines the unknowns
    exactly when the dense block of the reduced system has full column
    rank; at L = 3g - 3 + n no key is dense, so the loop ends there at the
    latest.  The probe needs no covering counts, so this is cheap; the
    levels of the last 16 (g, n) are kept, as are the systems they rank.
    """
    level = _level_floor(g, n)
    while True:
        system = _reduced_system(g, n, level)
        if column_rank(system.block) == len(system.dense):
            return level
        level += 1


def extract_hodge_integrals(
    g: int,
    n: int,
    *,
    hurwitz=None,
    k_bound: int = engines.DEFAULT_K_BOUND,
    r_bound: int = engines.DEFAULT_R_BOUND,
) -> HodgeTable:
    """Solve for every <psi^b lambda_j> at (g, n) from covering counts.

    One equation per point of the level-L sample with L =
    ``minimal_grid_bound(g, n)``, solved by interpolation and the dense
    block (see the module docstring).  Every surplus row must have zero
    residual (ConsistencyError otherwise, naming a sample profile where
    the solved polynomial misses the count).  ``hurwitz`` is an optional
    callable (g, profile) -> Fraction replacing the default connected
    engine.
    """
    _require_stable(g, n)
    if hurwitz is None:
        # (1, ..., 1) has k = n and r = 2g + 2n - 2; a huge n is refused
        # before that tuple is built
        engines._check_bounds(n, 2 * g + 2 * n - 2, k_bound, r_bound)

        def hurwitz(gg, prof):
            return engines.connected_hurwitz(gg, prof, k_bound=k_bound, r_bound=r_bound)
    # Two sample points are asked for first, so that the engine refuses a
    # table it cannot serve before any work that grows with (g, n):
    # (1, ..., 1), the smallest k and r on every sample, before the keys
    # are counted in O((g + n) n) time, and (L0 + 1, 1, ..., 1) at the
    # level floor L0, the largest k and r on its sample, before the keys
    # are listed ((1, 200) has 7.6e12) or the rank probe runs.
    hurwitz(g, (1,) * n)
    hurwitz(g, (_level_floor(g, n) + 1,) + (1,) * (n - 1))
    level = minimal_grid_bound(g, n)
    system = _reduced_system(g, n, level)
    points = [tuple(y + 1 for y in alpha) for alpha in _simplex(n, level)]
    values = {point: normalized_value(g, point, hurwitz) for point in points}
    numerators, scale = _interpolate(values, n, level)
    rhs = [numerators[beta] for beta in system.free]
    dense, det = solve_exact(system.block, rhs)
    solution = _back_substitute(system, numerators, dense, det)
    denominator = det * scale
    if any(sum(map(mul, row, dense)) != det * b for row, b in zip(system.block, rhs)):
        # Some sample profile must miss, since the reduction is invertible.
        memo: dict = {}
        profile, residual = next(
            (point, r) for point in points
            if (r := Fraction(sum((-1) ** j * x * _monomial_sum(b, point, memo)
                                  for (j, b), x in zip(system.keys, solution)), denominator)
                - values[point])
        )
        raise ConsistencyError(
            f"nonzero residual extracting (g={g}, n={n}) integrals at profile"
            f" {profile}: {residual}"
        )
    table = HodgeTable()
    for (j, b), value in zip(system.keys, solution):
        table.set(g, n, b, j, Fraction(value, denominator))
    table.grid_bound[(g, n)] = level
    table.surplus_rows[(g, n)] = len(points) - len(system.keys)
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
    keys = hodge_keys(g, n)
    missing = [(g, n, b, j) for j, b in keys if (g, n, b, j) not in table.values]
    if missing:
        raise KeyError(f"table is missing {len(missing)} integral(s): {missing}")
    p_value = Fraction(0)
    for j, b in keys:
        sign = (-1) ** j if lambda_signs == "alternating" else 1
        p_value += sign * table.values[(g, n, b, j)] * _monomial_sum(b, profile)
    return prefactor(g, profile) * p_value
