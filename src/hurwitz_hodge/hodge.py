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
  values' common denominator and by L!/a! per axis.  Which entries each
  sum reads depends only on n, L and the shape of the weights, so it is
  worked out once into a plan of integer positions, and a pass over a kept
  plan only multiplies and adds.
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
residual-checked exactly, and any nonzero residual names the first sample
profile where the stored table, evaluated by hurwitz_from_hodge, misses
the count: an engine or sign error fails loudly instead of giving a wrong
table.

The alternating sign (-1)^j is forced by h_{1;1} = 0: with all-plus signs
the one-pole genus-1 prediction would be 1/6.  ``verify hodge-roundtrip``
shows this by evaluating a copy of the (1, 1) table with its odd-j entries
negated.

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
    covering count to the normalized polynomial P: the inverse of the one
    quotient _normalized(g, profile, 1)."""
    return 1 / _normalized(g, profile, 1)


def degree_LL(g: int, profile, h) -> int:
    """Degree of the Lyashko-Looijenga critical-value map:
    h * #Aut * prod_i k_i.

    Must come out a nonnegative integer whenever h is the true Hurwitz
    number for (g, profile); anything else raises ConsistencyError, since
    it signals a broken engine (or a wrong h supplied by the caller).
    """
    profile = tuple(profile)  # the error names it in input order
    mu = engines._query(g, profile)[0]  # checks the profile, then the genus
    h = _exact(h, "h")  # an int has numerator and denominator too
    scaled = h.numerator * aut_count(mu) * prod(mu)
    degree, rest = divmod(scaled, h.denominator)
    if rest or degree < 0:
        raise ConsistencyError(
            f"deg LL = {Fraction(scaled, h.denominator)} for genus {g}, profile {profile} "
            "is not a nonnegative integer; the supplied Hurwitz number cannot be correct"
        )
    return degree


def _normalized(g: int, profile, h) -> Fraction:
    """h / prefactor(g, profile), the normalized count P that the
    extraction samples, as one quotient h * #Aut * prod_i k_i! / (d! *
    prod_i k_i^{k_i}); the engines' query checks the profile and the genus."""
    h = _exact(h, "a Hurwitz number")  # an int has numerator and denominator too
    mu, _, d = engines._query(g, profile)
    return Fraction(h.numerator * aut_count(mu) * prod(map(factorial, mu)),
                    h.denominator * factorial(d) * prod(k ** k for k in mu))


def hodge_keys(g: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The (j, b) pairs appearing in P at (g, n): lambda index j in [0, g]
    and ascending psi exponents b with sum(b) + j = 3g - 3 + n.  Order is
    deterministic: j ascending, then the nonzero exponents of b in the
    order partitions_of(3g - 3 + n - j, n) lists them."""
    _require_stable(g, n)
    return [(j, b) for j in range(g + 1) for b in _ascending(3 * g - 3 + n - j, n)]


def _ascending(total: int, m: int) -> list[tuple[int, ...]]:
    """The ascending m-tuples of nonnegative integers with sum ``total``
    (m >= 1): the partitions of total into at most m parts, reversed and
    padded with zeros, in the order partitions_of lists them."""
    return [(0,) * (m - len(parts)) + parts[::-1] for parts in partitions_of(total, m)]


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
        """Check and store one value from outside the extraction (a library
        caller, a ``hodge --cache`` hit); the extraction writes ``values``."""
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

    def to_lines(self) -> list[str]:
        """Line-delimited records ``g=.. n=.. b=..,.. j=.. value=num/den``
        in deterministic key order."""
        return [
            f"g={g} n={n} b={','.join(map(str, b))} j={j} value={value}"
            for (g, n, b, j), value in sorted(self.values.items())
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
    if not m:
        return ((),)
    return tuple(sorted(y for total in range(level + 1) for y in _ascending(total, m)))


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
    falling = [[1]]
    for a in range(1, level + 1):  # (x-1)...(x-a) is the previous row times (x - a)
        last = falling[-1]
        falling.append([(last[t - 1] if t else 0) - a * (last[t] if t < a else 0)
                        for t in range(a + 1)])
    return tuple(
        (b, tuple((factorial(level) // factorial(a) if scaled else 1) * falling[a][b]
                  for a in range(b, level + 1)))
        for b in range(level + 1)
    )


@lru_cache(maxsize=32)
def _sweep_plan(n: int, level: int, windows: tuple) -> tuple:
    """The index work of _axis_pass, which depends only on n, L and the
    windows (start, len(w)) of its weights: one (weight, bounds, sources)
    triple of flat integer tuples per axis.  Entry e of an axis's output
    is the sum of weights[weight[e]] times the previous axis's entries at
    the positions sources[bounds[e]:bounds[e + 1]]; the input of the first
    axis and the output of the last are indexed like _simplex(n, L).

    After m axes the partial result is symmetric in its m new indices and
    in its n - m old ones, so it holds one entry per pair of ascending
    tuples (head, tail), never the full tensor.  New index a reads old
    indices at most L minus the rest of the point, all of which the
    simplex holds.
    """
    position = {((), y): i for i, y in enumerate(_simplex(n, level))}
    plan = []
    for m in range(1, n + 1):
        nxt = {}
        weight, bounds, sources = [], [0], []
        for tail in _simplex(n - m, level):
            room = level - sum(tail)
            merged = [tuple(sorted(tail + (y,))) for y in range(room + 1)]
            for head in _simplex(m, room):
                rest, a = head[:-1], head[-1]
                start, width = windows[a]
                stop = min(start + width, room - (sum(head) - a) + 1)
                nxt[head, tail] = len(nxt)
                weight.append(a)
                sources.extend(position[rest, point] for point in merged[start:stop])
                bounds.append(len(sources))
        plan.append((tuple(weight), tuple(bounds), tuple(sources)))
        position = nxt
    return tuple(plan)


def _axis_pass(columns, n: int, level: int, weights) -> list[list[int]]:
    """Apply one triangular per-axis map along each of the n axes in turn,
    to each of ``columns``: lists of integers indexed like _simplex(n,
    level), and so is each result.  weights[a] = (start, w) makes new
    index a the sum of w[i] times old index start + i; the index work is
    _sweep_plan's, so a pass only multiplies and adds."""
    if not columns:
        return []
    plan = _sweep_plan(n, level, tuple((start, len(w)) for start, w in weights))
    ws = [w for _, w in weights]
    result = []
    for column in columns:
        for weight, bounds, sources in plan:
            get = column.__getitem__
            column = [sum(map(mul, ws[a], map(get, sources[lo:hi])))
                      for a, lo, hi in zip(weight, bounds, bounds[1:])]
        result.append(column)
    return result


def interpolate(values: dict, n: int, level: int) -> tuple[dict, int]:
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
    basis = _simplex(n, level)
    column = [values[tuple(y + 1 for y in alpha)] for alpha in basis]
    column = [v.numerator * (scale // v.denominator) for v in column]
    [column] = _axis_pass([column], n, level, _differences(level))
    [column] = _axis_pass([column], n, level, _falling_to_powers(level, True))
    return dict(zip(basis, column)), scale * factorial(level) ** n


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
    basis = _simplex(n, level)
    memo: dict = {}
    newton = [[(-1) ** keys[i][0] * _monomial_sum(keys[i][1], alpha, memo, power)
               for alpha in basis] for i in dense]
    columns = _axis_pass(newton, n, level, _falling_to_powers(level, False))
    rows = {beta: tuple(column[e] for column in columns) for e, beta in enumerate(basis)}
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
    residual (ConsistencyError otherwise, naming the first sample profile
    where the table's forward evaluation misses the count).  ``hurwitz``
    is an optional callable (g, profile) -> Fraction replacing the default
    connected engine.
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
    values = {point: _normalized(g, point, hurwitz(g, point)) for point in points}
    numerators, scale = interpolate(values, n, level)
    rhs = [numerators[beta] for beta in system.free]
    dense, det = solve_exact(system.block, rhs)
    solution = _back_substitute(system, numerators, dense, det)
    table = HodgeTable()
    for (j, b), value in zip(system.keys, solution):
        table.values[(g, n, b, j)] = Fraction(value, det * scale)
    if any(sum(map(mul, row, dense)) != det * b for row, b in zip(system.block, rhs)):
        # Some sample profile must miss, since the reduction is invertible.
        profile, residual = next(
            (point, r) for point in points
            if (r := _normalized(g, point, hurwitz_from_hodge(g, point, table)) - values[point])
        )
        raise ConsistencyError(
            f"nonzero residual extracting (g={g}, n={n}) integrals at profile"
            f" {profile}: {residual}"
        )
    table.grid_bound[(g, n)] = level
    table.surplus_rows[(g, n)] = len(points) - len(system.keys)
    return table


def hurwitz_from_hodge(g: int, profile, table: HodgeTable) -> Fraction:
    """Forward evaluation: prefactor * P(profile) from a table of integrals,
    with the lambda_j term of P signed (-1)^j.  Raises KeyError listing any
    integrals missing from the table.
    """
    profile = check_profile(profile)
    n = len(profile)
    keys = hodge_keys(g, n)
    missing = [(g, n, b, j) for j, b in keys if (g, n, b, j) not in table.values]
    if missing:
        raise KeyError(f"table is missing {len(missing)} integral(s): {missing}")
    p_value = Fraction(0)
    for j, b in keys:
        p_value += (-1) ** j * table.values[(g, n, b, j)] * _monomial_sum(b, profile)
    return prefactor(g, profile) * p_value
