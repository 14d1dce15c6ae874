"""Connected Hurwitz numbers of the sphere with one degenerate branch point.

Normalization, fixed throughout the package: h_{g; k_1..k_n} is 1/k! times
the number of tuples (t_1, ..., t_d) of transpositions of the k = sum k_i
sheets such that

* the product t_d ... t_1 (rightmost factor applied first) has cycle type
  {k_1, ..., k_n},
* the graph on the sheets whose edges are the t_i is connected (equivalent
  to the subgroup generated by the tuple acting transitively), and
* d = k + n + 2g - 2.

This is the unique normalization reproducing the anchor values
h_{0;1,1,1} = 4, h_{0;2,1} = 4 and h_{1;2} = 1/2, and it makes h * k! a
nonnegative integer for every input.  Three independent engines:

* ``brute_force_hurwitz`` counts the tuples exactly by dynamic programming
  over (partial product, connectivity-so-far) states.  The start state
  and the set of transpositions are invariant under relabelling the
  sheets, so the count is the same on every state of an orbit: the
  program steps orbit totals (27 orbits at k = 5, not 501 states), each
  orbit named by the sorted cycle types of its blocks and carried by a
  move table built once from one representative;
* ``connected_hurwitz`` expands the count without the connectivity
  requirement over class-algebra eigenvalues (``_disconnected``)
  and then peels off disconnected pieces by inclusion-exclusion over the
  poles sharing a component with pole 1.  Each class's character row is
  computed once and kept, with z(mu), as pairs (content sum, sum of
  dim * chi) merged by content.  Only the shapes of content sum >= 0
  are computed: conjugating a shape negates its content sum and
  multiplies its character by sgn(mu), which gives the other half.
  Both layers count pole-labeled tuples, #Aut(mu) times the plain tuple
  count, in integers: the power sum over the row, checked divisible by
  z(mu), divided by prod(mu) (disconnected), and k! * #Aut(mu) * h
  (connected).  Each class keeps both counts in rows keyed by r, one
  entry written per r asked for, and its list of splits, built once.
  Poles of equal order give equal terms, so the inclusion-exclusion runs
  over sub-multisets of the other poles, weighted by the number
  prod C(m_v, c_v) of labeled subsets each one stands for; a split reads
  the block's connected row and the rest's disconnected row, and stops
  where the rest has fewer transpositions than it needs.  Only the
  public functions divide into ``Fraction``, by k! * #Aut(mu);
* the cut-and-join layer recursion lives in :mod:`hurwitz_hodge.cutjoin`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import comb, factorial, prod

from .characters import _content_sum, _dimension, character_value
from .errors import ConsistencyError, InfeasibleError
from .partitions import aut_count, check_profile, partitions_of, z_order

DEFAULT_SHEET_BOUND = 5
DEFAULT_WORK_BOUND = 10 ** 8
DEFAULT_K_BOUND = 10
DEFAULT_R_BOUND = 40


def _query(g: int, profile) -> tuple[tuple[int, ...], int, int]:
    """(mu, k, d) of the count h_{g; profile}: the class mu, the profile
    sorted descending; its sheet count k; and d = k + n + 2g - 2.  The
    profile is checked, then the genus, once for every count source."""
    mu = tuple(sorted(check_profile(profile), reverse=True))
    if not isinstance(g, int) or g < 0:
        raise ValueError(f"genus must be a nonnegative integer, got {g!r}")
    k = sum(mu)
    return mu, k, k + len(mu) + 2 * g - 2


# ---------------------------------------------------------------------------
# brute force: exact count of transposition tuples, stepped over the orbits
# of (partial product, connectivity) states under relabelling the sheets


@lru_cache(maxsize=None)
def _orbit_counts(t: int) -> tuple[int, int, int, int]:
    """(p(t), a(t), s(t), c(t)): a(t) orbits of brute force on t sheets, the
    multisets of partitions of total t (OEIS A001970).  The Euler transform
    t x(t) = sum_j w(j) x(t - j) gives p from s(j) = sum of the d | j and a
    from c(j) = sum of d p(d) over the d | j, reading lower terms in order."""
    if t == 0:
        return 1, 1, 0, 0
    below = [_orbit_counts(j) for j in range(t)]
    divisors = [d for d in range(1, t) if t % d == 0]
    s = t + sum(divisors)
    p = (s + sum(below[j][2] * below[t - j][0] for j in range(1, t))) // t
    c = t * p + sum(d * below[d][0] for d in divisors)
    a = (c + sum(below[j][3] * below[t - j][1] for j in range(1, t))) // t
    return p, a, s, c


def _brute_work(k: int, r: int, bound: int | None = None) -> int:
    """Work estimate for r brute-force steps on k sheets, in units of about
    0.1 us (fitted to cold ``_brute_summaries(k, 2k + 4)``, k = 6..12, with
    CPython 3.11 on one Xeon core): 4 per transposition tried on an orbit,
    plus one per 2048 bits of the counts (below C(k,2)^r), and 1000 plus one
    per byte for each step's summary of p(k) counts.  The orbits grow with
    t, so the tries on t <= k sheets are returned once they pass ``bound``.

    The 1000 units a step cap memory, not time: every step's summary is
    kept (72 bytes a step at one sheet, 232 at two, by tracemalloc at
    r = 10^5), so at the default bound of 10^8 one or two sheets stop near
    10^5 steps (23 MB).  Priced at its time (about 12 units at two sheets),
    a step would let some 8 * 10^6 steps pass, roughly 1.9 GB."""
    steps = max(r, 1)
    bits = r * max(comb(k, 2) - 1, 0).bit_length()
    for t in range(1, k + 1):
        partitions, orbits = _orbit_counts(t)[:2]
        tries = steps * orbits * comb(t, 2) * (4 + bits // 2048)
        if bound is not None and tries > bound:
            return tries
    return tries + steps * (1000 + partitions * bits // 8)


def _orbit_moves(key: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, int], ...]:
    """(successor orbit, multiplicity) pairs of one orbit: the orbits that
    the C(k,2) transpositions carry one representative state into, with
    the number of transpositions landing in each.

    A state is a (permutation, connectivity partition) pair; its orbit under
    relabelling the sheets is named by its key, the sorted tuple of the
    cycle types of its blocks.  The representative puts the blocks and
    their cycles on consecutive sheets, each block labelled by its first."""
    perm: list[int] = []
    labels: list[int] = []
    for block in key:
        first = len(perm)
        for length in block:
            start = len(perm)
            perm += [start + (j + 1) % length for j in range(length)]
        labels += [first] * (len(perm) - first)
    k = len(perm)
    moves: dict[tuple, int] = {}
    for a in range(k):
        for b in range(a + 1, k):
            # t o perm, and the blocks of a and b merged; every cycle of the
            # product lies in one block, which collects its length
            newperm = [b if v == a else a if v == b else v for v in perm]
            drop, keep = labels[b], labels[a]
            blocks: dict[int, list[int]] = {}
            seen = [False] * k
            for start in range(k):
                if seen[start]:
                    continue
                length, i = 0, start
                while not seen[i]:
                    seen[i] = True
                    i = newperm[i]
                    length += 1
                label = keep if labels[start] == drop else labels[start]
                blocks.setdefault(label, []).append(length)
            succ = tuple(sorted(tuple(sorted(cycles, reverse=True)) for cycles in blocks.values()))
            moves[succ] = moves.get(succ, 0) + 1
    return tuple(moves.items())


# per sheet count k: summaries[r] maps a cycle type to the number of
# length-r transposition tuples with that product whose edge graph is
# connected; states maps each orbit reached after the last step to the
# number of tuples ending in it, and moves holds each orbit's move table,
# built the first time the orbit is stepped
_BRUTE_STATE: dict[int, dict] = {}
# held while a table is advanced, so that concurrent callers neither step
# the same orbits twice nor append a summary out of turn
_BRUTE_LOCK = threading.Lock()


def _brute_summaries(k: int, r: int) -> list[dict[tuple[int, ...], int]]:
    with _BRUTE_LOCK:
        entry = _BRUTE_STATE.setdefault(
            k, {"states": {((1,),) * k: 1}, "summaries": [], "moves": {}}
        )
        summaries, moves = entry["summaries"], entry["moves"]
        while len(summaries) <= r:
            if summaries:
                nxt: dict = {}
                for key, total in entry["states"].items():
                    if key not in moves:
                        moves[key] = _orbit_moves(key)
                    for succ, times in moves[key]:
                        nxt[succ] = nxt.get(succ, 0) + times * total
                entry["states"] = nxt
            # the connected orbits: one block, named by its cycle type
            summaries.append({key[0]: total for key, total in entry["states"].items() if len(key) == 1})
    return summaries


def brute_force_hurwitz(
    g: int,
    profile,
    *,
    sheet_bound: int = DEFAULT_SHEET_BOUND,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> Fraction:
    """Exact tuple count divided by k!, independent of character theory.

    The count runs over all length-d transposition tuples, grouped by
    (partial product, connectivity partition) so that equivalent prefixes
    are counted once, and those states grouped by their orbit under
    relabelling the sheets, which keeps the count; each step adds
    m * T(O) to T(O') for the m transpositions carrying orbit O into O'.
    Connectivity of the final edge graph (a one-block orbit) is the
    transitivity test for the generated subgroup.  Infeasible inputs
    raise instead of approximating: k above ``sheet_bound``, or orbits
    whose work ``_brute_work(k, d)`` exceeds ``work_bound``.
    """
    mu, k, r = _query(g, profile)
    if k > sheet_bound:
        raise InfeasibleError(f"brute force infeasible: k={k} exceeds sheet bound {sheet_bound}")
    work = _brute_work(k, r, work_bound)
    if work > work_bound:
        try:
            shown = str(work)
        except ValueError:  # more digits than Python converts to a string
            shown = f"of {work.bit_length()} bits"
        raise InfeasibleError(
            f"brute force infeasible: state-space work estimate {shown} exceeds work bound {work_bound}"
        )
    count = _brute_summaries(k, r)[r].get(mu, 0)
    return Fraction(count, factorial(k))


# ---------------------------------------------------------------------------
# class-algebra (Frobenius) engine


@lru_cache(maxsize=None)
def _char_data(k: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(shape, dimension, content sum) for the shapes of k with content sum
    c >= 0; conjugation supplies the rest (see ``_class_row``)."""
    # partitions_of lists valid partitions, so they are not checked again
    contents = ((lam, _content_sum(lam)) for lam in partitions_of(k))
    return tuple((lam, _dimension(lam), c) for lam, c in contents if c >= 0)


@lru_cache(maxsize=None)
def _class_row(mu: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(z(mu), pairs): the pairs are (content sum c, sum of dim lam *
    chi^lam(mu) over the shapes lam with content sum c), zero sums dropped,
    the class's character row with shapes of equal eigenvalue merged.

    Only the shapes with c >= 0 are computed.  Conjugation lam -> lam' keeps
    the dimension, negates the content sum and multiplies the character by
    sgn(mu) = (-1)^(k - len(mu)), so the weight at -c is sgn(mu) times the
    weight at c.  Conjugation maps the shapes with c = 0 onto themselves,
    so their weight is 0 when sgn(mu) = -1."""
    k = sum(mu)
    weights: dict[int, int] = {}
    for lam, dim, content in _char_data(k):
        # through the module attribute, one call per kept shape, so that a
        # wrapper on engines.character_value sees every character computed
        chi = character_value(lam, mu)
        if chi:
            weights[content] = weights.get(content, 0) + dim * chi
    sign = -1 if (k - len(mu)) % 2 else 1
    mirrored = [(-content, sign * weight) for content, weight in weights.items() if content > 0]
    pairs = tuple((content, weight) for content, weight in [*weights.items(), *mirrored] if weight)
    return z_order(mu), pairs


class _ClassCounts:
    """The counts of one class mu, each memoized by r and stored once, with
    its final value: ``disconnected`` (see ``_disconnected``) and
    ``connected`` (see ``_connected``).  ``splits`` lists the (block, rest)
    pairs the inclusion-exclusion runs over, built on the first connected
    count asked for."""

    __slots__ = ("mu", "disconnected", "connected", "splits")

    def __init__(self, mu: tuple[int, ...]):
        self.mu = mu
        self.disconnected: dict[int, int] = {}
        self.connected: dict[int, int] = {}
        self.splits: tuple | None = None


# one record per class (descending mu), shared by every split that names it
_CLASSES: dict[tuple[int, ...], _ClassCounts] = {}


def _class_counts(mu: tuple[int, ...]) -> _ClassCounts:
    counts = _CLASSES.get(mu)
    if counts is None:
        counts = _CLASSES.setdefault(mu, _ClassCounts(mu))
    return counts


def _disconnected(counts: _ClassCounts, r: int) -> int:
    """#Aut(mu) times the number of length-r transposition tuples whose
    product has cycle type mu (cycles labeled by poles): the class row's
    power sum of weight * c^r, checked divisible by z(mu), over prod(mu)."""
    value = counts.disconnected.get(r)
    if value is not None:
        return value
    mu = counts.mu
    k, n = sum(mu), len(mu)
    if (r - (k - n)) % 2:
        # a product of r transpositions has sign (-1)^r, the class has sign
        # (-1)^(k-n); on mismatch the count is identically zero
        value = 0
    else:
        z, pairs = _class_row(mu)
        total = sum(weight * content ** r for content, weight in pairs)
        if total % z:
            raise ConsistencyError(
                f"character sum {total} for class {mu} and r={r} is not divisible by z={z}"
            )
        value = total // prod(mu)
    counts.disconnected[r] = value
    return value


def _check_bounds(k: int, r: int, k_bound: int, r_bound: int) -> None:
    """Refuse k sheets or r transpositions past the character engine's bounds."""
    if k > k_bound:
        raise InfeasibleError(f"character engine infeasible: k={k} exceeds bound {k_bound}")
    if r > r_bound:
        raise InfeasibleError(f"character engine infeasible: r={r} exceeds bound {r_bound}")


def _splits(mu: tuple[int, ...]) -> tuple[tuple[int, _ClassCounts, _ClassCounts, int, int], ...]:
    """(weight, block, rest, least r of the block, least r of the rest) for
    each way the inclusion-exclusion splits off the component of pole 1.

    Every component of a covering carries at least one pole, so the
    pole-labeled disconnected count splits over the proper pole subsets
    sharing a component with pole 1, with a binomial choice of which sheets
    that component covers.  Subsets taking the same number c_v of the m_v
    other poles of each order v (adjacent in the sorted mu) give the same
    (block, rest) pair, so each sub-multiset is listed once with weight
    prod C(m_v, c_v) * C(k, |block|); taking every pole leaves no rest.  A
    class nu needs at least |nu| - len(nu) transpositions, and a connected
    one |nu| + len(nu) - 2."""
    k = sum(mu)
    orders = [(v, len(list(run))) for v, run in groupby(mu[1:])]
    splits = []
    for counts in product(*(range(m + 1) for _, m in orders)):
        weight = 1
        block = [mu[0]]
        rest = []
        for c, (v, m) in zip(counts, orders):
            weight *= comb(m, c)
            block += [v] * c
            rest += [v] * (m - c)
        if not rest:
            continue
        weight *= comb(k, sum(block))
        splits.append((weight, _class_counts(tuple(block)), _class_counts(tuple(rest)),
                       sum(block) + len(block) - 2, sum(rest) - len(rest)))
    return tuple(splits)


def _connected(counts: _ClassCounts, r: int) -> int:
    """k! * #Aut(mu) times the connected Hurwitz number for class mu
    realized with r transpositions, an integer.  r must fit a genus, that
    is r = k + n + 2g - 2 for some g >= 0: connected_hurwitz passes
    the d of _query, and the recursion below steps through such r only.

    The disconnected count minus, over the splits, the terms in which pole
    1's component takes r_block of the r transpositions (a binomial choice
    of slots) and the rest the others.  r_block stops where the rest would
    get fewer transpositions than it needs, whose count is 0."""
    total = _disconnected(counts, r)
    splits = counts.splits
    if splits is None:
        splits = counts.splits = _splits(counts.mu)
    for weight, block, rest, block_low, rest_low in splits:
        block_row, rest_row = block.connected, rest.disconnected
        for r_block in range(block_low, r - rest_low + 1, 2):
            h_block = block_row.get(r_block)
            if h_block is None:
                h_block = _connected(block, r_block)
            if not h_block:
                continue
            h_rest = rest_row.get(r - r_block)
            if h_rest is None:
                h_rest = _disconnected(rest, r - r_block)
            if h_rest:
                total -= weight * comb(r, r_block) * h_block * h_rest
    counts.connected[r] = total
    return total


def connected_hurwitz(
    g: int,
    profile,
    *,
    k_bound: int = DEFAULT_K_BOUND,
    r_bound: int = DEFAULT_R_BOUND,
) -> Fraction:
    """The Hurwitz number h_{g; profile}, by the class-algebra engine plus
    inclusion-exclusion over sub-multisets of poles with binomial weights;
    invariant under reordering the profile."""
    mu, k, r = _query(g, profile)
    _check_bounds(k, r, k_bound, r_bound)
    # a warm call reads two dicts, no dearer than an lru_cache hit
    counts = _CLASSES.get(mu) or _class_counts(mu)
    labeled = counts.connected.get(r)
    if labeled is None:
        labeled = _connected(counts, r)
    return Fraction(labeled, factorial(k) * aut_count(mu))


def genus_zero_closed_form(profile) -> Fraction:
    """d! k^(n-3) prod_i k_i^{k_i}/k_i! / #Aut: the sphere (g = 0) value in
    closed form, valid for every n >= 1, as one integer quotient with the
    power of k on the side that keeps it integral."""
    mu, k, d = _query(0, profile)
    n = len(mu)
    return Fraction(factorial(d) * k ** max(n - 3, 0) * prod(part ** part for part in mu),
                    aut_count(mu) * prod(map(factorial, mu)) * k ** max(3 - n, 0))
