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
  over (partial product, connectivity-so-far) states;
* ``connected_hurwitz`` expands the count without the connectivity
  requirement over class-algebra eigenvalues (``frobenius_disconnected``)
  and then peels off disconnected pieces by inclusion-exclusion over the
  poles sharing a component with pole 1.  Poles of equal order give equal
  terms, so the sum runs over sub-multisets of the other poles, weighted
  by the number prod C(m_v, c_v) of labeled subsets each one stands for;
* the cut-and-join layer recursion lives in :mod:`hurwitz_hodge.cutjoin`.
"""

from __future__ import annotations

import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .characters import character_value, content_eigenvalue, irrep_dimension
from .errors import InfeasibleError
from .partitions import aut_count, check_profile, partitions_of, z_order

DEFAULT_SHEET_BOUND = 5
DEFAULT_WORK_BOUND = 10 ** 8
DEFAULT_K_BOUND = 10
DEFAULT_R_BOUND = 40


def ramification_count(g: int, profile) -> int:
    """Number d = k + n + 2g - 2 of simple branch points of a genus-g
    covering with the given pole orders."""
    profile = check_profile(profile)
    if not isinstance(g, int) or g < 0:
        raise ValueError(f"genus must be a nonnegative integer, got {g!r}")
    d = sum(profile) + len(profile) + 2 * g - 2
    if d < 0:
        raise ValueError(f"negative branch-point count for genus {g} and profile {profile}")
    return d


# ---------------------------------------------------------------------------
# brute force: exact state-space count of transposition tuples


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _merge_labels(labels: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    # each block is labelled by its least sheet, so merging keeps the
    # smaller label and the labelling stays canonical
    la, lb = labels[a], labels[b]
    if la == lb:
        return labels
    keep, drop = (la, lb) if la < lb else (lb, la)
    return tuple(keep if lab == drop else lab for lab in labels)


# per sheet count k: summaries[r] maps a cycle type to the number of
# length-r transposition tuples with that product whose edge graph is
# connected; states carry the evolving (product, connectivity) pairs
_BRUTE_STATE: dict[int, dict] = {}
# held while a state table is advanced, so that concurrent callers neither
# step the same states twice nor append a summary out of turn
_BRUTE_LOCK = threading.Lock()


def _brute_summaries(k: int, r: int) -> list[dict[tuple[int, ...], int]]:
    transpositions = [(a, b) for a in range(k) for b in range(a + 1, k)]
    with _BRUTE_LOCK:
        entry = _BRUTE_STATE.setdefault(
            k, {"states": {(tuple(range(k)), tuple(range(k))): 1}, "summaries": []}
        )
        summaries = entry["summaries"]
        while len(summaries) <= r:
            if summaries:
                nxt: dict = {}
                for (perm, labels), cnt in entry["states"].items():
                    for a, b in transpositions:
                        newperm = tuple(b if v == a else a if v == b else v for v in perm)
                        key = (newperm, _merge_labels(labels, a, b))
                        nxt[key] = nxt.get(key, 0) + cnt
                entry["states"] = nxt
            summary: dict[tuple[int, ...], int] = {}
            for (perm, labels), cnt in entry["states"].items():
                if all(lab == 0 for lab in labels):
                    ct = _cycle_type(perm)
                    summary[ct] = summary.get(ct, 0) + cnt
            summaries.append(summary)
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
    are counted once; connectivity of the final edge graph is the orbit
    (transitivity) test for the generated subgroup.  Infeasible inputs
    raise instead of approximating: k above ``sheet_bound``, or a state
    space worse than ``work_bound`` (measured as k! * Bell(k) * C(k,2) * d).
    """
    profile = check_profile(profile)
    r = ramification_count(g, profile)
    k = sum(profile)
    if k > sheet_bound:
        raise InfeasibleError(f"brute force infeasible: k={k} exceeds sheet bound {sheet_bound}")
    work = factorial(k) * _bell(k) * (k * (k - 1) // 2) * max(r, 1)
    if work > work_bound:
        raise InfeasibleError(
            f"brute force infeasible: state-space work estimate {work} exceeds work bound {work_bound}"
        )
    mu = tuple(sorted(profile, reverse=True))
    count = _brute_summaries(k, r)[r].get(mu, 0)
    return Fraction(count, factorial(k))


# ---------------------------------------------------------------------------
# class-algebra (Frobenius) engine


@lru_cache(maxsize=None)
def _char_data(k: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    return tuple((lam, irrep_dimension(lam), content_eigenvalue(lam)) for lam in partitions_of(k))


@lru_cache(maxsize=None)
def _disconnected(mu: tuple[int, ...], r: int) -> Fraction:
    k, n = sum(mu), len(mu)
    if (r - (k - n)) % 2:
        # a product of r transpositions has sign (-1)^r, the class has sign
        # (-1)^(k-n); on mismatch the count is identically zero
        return Fraction(0)
    total = 0
    for lam, dim, content in _char_data(k):
        chi = character_value(lam, mu)
        if chi:
            total += dim * chi * content ** r
    return Fraction(total, z_order(mu) * factorial(k))


def frobenius_disconnected(
    mu,
    r: int,
    *,
    k_bound: int = DEFAULT_K_BOUND,
    r_bound: int = DEFAULT_R_BOUND,
) -> Fraction:
    """1/k! times the number of length-r transposition tuples whose product
    has cycle type mu, with no connectivity requirement:

        (1/z(mu)) sum over shapes lam of k
            (dim lam / k!) * chi^lam(mu) * (content sum of lam)^r
    """
    mu = tuple(sorted(check_profile(mu), reverse=True))
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"transposition count must be a nonnegative integer, got {r!r}")
    k = sum(mu)
    if k > k_bound:
        raise InfeasibleError(f"character engine infeasible: k={k} exceeds bound {k_bound}")
    if r > r_bound:
        raise InfeasibleError(f"character engine infeasible: r={r} exceeds bound {r_bound}")
    return _disconnected(mu, r)


@lru_cache(maxsize=None)
def _labeled_connected(mu: tuple[int, ...], r: int) -> Fraction:
    """#Aut(mu) times the connected Hurwitz number for class mu realized
    with r transpositions; zero when r fits no genus."""
    k, n = sum(mu), len(mu)
    twice_genus = r - k - n + 2
    if twice_genus < 0 or twice_genus % 2:
        return Fraction(0)
    total = aut_count(mu) * _disconnected(mu, r)
    # Every component of a covering carries at least one pole, so the
    # disconnected count splits over the proper pole subsets sharing a
    # component with pole 1, with a binomial choice of which transposition
    # slots act on that component.  Solve for the connected term.  Subsets
    # taking the same number c_v of the m_v other poles of each order v give
    # the same (block, rest) pair, so each sub-multiset is visited once with
    # weight prod C(m_v, c_v); taking every pole leaves no rest and is skipped.
    orders = sorted(Counter(mu[1:]).items(), reverse=True)
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
        block_mu = tuple(block)
        rest_mu = tuple(rest)
        rest_aut = aut_count(rest_mu)
        for r_block in range(sum(block_mu) + len(block_mu) - 2, r + 1, 2):
            h_block = _labeled_connected(block_mu, r_block)
            if not h_block:
                continue
            h_rest = _disconnected(rest_mu, r - r_block)
            if h_rest:
                total -= weight * comb(r, r_block) * h_block * rest_aut * h_rest
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
    profile = check_profile(profile)
    r = ramification_count(g, profile)
    k = sum(profile)
    if k > k_bound:
        raise InfeasibleError(f"character engine infeasible: k={k} exceeds bound {k_bound}")
    if r > r_bound:
        raise InfeasibleError(f"character engine infeasible: r={r} exceeds bound {r_bound}")
    mu = tuple(sorted(profile, reverse=True))
    return _labeled_connected(mu, r) / aut_count(mu)


def genus_zero_closed_form(profile) -> Fraction:
    """d! k^(n-3) prod_i k_i^{k_i}/k_i! / #Aut: the sphere (g = 0) value in
    closed form, valid for every n >= 1."""
    profile = check_profile(profile)
    k, n = sum(profile), len(profile)
    d = k + n - 2
    value = Fraction(factorial(d)) * Fraction(k) ** (n - 3) / aut_count(profile)
    for part in profile:
        value *= Fraction(part ** part, factorial(part))
    return value
