"""Cut-and-join layer recursion on polynomials in p_1, p_2, ...

Layer F_r collects every connected covering realized with r transpositions:
the coefficient of the monomial p_mu = prod_i p_{mu_i} in F_r is h_{g;mu}
with the genus read off from r = |mu| + len(mu) + 2g - 2.  F_0 = p_1, the
unique unbranched connected covering.  Appending one transposition either
cuts a cycle in two or joins two cycles inside one component (the linear
operator below), or joins two components, with a binomial split of the
remaining transposition slots between them (the quadratic term):

    F_r = CJ(F_{r-1})
        + 1/2 sum_{i,j>=1} i j p_{i+j}
              sum_{a=0}^{r-1} C(r-1, a) dF_a/dp_i * dF_{r-1-a}/dp_j

    CJ(G) = 1/2 sum_{i,j>=1} [ (i+j) p_i p_j dG/dp_{i+j}
                               + i j p_{i+j} d^2 G / dp_i dp_j ]

The 1/2 prefactors and the binomial convolution are pinned by requiring
the hand-derived layers F_1 = p_2/2, F_2 = p_1^2/2 + p_3 and
F_3 = p_2/2 + 4 p_1 p_2 + 4 p_4.  Monomials of weight above the truncation
bound are dropped, so a layer list is valid only for |mu| <= kmax.

Layers are kept in integers.  Every coefficient of a truncated layer is
h_{g;mu} with |mu| <= kmax, and k! h_{g;mu} counts transposition tuples, so
the layer times kmax! is integral.  Each layer is stored once, as these
numerators over kmax! with its table of first derivatives, both built when
the layer is appended.  ``cut_and_join_layer`` reads the tables of
F_0..F_{r-1} (second derivatives come off the last one) and returns the
numerators of F_r.  A coefficient of dF/dp_i at a monomial of weight w has
a denominator dividing (w+i)!, and (w1+i)! (w2+j)! divides kmax!, so in the
quadratic term the product of two numerators is kmax! times an integer.
The step accumulates 2 F_r kmax!^2 and divides by 2 kmax! once; a
remainder raises ``ConsistencyError``.  ``Fraction`` appears only in the
public read-outs; nothing is rounded.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial

from .engines import DEFAULT_R_BOUND, ramification_count
from .errors import ConsistencyError, InfeasibleError
from .partitions import check_profile

DEFAULT_TRUNCATION = 10

# a polynomial is a dict: monomial (partition tuple, weakly decreasing) -> coefficient
PPoly = dict[tuple[int, ...], Fraction]
# a layer's numerators over kmax!, and its table {i: rows of dF/dp_i}
Numerators = dict[tuple[int, ...], int]
Table = dict[int, list[tuple[int, tuple[int, ...], int]]]


def _first_derivatives(poly: Numerators) -> Table:
    """{i: d poly / d p_i} for every nonzero derivative, built in one pass,
    each as (weight, monomial, coefficient) rows, lightest first."""
    table: Table = {}
    for mono, coeff in poly.items():
        weight = sum(mono)
        for pos, i in enumerate(mono):
            if pos and mono[pos - 1] == i:
                continue  # monomials are weakly decreasing; take each part once
            row = (weight - i, mono[:pos] + mono[pos + 1 :], mono.count(i) * coeff)
            table.setdefault(i, []).append(row)
    for rows in table.values():
        rows.sort()
    return table


def cut_and_join_layer(tables: list[Table], kmax: int = DEFAULT_TRUNCATION) -> Numerators:
    """Numerators over kmax! of the next layer F_r, from the derivative
    tables of the previous layers [F_0, ..., F_{r-1}]."""
    r = len(tables)
    scale = factorial(kmax)
    # ``doubled`` collects 2 F_r scale^2 from the numerators (each carrying
    # one factor of scale): the linear step times scale, plus the join term
    doubled: dict[tuple[int, ...], int] = {}
    last = tables[-1]
    # cut: (1/2) sum over ordered (i, j) of (i+j) p_i p_j dG/dp_{i+j}
    for s, ds in last.items():
        for i in range(1, s // 2 + 1):
            factor = 2 * s if 2 * i != s else s
            for _, mono, coeff in ds:
                key = tuple(sorted(mono + (i, s - i), reverse=True))
                doubled[key] = doubled.get(key, 0) + factor * scale * coeff
    # join within a component: (1/2) sum over ordered (i, j) of
    # i j p_{i+j} d^2 G / dp_i dp_j, the second derivatives taken from the
    # first-derivative table (weight is unchanged, so nothing is truncated)
    for i, di in last.items():
        for _, mono, coeff in di:
            for pos, j in enumerate(mono):
                if j < i:
                    break  # each unordered pair once, as (i, j) with j >= i
                if pos and mono[pos - 1] == j:
                    continue
                factor = 2 * i * j if i != j else i * i
                rest = mono[:pos] + mono[pos + 1 :] + (i + j,)
                key = tuple(sorted(rest, reverse=True))
                doubled[key] = doubled.get(key, 0) + factor * mono.count(j) * scale * coeff
    # join two components: sum over a of C(r-1, a) i j p_{i+j} dF_a/dp_i dF_b/dp_j;
    # the (a, b) and (b, a) terms are equal after swapping i and j
    for a in range((r + 1) // 2):
        b = r - 1 - a
        weight = comb(r - 1, a) * (2 if a != b else 1)
        for i, da in tables[a].items():
            for j, db in tables[b].items():
                budget = kmax - i - j
                if budget < 0:
                    continue
                ij = weight * i * j
                for w1, m1, c1 in da:
                    if w1 > budget:
                        break
                    room = budget - w1
                    head = m1 + (i + j,)
                    scalar = ij * c1
                    for w2, m2, c2 in db:
                        if w2 > room:
                            break
                        key = tuple(sorted(head + m2, reverse=True))
                        doubled[key] = doubled.get(key, 0) + scalar * c2
    out: Numerators = {}
    for mono, total in doubled.items():
        num, rem = divmod(total, 2 * scale)
        if rem:
            raise ConsistencyError(
                f"cut-and-join layer {r}: coefficient of p_{mono} is not a multiple of 1/{scale}"
            )
        if num:
            out[mono] = num
    return out


# per truncation bound kmax: one (numerators, derivative table) pair per layer
_LAYER_CACHE: dict[int, list[tuple[Numerators, Table]]] = {}
# held while a layer list is extended, so that concurrent callers neither
# append the same layer twice nor read a list another thread is growing
_LAYER_LOCK = threading.Lock()


def _layers(kmax: int, r: int) -> list[tuple[Numerators, Table]]:
    if kmax < 1:
        raise ValueError("truncation bound must be at least 1")
    with _LAYER_LOCK:
        layers = _LAYER_CACHE.get(kmax)
        if layers is None:
            first = {(1,): factorial(kmax)}
            layers = _LAYER_CACHE[kmax] = [(first, _first_derivatives(first))]
        while len(layers) <= r:
            # through the module attribute, once per new layer, so that a
            # wrapper on cutjoin.cut_and_join_layer sees every layer built
            layer = cut_and_join_layer([table for _, table in layers], kmax)
            layers.append((layer, _first_derivatives(layer)))
    return layers


def cut_and_join_layers(r: int, kmax: int = DEFAULT_TRUNCATION) -> list[PPoly]:
    """The layers F_0..F_r truncated at weight kmax, as new dicts."""
    if r < 0:
        raise ValueError("layer index must be nonnegative")
    scale = factorial(kmax)
    return [{mono: Fraction(num, scale) for mono, num in layer.items()}
            for layer, _ in _layers(kmax, r)[: r + 1]]


def cut_and_join_hurwitz(
    g: int,
    profile,
    *,
    kmax: int = DEFAULT_TRUNCATION,
    r_bound: int = DEFAULT_R_BOUND,
) -> Fraction:
    """h_{g; profile} read off as the coefficient of p_profile in the layer
    with r = ramification_count(g, profile) transpositions."""
    profile = check_profile(profile)
    k = sum(profile)
    if k > kmax:
        raise InfeasibleError(
            f"cut-and-join infeasible: |mu|={k} exceeds truncation bound kmax={kmax}"
        )
    r = ramification_count(g, profile)
    if r > r_bound:
        raise InfeasibleError(f"cut-and-join infeasible: r={r} exceeds bound {r_bound}")
    mu = tuple(sorted(profile, reverse=True))
    return Fraction(_layers(kmax, r)[r][0].get(mu, 0), factorial(kmax))
