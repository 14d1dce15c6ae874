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
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .engines import DEFAULT_R_BOUND, ramification_count
from .errors import InfeasibleError
from .partitions import check_profile

DEFAULT_TRUNCATION = 10

# a polynomial is a dict: monomial (partition tuple, weakly decreasing) -> coefficient
PPoly = dict[tuple[int, ...], Fraction]


def _add_term(poly: PPoly, mono: tuple[int, ...], coeff: Fraction) -> None:
    if not coeff:
        return
    new = poly.get(mono, 0) + coeff
    if new:
        poly[mono] = new
    else:
        poly.pop(mono, None)


def _derivative(poly: PPoly, i: int) -> PPoly:
    out: PPoly = {}
    for mono, coeff in poly.items():
        m = mono.count(i)
        if m:
            reduced = list(mono)
            reduced.remove(i)
            _add_term(out, tuple(reduced), m * coeff)
    return out


def _mul(f: PPoly, g: PPoly, kmax: int) -> PPoly:
    out: PPoly = {}
    for m1, c1 in f.items():
        w1 = sum(m1)
        for m2, c2 in g.items():
            if w1 + sum(m2) <= kmax:
                _add_term(out, tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
    return out


def _linear_step(poly: PPoly, kmax: int) -> PPoly:
    out: PPoly = {}
    # cut: (1/2) (i+j) p_i p_j d/dp_{i+j}, summed over ordered (i, j)
    for s in range(2, kmax + 1):
        ds = _derivative(poly, s)
        if not ds:
            continue
        for i in range(1, s // 2 + 1):
            j = s - i
            factor = Fraction(s) if i != j else Fraction(s, 2)
            for mono, coeff in ds.items():
                if sum(mono) + s <= kmax:
                    _add_term(out, tuple(sorted(mono + (i, j), reverse=True)), factor * coeff)
    # join within a component: (1/2) i j p_{i+j} d^2/dp_i dp_j
    for i in range(1, kmax):
        di = _derivative(poly, i)
        if not di:
            continue
        for j in range(i, kmax + 1 - i):
            dij = _derivative(di, j)
            if not dij:
                continue
            factor = Fraction(i * j) if i != j else Fraction(i * j, 2)
            for mono, coeff in dij.items():
                if sum(mono) + i + j <= kmax:
                    _add_term(out, tuple(sorted(mono + (i + j,), reverse=True)), factor * coeff)
    return out


def cut_and_join_layer(layers: list[PPoly], kmax: int = DEFAULT_TRUNCATION) -> PPoly:
    """Next layer F_r from the previous layers [F_0, ..., F_{r-1}]."""
    if not layers:
        return {(1,): Fraction(1)}
    r = len(layers)
    out = _linear_step(layers[-1], kmax)
    half = Fraction(1, 2)
    for a in range(r):
        fa, fb = layers[a], layers[r - 1 - a]
        weight = half * comb(r - 1, a)
        for i in range(1, kmax):
            da = _derivative(fa, i)
            if not da:
                continue
            for j in range(1, kmax + 1 - i):
                db = _derivative(fb, j)
                if not db:
                    continue
                prod = _mul(da, db, kmax - i - j)
                scalar = weight * i * j
                for mono, coeff in prod.items():
                    _add_term(out, tuple(sorted(mono + (i + j,), reverse=True)), scalar * coeff)
    return out


_LAYER_CACHE: dict[int, list[PPoly]] = {}
# held while a layer list is extended, so that concurrent callers neither
# append the same layer twice nor read a list another thread is growing
_LAYER_LOCK = threading.Lock()


def _layers(kmax: int, r: int) -> list[PPoly]:
    if kmax < 1:
        raise ValueError("truncation bound must be at least 1")
    with _LAYER_LOCK:
        layers = _LAYER_CACHE.setdefault(kmax, [{(1,): Fraction(1)}])
        while len(layers) <= r:
            layers.append(cut_and_join_layer(layers, kmax))
    return layers


def cut_and_join_layers(r: int, kmax: int = DEFAULT_TRUNCATION) -> list[PPoly]:
    """Copies of the layers F_0..F_r truncated at weight kmax."""
    if r < 0:
        raise ValueError("layer index must be nonnegative")
    return [dict(layer) for layer in _layers(kmax, r)[: r + 1]]


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
    return Fraction(_layers(kmax, r)[r].get(mu, 0))
