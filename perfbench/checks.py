"""Independent checks of the CLI's printed outputs.

Nothing here calls the package: the closed forms are written out again, so
a wrong value cannot pass by agreeing with the code that produced it.

* every Hurwitz value h must make h * #Aut(mu) * prod(mu) a nonnegative
  integer (the Lyashko-Looijenga degree);
* genus-0 values must equal d! k^(n-3) prod k_i^k_i / k_i! / #Aut(mu);
* ``poles`` values of genus >= 1 must equal ``pool.json``, which
  ``make_pool.py`` fills from two engines that had to agree;
* the three ``batch`` passes of one query must print the same value;
* an extracted table must have exactly the keys of its (g, n), and its
  j = g column must match the lambda_g formula
  C(2g-3+n; b) (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!)
  (Faber-Pandharipande), or the genus-0 multinomial for g = 0;
* ``verify fp-identity`` must print one passing line per (g, k);
* a warm pass must print exactly what the cold pass printed.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
FP_K_VALUES = range(1, 6)  # the k values `verify fp-identity` checks


class CheckFailed(Exception):
    pass


def pool_key(g: int, mu) -> str:
    return f"{g};{','.join(map(str, sorted(mu, reverse=True)))}"


@lru_cache(maxsize=1)
def pool() -> dict[str, str]:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _aut(mu) -> int:
    return prod(factorial(c) for c in Counter(mu).values())


def genus_zero(mu) -> Fraction:
    k, n = sum(mu), len(mu)
    value = Fraction(factorial(k + n - 2)) * Fraction(k) ** (n - 3) / _aut(mu)
    for part in mu:
        value *= Fraction(part ** part, factorial(part))
    return value


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def _multinomial(b) -> int:
    return factorial(sum(b)) // prod(factorial(e) for e in b)


def top_lambda(g: int, b) -> Fraction:
    """<psi^b lambda_g> over the moduli space of genus-g curves with
    len(b) points; for g = 0 the pure psi integral (n-3)!/prod b_i!."""
    if g == 0:
        return Fraction(_multinomial(b))
    half = 2 ** (2 * g - 1)
    return _multinomial(b) * (half - 1) * abs(bernoulli(2 * g)) / (half * factorial(2 * g))


def hodge_keys(g: int, n: int) -> set[tuple[int, tuple[int, ...]]]:
    keys = set()
    for j in range(g + 1):
        total = 3 * g - 3 + n - j
        for b in combinations_with_replacement(range(total + 1), n):
            if sum(b) == total:
                keys.add((j, b))
    return keys


def _fields(line: str) -> dict[str, str]:
    fields = {}
    for token in line.split():
        name, eq, value = token.partition("=")
        if not eq:
            raise CheckFailed(f"malformed record {line!r}")
        fields[name] = value
    return fields


def check_hurwitz(spec, out: str) -> Fraction:
    lines = out.splitlines()
    if len(lines) != 1:
        raise CheckFailed(f"expected one value line, got {len(lines)}")
    value = Fraction(lines[0])
    g, mu = spec["g"], spec["mu"]
    degree = value * _aut(mu) * prod(mu)
    if degree.denominator != 1 or degree < 0:
        raise CheckFailed(f"h({g}; {mu}) = {value}: LL degree {degree} is not a nonnegative integer")
    if g == 0:
        expected = genus_zero(mu)
    elif "query" in spec:
        return value  # checked across the batch passes
    else:
        expected = Fraction(pool()[pool_key(g, mu)])
    if value != expected:
        raise CheckFailed(f"h({g}; {mu}) = {value}, expected {expected}")
    return value


def check_hodge(spec, out: str) -> None:
    g, n = spec["g"], spec["n"]
    seen = set()
    for line in out.splitlines():
        fields = _fields(line)
        if (int(fields["g"]), int(fields["n"])) != (g, n):
            raise CheckFailed(f"record {line!r} is not at (g, n) = ({g}, {n})")
        j, b = int(fields["j"]), tuple(int(e) for e in fields["b"].split(","))
        seen.add((j, b))
        if j == g and Fraction(fields["value"]) != top_lambda(g, b):
            raise CheckFailed(f"<psi^{b} lambda_{g}> = {fields['value']}, expected {top_lambda(g, b)}")
    if seen != hodge_keys(g, n):
        raise CheckFailed(f"table keys at ({g}, {n}) differ from the degree grading")


def check_fp_identity(spec, out: str) -> None:
    expected = {f"g={g}/k={k}" for g in range(1, spec["gmax"] + 1) for k in FP_K_VALUES}
    keys = set()
    for line in out.splitlines():
        suite, key, want, got, status = line.split()
        if suite != "fp-identity" or want != got or status != "pass":
            raise CheckFailed(f"failed check {line!r}")
        keys.add(key)
    if keys != expected:
        raise CheckFailed(f"fp-identity checked {sorted(keys)}, expected {sorted(expected)}")


CHECKERS = {"hurwitz": check_hurwitz, "hodge": check_hodge, "fp-identity": check_fp_identity}


def check_pass(commands, outputs, reference=None) -> list[str]:
    """One problem string per command, empty when the command passed.

    ``outputs`` holds (exit code, stdout, stderr) per command; when
    ``reference`` (the cold pass's outputs) is given, stdout must match it.
    """
    problems = []
    values: dict[int, set] = {}
    for i, (command, (code, out, err)) in enumerate(zip(commands, outputs)):
        spec = command["check"]
        problem = ""
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {err.strip()[-200:]}")
            value = CHECKERS[spec["kind"]](spec, out)
            if reference is not None and out != reference[i][1]:
                raise CheckFailed("warm output differs from cold")
            if "query" in spec:
                values.setdefault(spec["query"], set()).add(value)
        except (CheckFailed, ValueError, KeyError, ZeroDivisionError) as exc:
            problem = f"{' '.join(command['argv'])}: {exc}"
        problems.append(problem)
    for i, command in enumerate(commands):
        query = command["check"].get("query")
        if query is not None and not problems[i] and len(values.get(query, ())) > 1:
            problems[i] = f"{' '.join(command['argv'])}: passes disagree: {sorted(map(str, values[query]))}"
    return problems
