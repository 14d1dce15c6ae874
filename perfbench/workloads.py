"""Command lists for the benchmark workloads.

Each workload is a fixed set of CLI invocations.  The seed only permutes
what the program must treat as unordered: the order of the commands (or of
the batch queries) and the order of the pole orders inside each
``--profile``.  The work done is therefore the same for every seed, so
run-to-run spread measures the machine, not the draw; the seed still
changes every argv list the program receives.

A command is a dict: ``argv`` (the list handed to ``cli.main``) and
``check`` (what the independent checker needs to judge the output).
"""

from __future__ import annotations

import os
import random

# Work files (the batch cache) live here, relative to the checkout root.
WORK_DIR = os.path.join(".bench_build", "perfbench")
BATCH_CACHE = os.path.join(WORK_DIR, "batch-cache.txt")

# (genus, profile): weight 12-14, at least 8 poles of order 1, genus 0-2.
# Inclusion-exclusion over 2^(n-1) labeled pole subsets dominates; the
# profiles share sub-blocks (1^m, 2,1^m, ...) through the memo tables.
POLES = (
    (0, (1,) * 13),
    (1, (2, 2) + (1,) * 8),
    (0, (3,) + (1,) * 10),
    (1, (1,) * 12),
    (0, (2,) + (1,) * 11),
    (2, (2, 2) + (1,) * 8),
)
POLES_TINY = (
    (0, (1,) * 5),
    (1, (2,) + (1,) * 3),
    (2, (1,) * 4),
)
POLES_KMAX = 16

# (genus, points) tables extracted with raised engine bounds, plus the
# one-pole sine-kernel suite through genus 6.
EXTRACT = ((3, 3), (2, 4), (4, 2))
EXTRACT_TINY = ((1, 1), (0, 4), (1, 2))
EXTRACT_GMAX, EXTRACT_GMAX_TINY = 6, 2

# every (g, mu) with |mu| <= BATCH_WEIGHT and g <= BATCH_GENUS
BATCH_WEIGHT, BATCH_WEIGHT_TINY = 10, 3
BATCH_GENUS = 2


def partitions(k: int, largest: int | None = None):
    """Partitions of k as weakly decreasing tuples, largest part first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def _profile_text(rng: random.Random, profile) -> str:
    parts = list(profile)
    rng.shuffle(parts)
    return ",".join(map(str, parts))


def _hurwitz(rng, g, mu, extra, check):
    argv = ["hurwitz", "--genus", str(g), "--profile", _profile_text(rng, mu)] + extra
    return {"argv": argv, "check": dict(check, kind="hurwitz", g=g, mu=sorted(mu, reverse=True))}


def poles(rng: random.Random, tiny: bool = False) -> list[dict]:
    queries = list(POLES_TINY if tiny else POLES)
    rng.shuffle(queries)
    return [_hurwitz(rng, g, mu, ["--kmax", str(POLES_KMAX)], {}) for g, mu in queries]


def extract(rng: random.Random, tiny: bool = False) -> list[dict]:
    commands = [
        {"argv": ["hodge", "--genus", str(g), "--points", str(n), "--kmax", "40", "--rmax", "60"],
         "check": {"kind": "hodge", "g": g, "n": n}}
        for g, n in (EXTRACT_TINY if tiny else EXTRACT)
    ]
    gmax = EXTRACT_GMAX_TINY if tiny else EXTRACT_GMAX
    commands.append({"argv": ["verify", "fp-identity", "--gmax", str(gmax)],
                     "check": {"kind": "fp-identity", "gmax": gmax}})
    rng.shuffle(commands)
    return commands


def batch_queries(tiny: bool = False) -> list[tuple[int, tuple[int, ...]]]:
    weight = BATCH_WEIGHT_TINY if tiny else BATCH_WEIGHT
    return [(g, mu) for k in range(1, weight + 1) for mu in partitions(k)
            for g in range(BATCH_GENUS + 1)]


def batch(rng: random.Random, tiny: bool = False) -> list[dict]:
    """Three passes per query, in order: cut-and-join writing the cache
    (a miss), auto (frobenius cross-checked by brute force), and a cache
    read (a hit)."""
    queries = batch_queries(tiny)
    rng.shuffle(queries)
    passes = (
        ["--engine", "cutjoin", "--cutjoin-kmax", str(BATCH_WEIGHT), "--cache", BATCH_CACHE],
        ["--engine", "auto"],
        ["--cache", BATCH_CACHE],
    )
    commands = []
    for query, (g, mu) in enumerate(queries):
        for number, extra in enumerate(passes):
            commands.append(_hurwitz(rng, g, mu, extra, {"query": query, "pass": number}))
    return commands


WORKLOADS = {"poles": poles, "extract": extract, "batch": batch}


def build(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The command list of one workload; the same seed gives the same list."""
    return WORKLOADS[name](random.Random(seed), tiny)


def work_files(name: str) -> list[str]:
    """Files a pass writes, removed before each pass so every pass starts
    from the same state."""
    return [BATCH_CACHE] if name == "batch" else []
