"""Regenerate ``pool.json``: the genus >= 1 values of the ``poles`` queries.

Each value is computed by the character engine and by cut-and-join, and
is written only if the two agree.  Run from the repository root:

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, "src")

from hurwitz_hodge import cutjoin, engines  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

R_BOUND = 60


def main() -> int:
    pool = {}
    for g, mu in workloads.POLES + workloads.POLES_TINY:
        if g == 0:
            continue
        frobenius = engines.connected_hurwitz(g, mu, k_bound=sum(mu), r_bound=R_BOUND)
        layered = cutjoin.cut_and_join_hurwitz(g, mu, kmax=sum(mu), r_bound=R_BOUND)
        if frobenius != layered:
            print(f"engines disagree on h({g}; {mu}): {frobenius} vs {layered}", file=sys.stderr)
            return 1
        pool[checks.pool_key(g, mu)] = str(frobenius)
    with open(checks.POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pool)} values to {os.path.relpath(checks.POOL_FILE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
