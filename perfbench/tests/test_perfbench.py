"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from conftest import BENCH_DIR, REPO_ROOT

import checks
import spans
import workloads

from hurwitz_hodge import engines, hodge

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload, trace, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def worker(tmp_path, monkeypatch):
    """The worker module, with the checkout root (and so the batch cache)
    in a temporary directory."""
    monkeypatch.chdir(tmp_path)
    os.makedirs(workloads.WORK_DIR)
    import worker as module
    return module


# ---------------------------------------------------------------------------
# workloads


def _work(commands):
    """What the commands compute, independent of order."""
    return sorted(json.dumps(dict(c["check"], query=None), sort_keys=True) for c in commands)


def test_seed_permutes_order_only():
    for name in workloads.WORKLOADS:
        first, again, other = (workloads.build(name, seed) for seed in (5, 5, 6))
        assert first == again
        assert [c["argv"] for c in first] != [c["argv"] for c in other]
        assert _work(first) == _work(other)


def test_batch_covers_every_small_query():
    queries = workloads.batch_queries()
    assert len(queries) == len(set(queries)) == 414
    assert len(workloads.build("batch", 0)) == 3 * 414


# ---------------------------------------------------------------------------
# checker


def test_top_lambda_matches_hand_values():
    assert checks.top_lambda(2, (0, 3)) == Fraction(7, 5760)
    assert checks.top_lambda(2, (1, 2)) == Fraction(7, 1920)
    assert checks.top_lambda(0, (0, 0, 1)) == 1


def test_closed_forms_and_keys_agree_with_package():
    for k in range(1, 7):
        for mu in workloads.partitions(k):
            assert checks.genus_zero(mu) == engines.genus_zero_closed_form(mu)
    for g, n in product(range(4), range(1, 5)):
        if hodge.is_stable(g, n):
            assert checks.hodge_keys(g, n) == set(hodge.hodge_keys(g, n))


def test_extracted_top_lambda_column_checked():
    table = hodge.extract_hodge_integrals(2, 2, k_bound=40, r_bound=60)
    out = "\n".join(table.to_lines()) + "\n"
    spec = {"kind": "hodge", "g": 2, "n": 2}
    checks.check_hodge(spec, out)
    tampered = out.replace("b=0,3 j=2 value=7/5760", "b=0,3 j=2 value=7/5761")
    assert tampered != out
    with pytest.raises(checks.CheckFailed):
        checks.check_hodge(spec, tampered)
    with pytest.raises(checks.CheckFailed):
        checks.check_hodge(spec, out.split("\n", 1)[1])


def test_fp_identity_requires_every_pass():
    lines = [f"fp-identity g={g}/k={k} 1 1 pass" for g in (1, 2) for k in range(1, 6)]
    checks.check_fp_identity({"gmax": 2}, "\n".join(lines))
    with pytest.raises(checks.CheckFailed):
        checks.check_fp_identity({"gmax": 2}, "\n".join(lines[:-1] + [lines[-1][:-4] + "fail"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_fp_identity({"gmax": 2}, "\n".join(lines[:-1]))


def test_tampered_cache_hit_counts_as_failed(worker):
    commands = [c for c in workloads.build("batch", 0, tiny=True)
                if c["check"]["g"] == 0 and c["check"]["mu"] == [1, 1, 1]]
    assert [c["check"]["pass"] for c in commands] == [0, 1, 2]
    *_, written = worker.run_pass([commands[0]["argv"]], workloads.work_files("batch"))
    assert checks.check_pass(commands, written + [(0, "4\n", "")] * 2) == ["", "", ""]
    with open(workloads.BATCH_CACHE, encoding="utf-8") as fh:
        text = fh.read()
    assert "value=4" in text
    with open(workloads.BATCH_CACHE, "w", encoding="utf-8") as fh:
        fh.write(text.replace("value=4", "value=5"))
    *_, rest = worker.run_pass([c["argv"] for c in commands[1:]], [])
    assert [out for _, out, _ in rest] == ["4\n", "5\n"]
    problems = checks.check_pass(commands, written + rest)
    assert problems[0] == problems[1] == ""
    assert "expected 4" in problems[2]


def test_passes_must_agree():
    commands = [c for c in workloads.build("batch", 0, tiny=True)
                if c["check"]["g"] == 1 and c["check"]["mu"] == [2]]
    outputs = [(0, "1/2\n", ""), (0, "1/2\n", ""), (0, "3/2\n", "")]
    assert all(checks.check_pass(commands, outputs))
    assert not any(checks.check_pass(commands, outputs[:2] * 2))


def test_warm_output_must_match_cold():
    commands = workloads.build("poles", 0, tiny=True)
    cold = [(0, f"{checks.genus_zero(c['check']['mu'])}\n", "") if c["check"]["g"] == 0 else
            (0, checks.pool()[checks.pool_key(c["check"]["g"], c["check"]["mu"])] + "\n", "")
            for c in commands]
    assert not any(checks.check_pass(commands, cold))
    warm = [(0, out + "\n", err) for _, out, err in cold]
    assert all(checks.check_pass(commands, warm, reference=cold))


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_keep_output_and_restore(worker):
    commands = [c["argv"] for name in workloads.WORKLOADS
                for c in workloads.build(name, 1, tiny=True)]
    files = workloads.work_files("batch")
    originals = [getattr(module, attr) for module, attr, _, _ in spans.targets()]
    *_, plain = worker.run_pass(commands, files)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original for (module, attr, _, _), original
                   in zip(spans.targets(), originals))
        *_, traced = worker.run_pass(commands, files)
    finally:
        tracer.restore()
    assert traced == plain
    assert [getattr(module, attr) for module, attr, _, _ in spans.targets()] == originals
    assert sum(1 for span in tracer.spans if span[spans.NAME] == "cli") == len(commands)


def test_self_time_subtracts_children():
    rows = [
        [0, -1, "cli", "cold", 0.0, 10.0, False, 0],
        [1, 0, "engines.connected", "cold", 1.0, 9.0, False, 0],
        [2, 1, "characters", "cold", 2.0, 3.0, False, 0],
        [3, 1, "characters", "cold", 4.0, 6.0, False, 0],
        [4, 0, "engines.brute", "cold", 9.0, 9.5, True, 0],
        [5, -1, "cli", "warm", 0.0, 1.0, False, 0],
    ]
    metrics = spans.phase_metrics(rows)
    assert metrics["cli.self_s"] == 1.5
    assert metrics["engines.connected.self_s"] == 5.0
    assert metrics["characters.calls"] == 2 and metrics["characters.busy_s"] == 3.0
    assert metrics["engines.brute.useful_ratio"] == 0.0
    assert metrics["warm.cli.calls"] == 1 and metrics["warm.cli.self_s"] == 1.0


# ---------------------------------------------------------------------------
# end to end, through run.py


def _metric_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


LAYER_WORK = {
    "poles": ("engines.connected.calls", "characters.calls"),
    "extract": ("linsolve.rank.calls", "linsolve.cells", "hodge.grid_points", "series.busy_s",
                "characters.calls"),
    "batch": ("cutjoin.layers", "cutjoin.monomials", "engines.brute.calls", "cache.read.calls",
              "cache.records_read", "cache.records_written"),
}


@pytest.mark.parametrize("workload", sorted(LAYER_WORK))
def test_traced_metrics(workload):
    result = result_of(run_bench(workload, 1))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metric_units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in LAYER_WORK[workload]:
        assert metrics[name] > 0, name
    assert metrics["cli.calls"] == metrics["warm.cli.calls"] == len(workloads.build(workload, 3, True))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("poles", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
