"""Cold/warm benchmark of the hurwitz-hodge CLI.  See perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poles --seed 1 --seconds 40 --trace 0

Each iteration starts a fresh interpreter (``worker.py``) that runs the
workload's command list through ``hurwitz_hodge.cli.main`` cold, then warm.
Iterations repeat until ``--seconds`` is spent; every metric is the median
over iterations, and times are scaled to a reference speed (see
worker.py).  Outputs are checked by ``checks.py`` outside the timed
region.  ``--trace 1`` alternates untraced and traced iterations and
reports per-layer metrics instead of the end-to-end ones.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
PACKAGE = os.path.join("src", "hurwitz_hodge", "cli.py")
WARM_MIN_S = 0.1  # warm passes repeat until they add up to this
SETUP_SPAWNS = 2  # import-only interpreters per iteration, besides its own
TIME_LIMIT_S = 170  # a run never outlives this


def spawn(job: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker; its result and its set-up time (start plus import),
    as measured."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", WORKER], input=json.dumps(job),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if os.path.realpath(result["module"]) != os.path.realpath(PACKAGE):
        raise RuntimeError(f"worker imported {result['module']}, not {PACKAGE}")
    return result, result["ready"] - start


def _scaled_layers(spans_file: str, cold_factor: float, warm_factor: float) -> dict[str, float]:
    metrics = spans.phase_metrics(spans.read(spans_file))
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= warm_factor if name.startswith("warm.") else cold_factor
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    started = time.monotonic()
    commands = workloads.build(name, seed, tiny)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    spans_file = os.path.join(workloads.WORK_DIR, f"spans-{name}.jsonl")
    job = {
        "commands": [c["argv"] for c in commands],
        "work_files": workloads.work_files(name),
        "warm_min_s": WARM_MIN_S,
        "spans_file": spans_file,
    }

    def remaining():
        return TIME_LIMIT_S - (time.monotonic() - started)

    # per metric: (scaled samples, measured samples)
    samples = {m: ([], []) for m in ("wall_s", "warm_s", "setup_s", "traced_wall_s")}
    rss, layers = [], []
    attempted, problems = 0, []
    last = 0.0
    while (not samples["wall_s"][0] or (trace and not layers)
           or time.monotonic() + last < started + seconds):
        traced = trace and len(samples["wall_s"][0]) > len(layers)
        begin = time.monotonic()
        for _ in range(SETUP_SPAWNS):
            result, setup = spawn({"commands": []}, remaining())
            samples["setup_s"][0].append(setup * result["setup_scale"])
            samples["setup_s"][1].append(setup)
        result, setup = spawn(dict(job, trace=traced), remaining())
        samples["setup_s"][0].append(setup * result["setup_scale"])
        samples["setup_s"][1].append(setup)
        cold_measured, cold_scaled, cold_out = result["cold"]
        found = checks.check_pass(commands, cold_out)
        for _, _, warm_out in result["warm"]:
            found += checks.check_pass(commands, warm_out, reference=cold_out)
        attempted += len(found)
        problems += [p for p in found if p]
        warm_measured = statistics.median(w for w, _, _ in result["warm"])
        warm_scaled = statistics.median(w for _, w, _ in result["warm"])
        if traced:
            samples["traced_wall_s"][0].append(cold_scaled)
            samples["traced_wall_s"][1].append(cold_measured)
            layers.append(_scaled_layers(spans_file, cold_scaled / cold_measured,
                                         warm_scaled / warm_measured))
        else:
            for metric, pair in (("wall_s", (cold_scaled, cold_measured)),
                                 ("warm_s", (warm_scaled, warm_measured))):
                samples[metric][0].append(pair[0])
                samples[metric][1].append(pair[1])
            rss.append(result["peak_rss_kb"] / 1024)
        last = time.monotonic() - begin
    for path in job["work_files"]:
        if os.path.exists(path):
            os.remove(path)

    def median(metric, which=0):
        return statistics.median(samples[metric][which])

    if trace:
        metrics = {m: (statistics.median(row[m] for row in layers), unit)
                   for m, unit in layer_units().items() if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median("traced_wall_s") - median("wall_s"), "s")
        measured = {"trace.overhead_s": median("traced_wall_s", 1) - median("wall_s", 1)}
    else:
        metrics = {
            "wall_s": (median("wall_s"), "s"),
            "warm_s": (median("warm_s"), "s"),
            "setup_s": (median("setup_s"), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        measured = {m: median(m, 1) for m in ("wall_s", "warm_s", "setup_s")}
    return {
        "workload": name, "seed": seed, "iterations": len(samples["wall_s"][0]) + len(layers),
        "setup_samples": len(samples["setup_s"][0]), "attempted": attempted,
        "problems": problems, "metrics": metrics, "measured": measured,
    }


def layer_units() -> dict[str, str]:
    units = dict(spans.UNITS)
    units.update({f"warm.{m}": u for m, u in spans.UNITS.items()})
    units["trace.overhead_s"] = "s"
    return units


def report(run: dict) -> dict:
    """Print the run's metrics by name, one per line; return the result line."""
    failed = len(run["problems"])
    print(f"# workload={run['workload']} seed={run['seed']} iterations={run['iterations']}"
          f" setup_samples={run['setup_samples']}")
    for name, (value, unit) in run["metrics"].items():
        raw = run["measured"].get(name)
        print(f"{name} {value:.6g} {unit}" + (f" (measured {raw:.6g} {unit})" if raw is not None else ""))
    print(f"failed_frac {failed / run['attempted']:.6g} ratio ({failed}/{run['attempted']} commands)")
    for problem in run["problems"][:10]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold/warm benchmark of the hurwitz-hodge CLI.")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: {PACKAGE} not found; run from the root of a hurwitz-hodge checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
            lines.append(json.dumps(report(run)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
