"""One benchmark iteration in a fresh interpreter, so every memo table of
the program starts empty.

Started by ``run.py`` as ``python3 -I perfbench/worker.py`` from the root
of a checkout, with a JSON job on stdin:

    {"commands": [argv, ...], "work_files": [...], "trace": bool,
     "warm_min_s": float, "spans_file": path}

It imports ``hurwitz_hodge.cli`` first and notes the monotonic clock (the
parent's clock, on Linux), so the parent can time interpreter start plus
import.  It then runs the command list once cold and again warm, in the
same process, until the warm passes add up to ``warm_min_s`` (once when
traced).  The last line of stdout is one JSON object with the times, each
command's (exit code, stdout, stderr) and the peak resident set size.  An
empty command list only times the import.

Every time is also reported scaled to a reference speed: on a shared
machine the speed of the same code drifts by up to 1.6x within seconds,
so each stretch of commands is divided by the time of a fixed reference
computation run just before and just after it, in this process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from hurwitz_hodge import cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402


# A probe is the median of PROBES runs of a fixed stdlib computation.
# Commands are timed in segments of at least PROBE_EVERY_S, each scaled by
# REFERENCE_S over the mean of the probes on its two sides.
PROBES = 3
PROBE_EVERY_S = 0.25
REFERENCE_S = 0.003


def _reference() -> None:
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction((-1) ** k, k * k)
    counts = {}
    for i in range(10000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1


def probe() -> float:
    """Seconds a fixed computation (Fraction sums and dict updates, like
    the program's own work) takes right now in this process: a gauge of
    the machine's current speed."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(commands, work_files):
    """One pass over the command list: its time as measured, its time
    scaled to the reference speed, and what each command printed."""
    for path in work_files:
        if os.path.exists(path):
            os.remove(path)
    outputs = []
    measured = scaled = segment = 0.0
    before = probe()
    for i, argv in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        segment += time.perf_counter() - start
        outputs.append((code, out.getvalue(), err.getvalue()))
        if segment >= PROBE_EVERY_S or i == len(commands) - 1:
            after = probe()
            measured += segment
            scaled += segment * REFERENCE_S * 2 / (before + after)
            before, segment = after, 0.0
    return measured, scaled, outputs


def main() -> int:
    job = json.load(sys.stdin)
    result = {"ready": READY, "module": cli.__file__, "setup_scale": REFERENCE_S / probe()}
    commands = job["commands"]
    if commands:
        tracer = spans.Tracer() if job["trace"] else None
        if tracer:
            tracer.install()
        try:
            result["cold"] = run_pass(commands, job["work_files"])
            if tracer:
                tracer.phase = "warm"
            result["warm"] = [run_pass(commands, job["work_files"])]
            while not tracer and sum(w for w, _, _ in result["warm"]) < job["warm_min_s"]:
                result["warm"].append(run_pass(commands, job["work_files"]))
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            tracer.write(job["spans_file"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
