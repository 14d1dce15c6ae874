"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

``Tracer.install`` replaces each public function with a wrapper on the
module attribute through which the program calls it (``engines.character_value``
is what ``engines`` calls, ``hodge.solve_exact`` what ``hodge`` calls, and
so on).  A wrapper records one span: id, parent span id, name, phase
(cold or warm), start, end, whether the call raised, and a size note.  Spans
stay in memory until ``write``; ``restore`` puts every original back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import wraps
from time import perf_counter

ID, PARENT, NAME, PHASE, START, END, RAISED, NOTE = range(8)


def _cells(args, result):
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _length(args, result):
    return len(result)


def _grid_points(args, result):
    return len(result) + sum(result.surplus_rows.values())


def _records_written(args, result):
    return len(args[1])


def targets():
    """(module, attribute, span name, note) for every wrapped call site."""
    from hurwitz_hodge import cli, cutjoin, engines, hodge, series

    return [
        (cli, "main", "cli", None),
        (engines, "connected_hurwitz", "engines.connected", None),
        (engines, "character_value", "characters", None),
        (engines, "brute_force_hurwitz", "engines.brute", None),
        (cutjoin, "cut_and_join_hurwitz", "cutjoin", None),
        (cutjoin, "cut_and_join_layer", "cutjoin.layer", _length),
        (hodge, "column_rank", "linsolve.rank", _cells),
        (hodge, "solve_exact", "linsolve.solve", _cells),
        (hodge, "minimal_grid_bound", "hodge.grid_probe", None),
        (hodge, "extract_hodge_integrals", "hodge.extract", _grid_points),
        (series, "extract_hodge_integrals", "hodge.extract", _grid_points),
        (series, "verify_faber_pandharipande", "series", None),
        (cli.cache_store, "read_records", "cache.read", _length),
        (cli.cache_store, "append_records", "cache.append", _records_written),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "cold"
        self._stack: list[list] = []
        self._originals: list[tuple] = []

    def _wrapper(self, original, name, note):
        spans, stack = self.spans, self._stack

        @wraps(original)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else -1, name, self.phase, 0.0, 0.0, False, 0]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, note in targets():
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, note))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one phase.  Self time is a span's
    duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    for span in spans:
        name, duration = span[NAME], span[END] - span[START]
        calls[name] += 1
        busy[name] += duration
        self_time[name] += duration - child_time[span[ID]]
        raised[name] += span[RAISED]
        notes[name] += span[NOTE]
    brute = calls["engines.brute"]
    return {
        "engines.connected.calls": calls["engines.connected"],
        "engines.connected.self_s": self_time["engines.connected"],
        "characters.calls": calls["characters"],
        "characters.busy_s": busy["characters"],
        "linsolve.rank.calls": calls["linsolve.rank"],
        "linsolve.rank_s": busy["linsolve.rank"],
        "linsolve.solve_s": busy["linsolve.solve"],
        "linsolve.cells": notes["linsolve.rank"] + notes["linsolve.solve"],
        "hodge.grid_probe.self_s": self_time["hodge.grid_probe"],
        "hodge.extract.self_s": self_time["hodge.extract"],
        "hodge.grid_points": notes["hodge.extract"],
        "cutjoin.layers": calls["cutjoin.layer"],
        "cutjoin.busy_s": busy["cutjoin"],
        "cutjoin.monomials": notes["cutjoin.layer"],
        "engines.brute.calls": brute,
        "engines.brute.busy_s": busy["engines.brute"],
        "engines.brute.useful_ratio": (brute - raised["engines.brute"]) / brute if brute else 0.0,
        "cache.read.calls": calls["cache.read"],
        "cache.read_s": busy["cache.read"],
        "cache.records_read": notes["cache.read"],
        "cache.append_s": busy["cache.append"],
        "cache.records_written": notes["cache.append"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_time["cli"],
        "series.busy_s": self_time["series"],
    }


UNITS = {name: "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
         for name in layer_metrics([])}


def phase_metrics(spans) -> dict[str, float]:
    """Cold metrics under their own names, warm ones prefixed ``warm.``."""
    by_phase = defaultdict(list)
    for span in spans:
        by_phase[span[PHASE]].append(span)
    metrics = layer_metrics(by_phase["cold"])
    metrics.update({f"warm.{k}": v for k, v in layer_metrics(by_phase["warm"]).items()})
    return metrics
