"""Append-only result cache.

A cache file starts with one header line naming the schema version,
followed by one record per line as space-separated ``field=value`` tokens,
e.g. ``kind=hurwitz g=0 mu=2,1 engine=frobenius value=4``.  Version
mismatches are rejected, never migrated.

A read parses only what was appended since the last read of the same
path.  Each path keeps a snapshot: the text parsed so far, up to its last
line break, the records of that text and the first record under each key.
When the file's text starts with the snapshot's text, only the rest is
parsed; any other text (the file shrank, was rewritten or was replaced) is
parsed again from the header.  A last line without a line break is parsed
on every read and never kept.  Snapshots are replaced, never mutated.

Where ``fcntl`` exists, a read holds a shared ``flock`` on the file while it
reads, and an append holds an exclusive one from its size probe to the end
of its write, so a reader never sees part of a record being appended by
this package, from any thread or process.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

try:
    import fcntl
except ImportError:  # no flock (Windows): reads may see a torn append
    fcntl = None

SCHEMA_LINE = "schema=hurwitz-hodge-cache/1"

_FIELD_ORDER = {
    "hurwitz": ("kind", "g", "mu", "engine", "value"),
    "hodge": ("kind", "g", "n", "b", "j", "engine", "value"),
    "degll": ("kind", "g", "mu", "engine", "value"),
}

# fields a record of each kind is read by, beyond kind and value
_REQUIRED = {
    "hurwitz": ("g", "mu"),
    "hodge": ("g", "n", "b", "j"),
    "degll": ("g", "mu"),
}


class CacheError(ValueError):
    """Unreadable cache file, unsupported schema version or incomplete record."""


class _Snapshot(NamedTuple):
    text: str  # the header and every line parsed, up to the last line break
    lines: int  # line count of text
    records: list  # the records of text
    first: dict  # key -> first record under that key in records


_SNAPSHOTS: dict[str, _Snapshot] = {}
_SNAPSHOT_LOCK = threading.Lock()
_HEADER_ONLY = _Snapshot(SCHEMA_LINE + "\n", 1, [], {})


def _key(record: dict[str, str]) -> tuple[str, ...]:
    kind = record["kind"]
    return (kind, *(record[field] for field in _REQUIRED.get(kind, ())))


def _parse(lines, start: int) -> list[dict[str, str]]:
    """The records of ``lines``, the first of which is line ``start``."""
    records = []
    for num, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        record: dict[str, str] = {}
        for token in line.split():
            field, eq, value = token.partition("=")
            if not eq:
                raise CacheError(f"malformed cache record on line {num}: {line!r}")
            if field in record:
                raise CacheError(f"malformed cache record on line {num}: {field} given twice: {line!r}")
            record[field] = value
        if "kind" not in record or "value" not in record:
            raise CacheError(f"cache record on line {num} lacks kind/value: {line!r}")
        for field in _REQUIRED.get(record["kind"], ()):
            if field not in record:
                raise CacheError(f"{record['kind']} record on line {num} lacks {field}: {line!r}")
        records.append(record)
    return records


def _lock(fh, exclusive: bool) -> None:
    """Block until ``fh`` holds a shared or an exclusive flock; closing
    ``fh`` releases it."""
    if fcntl is not None:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def read_records(path: str) -> list[dict[str, str]]:
    """All records of a cache file as dicts; rejects an unreadable file, a
    bad schema line and a record lacking a field its kind needs.  The dicts
    are shared with later reads of the same path: do not modify them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _lock(fh, exclusive=False)
            text = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
    snap = _SNAPSHOTS.get(path)
    if snap is None or not text.startswith(snap.text):
        header = text.partition("\n")[0]
        if header != SCHEMA_LINE:
            found = header if text else "<empty>"
            raise CacheError(f"unsupported cache schema: expected {SCHEMA_LINE!r}, found {found!r}")
        if text == SCHEMA_LINE:
            return []
        snap = _HEADER_ONLY
    end = text.rfind("\n") + 1
    if end > len(snap.text):
        lines = text[len(snap.text):end - 1].split("\n")
        new = _parse(lines, snap.lines + 1)
        first = dict(snap.first)
        for record in new:
            first.setdefault(_key(record), record)
        snap = _Snapshot(text[:end], snap.lines + len(lines), snap.records + new, first)
    with _SNAPSHOT_LOCK:
        _SNAPSHOTS[path] = snap
    if end < len(text):
        return snap.records + _parse([text[end:]], snap.lines + 1)
    return list(snap.records)


def find(path: str, keys) -> list[dict[str, str] | None]:
    """For each key, the first record under it in the cache file at
    ``path``, or None; a missing file is an empty cache.  A key is a kind
    followed by the fields that kind is read by, as written in the file:
    ``("hurwitz", g, mu)``, ``("degll", g, mu)`` or ``("hodge", g, n, b, j)``,
    e.g. ``("hurwitz", "1", "2")``."""
    if not os.path.exists(path):
        return [None] * len(keys)
    # one read through the module global, so a wrapper installed on
    # read_records sees it
    records = read_records(path)
    snap = _SNAPSHOTS.get(path)
    first: dict = {}
    # the snapshot's index holds only if its records begin this read (list
    # == compares identical dicts by identity, so the check is cheap)
    if snap is not None and records[:len(snap.records)] == snap.records:
        first, records = snap.first, records[len(snap.records):]
    rest: dict = {}
    for record in records:
        rest.setdefault(_key(record), record)
    return [first[key] if key in first else rest.get(key) for key in keys]


def parse_field(path: str, record: dict[str, str], field: str, parse):
    """``parse(record[field])``, read where the value is used; a value that
    ``parse`` rejects raises a CacheError naming the file and the record."""
    try:
        return parse(record[field])
    except (ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"bad {field} in {describe(path, record)}: {exc}") from exc


def describe(path: str, record: dict[str, str]) -> str:
    """``cache file PATH, record 'LINE'``: where an error message points."""
    return f"cache file {path}, record {_line(record)!r}"


def _line(record: dict[str, str]) -> str:
    order = _FIELD_ORDER.get(record.get("kind"), ())
    fields = [f"{name}={record[name]}" for name in order if name in record]
    fields += [f"{name}={record[name]}" for name in sorted(record) if name not in order]
    return " ".join(fields)


def append_records(path: str, records) -> None:
    """Append records, writing the schema header first on a fresh file and
    a line break first after a last line that lacks one; a path that
    cannot be written raises CacheError."""
    text = "".join(_line(record) + "\n" for record in records)
    try:
        with open(path, "a+b") as fh:
            # held until close, which flushes the write first
            _lock(fh, exclusive=True)
            size = fh.seek(0, os.SEEK_END)
            if size == 0:
                text = SCHEMA_LINE + "\n" + text
            else:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    text = "\n" + text
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc.strerror or exc}") from exc
