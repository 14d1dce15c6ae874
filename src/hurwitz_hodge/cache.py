"""Append-only result cache.

A cache file starts with one header line naming the schema version,
followed by one record per line as space-separated ``field=value`` tokens,
e.g. ``kind=hurwitz g=0 mu=2,1 engine=frobenius value=4``.  Version
mismatches are rejected, never migrated.  A record ends at its line break,
so an append cut short (a killed process, a full disk) leaves a last line
without one; a read of or an append to such a file is a CacheError naming
the file and the line, never a record served or completed.

A read parses only what was appended since the last read of the same
path.  Each path keeps a snapshot: the text parsed so far, the records of
that text and the first record under each key.  When the file's text
starts with the snapshot's text, only the rest is parsed; any other text
(the file shrank, was rewritten or was replaced) is parsed again from the
header.  Snapshots are replaced, never mutated.

A read is one unbuffered binary read of the whole file, decoded as UTF-8
with universal newlines (``\\r\\n`` and a lone ``\\r`` become ``\\n``), which
is the text a text-mode read returns; a file that is not UTF-8 is a
CacheError naming the path.  Every read still reads every byte and checks
it against the snapshot, so a rewrite of the same size is seen.

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
except ImportError:  # no flock (Windows): a read may meet a torn append and reject it
    fcntl = None

SCHEMA_LINE = "schema=hurwitz-hodge-cache/1"

# fields a record of each kind is read by, beyond kind and value; a record
# is written as kind, these fields, engine, value, then any others sorted
_REQUIRED = {
    "hurwitz": ("g", "mu"),
    "hodge": ("g", "n", "b", "j"),
    "degll": ("g", "mu"),
}


class CacheError(ValueError):
    """Unreadable cache file, unsupported schema version or incomplete record."""


class _Snapshot(NamedTuple):
    text: str  # the header and every line parsed, each ending in its line break
    lines: int  # line count of text
    records: list  # the records of text
    first: dict  # key -> first record under that key in records


_SNAPSHOTS: dict[str, _Snapshot] = {}
_SNAPSHOT_LOCK = threading.Lock()
_HEADER_ONLY = _Snapshot(SCHEMA_LINE + "\n", 1, [], {})


def _key(record: dict[str, str]) -> tuple[str, ...]:
    kind = record["kind"]
    return (kind, *(record[field] for field in _REQUIRED.get(kind, ())))


def _index(records, first: dict) -> dict:
    """A copy of ``first`` with the first record under each new key of ``records``."""
    first = dict(first)
    for record in records:
        first.setdefault(_key(record), record)
    return first


def _cut_short(path: str, data: bytes) -> CacheError:
    line = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1  # universal newlines
    return CacheError(f"cache file {path}: line {line} lacks a line break: "
                      "an append was cut short or the file was edited")


def _parse(path: str, lines, start: int) -> list[dict[str, str]]:
    """The records of ``lines``, line ``start`` on, of the cache file ``path``."""
    where = f"cache file {path}: "
    records = []
    for num, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        record: dict[str, str] = {}
        for token in line.split():
            field, eq, value = token.partition("=")
            if not eq:
                raise CacheError(f"{where}malformed cache record on line {num}: {line!r}")
            if field in record:
                raise CacheError(f"{where}malformed cache record on line {num}: "
                                 f"{field} given twice: {line!r}")
            record[field] = value
        if "kind" not in record or "value" not in record:
            raise CacheError(f"{where}cache record on line {num} lacks kind/value: {line!r}")
        for field in _REQUIRED.get(record["kind"], ()):
            if field not in record:
                raise CacheError(f"{where}{record['kind']} record on line {num} lacks {field}: {line!r}")
        records.append(record)
    return records


def _lock(fh, exclusive: bool) -> None:
    """Block until ``fh`` holds a shared or an exclusive flock; closing
    ``fh`` releases it."""
    if fcntl is not None:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def read_records(path: str) -> list[dict[str, str]]:
    """All records of a cache file as dicts; rejects an unreadable file, a
    bad schema line and a record lacking a field its kind needs.  The list
    and its dicts are shared with later reads: do not modify them."""
    try:
        # one unbuffered read of the bytes: cheaper than a text-mode read
        with open(path, "rb", buffering=0) as fh:
            _lock(fh, exclusive=False)
            data = fh.readall()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    if "\r" in text:  # universal newlines, as a text-mode read translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        raise _cut_short(path, data)
    snap = _SNAPSHOTS.get(path)
    if snap is None or not text.startswith(snap.text):
        header = text.partition("\n")[0]
        if header != SCHEMA_LINE:
            raise CacheError(f"cache file {path}: unsupported cache schema: "
                             f"expected {SCHEMA_LINE!r}, found {header!r}")
        snap = _HEADER_ONLY
    if len(text) > len(snap.text):
        lines = text[len(snap.text):-1].split("\n")
        new = _parse(path, lines, snap.lines + 1)
        snap = _Snapshot(text, snap.lines + len(lines), snap.records + new, _index(new, snap.first))
    with _SNAPSHOT_LOCK:
        _SNAPSHOTS[path] = snap
    return snap.records


def find(path: str, records) -> list[dict[str, str] | None]:
    """For each of ``records``, the first record in the cache file at
    ``path`` with the same key, or None; a missing file is an empty cache,
    and one read_records rejects (cut short, say) raises.  A key is a kind
    and the fields that kind is read by, so a command's records find their
    own, with or without ``engine`` and ``value``: ``{"kind": "hurwitz", "g": "1", "mu": "2"}``."""
    if not os.path.exists(path):
        return [None] * len(records)
    # one read through the module global, so a wrapper installed on
    # read_records sees it; the snapshot's index answers for its own list
    found = read_records(path)
    snap = _SNAPSHOTS.get(path, _HEADER_ONLY)
    first = snap.first if snap.records is found else _index(found, {})
    return [first.get(key) for key in map(_key, records)]


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
    kind = record.get("kind")
    order = ("kind", *_REQUIRED[kind], "engine", "value") if kind in _REQUIRED else ()
    fields = [f"{name}={record[name]}" for name in order if name in record]
    fields += [f"{name}={record[name]}" for name in sorted(record) if name not in order]
    return " ".join(fields)


def append_records(path: str, records) -> None:
    """Append records, writing the schema header first on a fresh file; a
    file whose last line lacks a line break, and a path that cannot be
    written, raise CacheError and leave the file as it was."""
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
                if fh.read(1) not in (b"\n", b"\r"):  # a lone \r reads as a line break
                    fh.seek(0)
                    raise _cut_short(path, fh.read())
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc.strerror or exc}") from exc
