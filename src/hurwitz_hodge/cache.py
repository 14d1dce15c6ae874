"""Append-only result cache.

A cache file starts with one header line naming the schema version,
followed by one record per line as space-separated ``field=value`` tokens,
e.g. ``kind=hurwitz g=0 mu=2,1 engine=frobenius value=4``.  Version
mismatches are rejected, never migrated.
"""

from __future__ import annotations

import os

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


def read_records(path: str) -> list[dict[str, str]]:
    """All records of a cache file as dicts; rejects an unreadable file, a
    bad schema line and a record lacking a field its kind needs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
    if not lines or lines[0] != SCHEMA_LINE:
        found = lines[0] if lines else "<empty>"
        raise CacheError(f"unsupported cache schema: expected {SCHEMA_LINE!r}, found {found!r}")
    records = []
    for num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record: dict[str, str] = {}
        for token in line.split():
            field, eq, value = token.partition("=")
            if not eq:
                raise CacheError(f"malformed cache record on line {num}: {line!r}")
            record[field] = value
        if "kind" not in record or "value" not in record:
            raise CacheError(f"cache record on line {num} lacks kind/value: {line!r}")
        for field in _REQUIRED.get(record["kind"], ()):
            if field not in record:
                raise CacheError(f"{record['kind']} record on line {num} lacks {field}: {line!r}")
        records.append(record)
    return records


def parse_field(path: str, record: dict[str, str], field: str, parse):
    """``parse(record[field])``, read where the value is used; a value that
    ``parse`` rejects raises a CacheError naming the file and the record."""
    try:
        return parse(record[field])
    except (ValueError, ZeroDivisionError) as exc:
        raise CacheError(
            f"bad {field} in cache file {path}, record {_line(record)!r}: {exc}"
        ) from exc


def _line(record: dict[str, str]) -> str:
    order = _FIELD_ORDER.get(record.get("kind"), ())
    fields = [f"{name}={record[name]}" for name in order if name in record]
    fields += [f"{name}={record[name]}" for name in sorted(record) if name not in order]
    return " ".join(fields)


def append_records(path: str, records) -> None:
    """Append records, writing the schema header first on a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(SCHEMA_LINE + "\n")
        for record in records:
            fh.write(_line(record) + "\n")
