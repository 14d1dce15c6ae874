import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from hurwitz_hodge import cache
from hurwitz_hodge.cache import SCHEMA_LINE, CacheError, append_records, find, read_records


def test_round_trip(tmp_path):
    path = str(tmp_path / "cache.txt")
    records = [
        {"kind": "hurwitz", "g": "0", "mu": "2,1", "engine": "frobenius", "value": "4"},
        {"kind": "hodge", "g": "1", "n": "1", "b": "1", "j": "0", "engine": "extraction", "value": "1/24"},
    ]
    append_records(path, records)
    assert read_records(path) == records
    append_records(path, [{"kind": "degll", "g": "1", "mu": "2", "engine": "frobenius", "value": "1"}])
    again = read_records(path)
    assert len(again) == 3 and again[:2] == records


def test_header_written_once(tmp_path):
    path = str(tmp_path / "cache.txt")
    append_records(path, [{"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}])
    append_records(path, [{"kind": "hurwitz", "g": "1", "mu": "3", "engine": "brute", "value": "4"}])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert sum(line.startswith("schema=") for line in lines) == 1


def test_deterministic_field_order(tmp_path):
    path = str(tmp_path / "cache.txt")
    append_records(path, [{"value": "4", "mu": "2,1", "kind": "hurwitz", "engine": "brute", "g": "0"}])
    assert Path(path).read_text().splitlines()[1] == "kind=hurwitz g=0 mu=2,1 engine=brute value=4"


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("schema=hurwitz-hodge-cache/2\nkind=hurwitz g=0 mu=3 value=1\n")
    with pytest.raises(CacheError, match="schema"):
        read_records(str(path))


def test_malformed_record_rejected(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(SCHEMA_LINE + "\nnot a record\n")
    with pytest.raises(CacheError, match="malformed"):
        read_records(str(path))
    path.write_text(SCHEMA_LINE + "\ng=0 mu=3\n")
    with pytest.raises(CacheError, match="kind/value"):
        read_records(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("")
    with pytest.raises(CacheError):
        read_records(str(path))


def test_unreadable_path_rejected(tmp_path):
    with pytest.raises(CacheError, match="cannot read cache file") as info:
        read_records(str(tmp_path))
    assert str(tmp_path) in str(info.value)


@pytest.mark.parametrize(
    "record, missing",
    [
        ("kind=hurwitz value=1", "g"),
        ("kind=hurwitz g=0 value=1", "mu"),
        ("kind=degll g=1 engine=frobenius value=1", "mu"),
        ("kind=hodge g=1 n=1 b=1 value=1/24", "j"),
    ],
)
def test_record_lacking_field_rejected(tmp_path, record, missing):
    path = tmp_path / "cache.txt"
    path.write_text(f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 value=1\n{record}\n")
    with pytest.raises(CacheError, match=f"line 3 lacks {missing}:"):
        read_records(str(path))


# the fields each kind is looked up by, written out here so the first-match
# scan below does not share code with the cache module
_KEY_FIELDS = {"hurwitz": ("g", "mu"), "hodge": ("g", "n", "b", "j")}


def _key_of(record):
    return (record["kind"], *(record[field] for field in _KEY_FIELDS.get(record["kind"], ())))


def _first_match(records, key):
    return next((record for record in records if _key_of(record) == key), None)


def _outcome(call, *args):
    try:
        return call(*args)
    except CacheError as exc:
        return str(exc)


def _random_line(rng):
    roll = rng.random()
    if roll < 0.03:
        return "not a record"
    if roll < 0.06:
        return ""
    if roll < 0.5:
        return (f"kind=hurwitz g={rng.randint(0, 2)} mu={rng.choice(['1', '2', '2,1', '3'])} "
                f"engine=brute value={rng.randint(0, 99)}")
    return (f"kind=hodge g=1 n={rng.randint(1, 2)} b={rng.randint(0, 2)} j={rng.randint(0, 1)} "
            f"engine=extraction value={rng.randint(0, 9)}/{rng.randint(1, 9)}")


_KEYS = [("hurwitz", str(g), mu) for g in range(3) for mu in ("1", "2", "2,1", "3")] + [
    ("hodge", "1", str(n), str(b), str(j)) for n in (1, 2) for b in range(3) for j in (0, 1)
]


def test_incremental_reads_match_fresh_reads(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "cache.txt"
    text = SCHEMA_LINE + "\n"
    ops = ["append"] * 5 + ["partial", "edit", "truncate", "replace", "bare-header"]
    seen = set()
    for step in range(400):
        op = rng.choice(ops)
        seen.add(op)
        if op == "append":
            text += "".join(_random_line(rng) + "\n" for _ in range(rng.randint(1, 3)))
        elif op == "partial":  # a last line with no line break
            text += _random_line(rng)[: rng.randint(1, 60)]
        elif op == "edit":  # same size, in place
            digits = [i for i, char in enumerate(text) if char.isdigit()]
            if digits:
                i = rng.choice(digits)
                text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        elif op == "truncate":
            text = text[: rng.randint(0, len(text))]
        elif op == "replace":
            text = SCHEMA_LINE + "\n" + "".join(_random_line(rng) + "\n" for _ in range(rng.randint(0, 4)))
        else:
            text = SCHEMA_LINE
        if op == "replace":
            other = tmp_path / "replacement.txt"
            other.write_text(text, encoding="utf-8")
            os.replace(other, path)
        else:
            path.write_text(text, encoding="utf-8")
        fresh = tmp_path / f"fresh-{step}.txt"
        fresh.write_text(text, encoding="utf-8")
        expected = _outcome(read_records, str(fresh))
        assert _outcome(read_records, str(path)) == expected, (step, text)
        if isinstance(expected, str):
            assert _outcome(find, str(path), _KEYS) == expected
        else:
            assert find(str(path), _KEYS) == [_first_match(expected, key) for key in _KEYS], step
        if op in ("truncate", "bare-header") and rng.random() < 0.5:
            text = SCHEMA_LINE + "\n"  # start over from a readable file
    assert seen == set(ops)


def test_appended_malformed_line_reports_fresh_line_number(tmp_path):
    path = tmp_path / "cache.txt"
    append_records(str(path), [{"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}])
    assert len(read_records(str(path))) == 1
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\nkind=hurwitz g=1 mu=2 engine=brute value=1/2\n")
    assert len(read_records(str(path))) == 2
    with path.open("a", encoding="utf-8") as fh:
        fh.write("not a record\n")
    fresh = tmp_path / "fresh.txt"
    fresh.write_text(path.read_text())
    with pytest.raises(CacheError, match="line 5:") as incremental:
        read_records(str(path))
    with pytest.raises(CacheError) as direct:
        read_records(str(fresh))
    assert str(incremental.value) == str(direct.value)
    # the same for a last line with no line break
    path.write_text(path.read_text().replace("not a record\n", "\nnot a"))
    for _ in range(2):
        with pytest.raises(CacheError, match="line 6: 'not a'"):
            read_records(str(path))


def test_header_without_line_break_is_an_empty_cache(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(SCHEMA_LINE)
    for _ in range(2):
        assert read_records(str(path)) == []
    path.write_text(SCHEMA_LINE + "\nkind=hurwitz g=0 mu=3 engine=brute value=1")
    assert read_records(str(path)) == [
        {"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}
    ]


def test_find_first_record_wins_and_missing_file_is_empty(tmp_path):
    path = str(tmp_path / "cache.txt")
    key = ("hurwitz", "1", "2")
    assert find(path, [key]) == [None]
    first = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "brute", "value": "1/2"}
    append_records(path, [first, dict(first, value="7")])
    assert find(path, [key, ("hurwitz", "1", "3")]) == [first, None]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("kind=hurwitz g=1 mu=3 engine=brute value=4")  # no line break yet
    assert find(path, [("hurwitz", "1", "3")])[0]["value"] == "4"


def test_concurrent_reads_see_prefixes(tmp_path):
    path = str(tmp_path / "cache.txt")
    records = [{"kind": "hurwitz", "g": "0", "mu": str(k), "engine": "brute", "value": str(k)}
               for k in range(1, 101)]
    append_records(path, records[:1])
    keys = [("hurwitz", "0", str(k)) for k in (1, 25, 50, 100)]
    start = threading.Barrier(5)
    done = threading.Event()
    reads, hits, errors = [], [], []

    def work():
        start.wait()
        try:
            while not done.is_set():
                reads.append(read_records(path))
                hits.append(find(path, keys))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        start.wait()
        for record in records[1:]:
            append_records(path, [record])
            time.sleep(0.0005)  # let the readers see each length
        done.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert read_records(path) == records
    assert reads and all(result == records[:len(result)] for result in reads)
    expected = [_first_match(records, key) for key in keys]
    assert hits and all(hit in (None, want) for found in hits for hit, want in zip(found, expected))


def _blocked_call(target):
    """Start ``target`` in a thread; return the thread and its outcome list
    once it has had time to finish were it not blocked."""
    outcome = []

    def run():
        try:
            outcome.append(target())
        except Exception as exc:  # reported by the caller, not lost in the thread
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=0.3)
    return thread, outcome


@pytest.mark.skipif(cache.fcntl is None, reason="needs flock")
def test_read_waits_for_an_append_in_flight(tmp_path):
    # another open file description holds LOCK_EX with half a record
    # written: the read must wait for the whole record, not parse the tail
    import fcntl

    path = str(tmp_path / "cache.txt")
    first = {"kind": "hurwitz", "g": "0", "mu": "1", "engine": "brute", "value": "1"}
    append_records(path, [first])
    with open(path, "ab") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        fh.write(b"kind=hurwitz g=0 mu=91 engine=brute value=9")
        fh.flush()
        reader, outcome = _blocked_call(lambda: read_records(path))
        assert reader.is_alive() and outcome == []
        fh.write(b"1\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert outcome == [[first, dict(first, mu="91", value="91")]]


@pytest.mark.skipif(cache.fcntl is None, reason="needs flock")
def test_append_waits_for_a_read_in_flight(tmp_path):
    import fcntl

    path = str(tmp_path / "cache.txt")
    first = {"kind": "hurwitz", "g": "0", "mu": "1", "engine": "brute", "value": "1"}
    append_records(path, [first])
    with open(path, "rb") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
        writer, outcome = _blocked_call(lambda: append_records(path, [dict(first, mu="2")]))
        assert writer.is_alive() and outcome == []
        assert read_records(path) == [first]  # shared locks do not exclude each other
    writer.join(timeout=30)
    assert not writer.is_alive() and outcome == [None]
    assert read_records(path) == [first, dict(first, mu="2")]


def test_find_looks_up_what_read_records_returns(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.txt")
    first = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "brute", "value": "1/2"}
    append_records(path, [first, dict(first, value="7")])
    assert cache.find(path, [("hurwitz", "1", "2")]) == [first]
    original = cache.read_records
    monkeypatch.setattr(cache, "read_records", lambda p: [dict(r, engine="x") for r in original(p)])
    assert cache.find(path, [("hurwitz", "1", "2")]) == [dict(first, engine="x")]


def test_append_after_unterminated_line_keeps_both_records(tmp_path):
    path = tmp_path / "cache.txt"
    older = {"kind": "hurwitz", "g": "0", "mu": "1,1,1", "engine": "frobenius", "value": "4"}
    newer = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "frobenius", "value": "1/2"}
    path.write_text(f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=1,1,1 engine=frobenius value=4")
    append_records(str(path), [newer])
    assert read_records(str(path)) == [older, newer]
    # a header with no line break is not merged with the first record either
    path.write_text(SCHEMA_LINE)
    append_records(str(path), [newer])
    assert read_records(str(path)) == [newer]
    assert path.read_text() == f"{SCHEMA_LINE}\nkind=hurwitz g=1 mu=2 engine=frobenius value=1/2\n"


def test_repeated_field_rejected(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 value=1\nkind=hurwitz g=0 mu=2 g=5 engine=x value=4\n")
    with pytest.raises(CacheError, match="malformed cache record on line 3: g given twice"):
        read_records(str(path))
    with pytest.raises(CacheError, match="line 3: g given twice"):
        find(str(path), [("hurwitz", "5", "2")])


def test_unwritable_path_rejected(tmp_path):
    path = str(tmp_path / "missing" / "cache.txt")
    with pytest.raises(CacheError, match="cannot write cache file") as info:
        append_records(path, [{"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}])
    assert path in str(info.value)
