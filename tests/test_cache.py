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


@pytest.mark.parametrize(
    "text, message",
    [
        ("schema=hurwitz-hodge-cache/2\n",
         "unsupported cache schema: expected 'schema=hurwitz-hodge-cache/1', "
         "found 'schema=hurwitz-hodge-cache/2'"),
        (f"{SCHEMA_LINE}\nnot a record\n", "malformed cache record on line 2: 'not a record'"),
        (f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 g=5 value=1\n",
         "malformed cache record on line 2: g given twice: 'kind=hurwitz g=0 mu=3 g=5 value=1'"),
        (f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 value=1\nkind=hurw\n",
         "cache record on line 3 lacks kind/value: 'kind=hurw'"),
        (f"{SCHEMA_LINE}\nkind=hodge g=1 n=1 b=1 value=1/24\n",
         "hodge record on line 2 lacks j: 'kind=hodge g=1 n=1 b=1 value=1/24'"),
        (f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 value=1\nkind=hurw",
         "line 3 lacks a line break: an append was cut short or the file was edited"),
    ],
    ids=["schema", "malformed", "given-twice", "lacks-kind-value", "lacks-field", "unterminated"],
)
def test_record_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "cache.txt"
    path.write_text(text)
    with pytest.raises(CacheError) as info:
        read_records(str(path))
    assert str(info.value) == f"cache file {path}: {message}"


def test_unchanged_file_reads_return_the_same_list(tmp_path):
    # an unchanged file is neither copied nor indexed again
    path = str(tmp_path / "cache.txt")
    append_records(path, [{"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}])
    first = read_records(path)
    assert read_records(path) is first
    hit = find(path, [{"kind": "hurwitz", "g": "0", "mu": "3"}])[0]
    assert hit is first[0] and read_records(path) is first


# the fields each kind is looked up by, written out here so the first-match
# scan below does not share code with the cache module
_KEY_FIELDS = {"hurwitz": ("g", "mu"), "hodge": ("g", "n", "b", "j")}


def _key_of(record):
    return (record["kind"], *(record[field] for field in _KEY_FIELDS.get(record["kind"], ())))


def _first_match(records, wanted):
    return next((record for record in records if _key_of(record) == _key_of(wanted)), None)


def _outcome(call, path, *args):
    # an error names the file; with its name made generic, reads of two
    # files holding the same text give the same outcome
    try:
        return call(path, *args)
    except CacheError as exc:
        assert path in str(exc)
        return str(exc).replace(path, "PATH")


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


_WANTED = [{"kind": "hurwitz", "g": str(g), "mu": mu}
           for g in range(3) for mu in ("1", "2", "2,1", "3")] + [
    {"kind": "hodge", "g": "1", "n": str(n), "b": str(b), "j": str(j)}
    for n in (1, 2) for b in range(3) for j in (0, 1)
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
            assert _outcome(find, str(path), _WANTED) == expected
        else:
            assert find(str(path), _WANTED) == [_first_match(expected, wanted) for wanted in _WANTED], step
        if op in ("truncate", "bare-header") and rng.random() < 0.5:
            text = SCHEMA_LINE + "\n"  # start over from a readable file
    assert seen == set(ops)


_BREAKS = ("\n", "\r\n", "\r")


def _decorated_line(rng):
    # now and then an é, or a U+0085 (whitespace to str.split) for a space
    line = _random_line(rng)
    roll = rng.random()
    if roll < 0.1:
        return line.replace("engine=", "engine=é", 1)
    if roll < 0.2:
        return line.replace(" ", "\x85", 1)
    return line


def _random_chunk(rng):
    """Bytes of record lines, each ending in \\n, \\r\\n or a lone \\r; now
    and then a last line with no break or with a lone \\r, a BOM, or a byte
    that is not UTF-8."""
    text = "".join(_decorated_line(rng) + rng.choice(_BREAKS) for _ in range(rng.randint(0, 3)))
    roll = rng.random()
    if roll < 0.15:
        text += _decorated_line(rng)[: rng.randint(1, 60)] + "\r"
    elif roll < 0.25:
        text += _decorated_line(rng)[: rng.randint(1, 60)]
    elif roll < 0.3:
        text += "\ufeff"
    data = text.encode("utf-8")
    if rng.random() < 0.02:
        data += rng.choice((b"\xff", b"\x85"))
    return data


def test_binary_read_matches_text_mode(tmp_path):
    # the oracle holds the text a text-mode read returns (universal
    # newlines), written back with \n only; a read of the raw bytes must
    # give the same records, hits and errors, also when the file grows in
    # place and a \r and its \n arrive in different writes
    rng = random.Random(20261019)
    path = tmp_path / "cache.txt"
    counts = {"grown": 0, "records-with-cr": 0, "not-utf8": 0}
    rewrite = True
    for step in range(400):
        if rewrite or rng.random() < 0.4:
            header = ("\ufeff" if rng.random() < 0.05 else "") + SCHEMA_LINE + rng.choice(_BREAKS)
            path.write_bytes(header.encode("utf-8") + _random_chunk(rng))
        else:
            with path.open("ab") as fh:
                fh.write(_random_chunk(rng))
            counts["grown"] += 1
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            with pytest.raises(CacheError) as info:
                read_records(str(path))
            assert str(info.value).startswith(f"cannot read cache file {path}: 'utf-8' codec can't decode")
            counts["not-utf8"] += 1
            rewrite = True
            continue
        oracle = tmp_path / f"oracle-{step}.txt"
        oracle.write_bytes(text.encode("utf-8"))
        expected = _outcome(read_records, str(oracle))
        assert _outcome(read_records, str(path)) == expected, (step, path.read_bytes())
        assert _outcome(find, str(path), _WANTED) == _outcome(find, str(oracle), _WANTED), step
        if expected and isinstance(expected, list) and b"\r" in path.read_bytes():
            counts["records-with-cr"] += 1
        rewrite = False
    assert counts["grown"] > 100 and counts["records-with-cr"] > 100 and counts["not-utf8"] > 2, counts


def test_non_utf8_file_rejected_naming_path(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_bytes(SCHEMA_LINE.encode() + b"\nkind=hurwitz g=0 mu=2 engine=brute value=1/2\xff\n")
    with pytest.raises(CacheError) as info:
        read_records(str(path))
    assert str(info.value) == (f"cannot read cache file {path}: 'utf-8' codec can't decode byte 0xff "
                               "in position 73: invalid start byte")


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
    assert str(incremental.value) == str(direct.value).replace(str(fresh), str(path))
    # a last line with no line break is refused whole, on every read; once
    # it ends, its fresh line number is reported
    path.write_text(path.read_text().replace("not a record\n", "\nnot a"))
    for _ in range(2):
        with pytest.raises(CacheError, match="line 6 lacks a line break"):
            read_records(str(path))
    path.write_text(path.read_text() + "\n")
    with pytest.raises(CacheError, match="line 6: 'not a'"):
        read_records(str(path))


@pytest.mark.parametrize(
    "text, line",
    [("", 1), (SCHEMA_LINE, 1), (SCHEMA_LINE + "\nkind=hurwitz g=0 mu=3 engine=brute value=1", 2),
     (SCHEMA_LINE + "\r\nkind=hurwitz g=0 mu=3 engine=brute value=1\rkind=hurwitz g=0 mu=2", 3)],
    ids=["empty", "header", "record", "universal-newlines"],
)
def test_file_without_final_line_break_is_an_error(tmp_path, text, line):
    # a header or a record with no line break may be an append cut short,
    # so nothing of it is read, on any read
    path = tmp_path / "cache.txt"
    path.write_bytes(text.encode())
    for _ in range(2):
        with pytest.raises(CacheError) as info:
            read_records(str(path))
        assert str(info.value) == (f"cache file {path}: line {line} lacks a line break: "
                                   "an append was cut short or the file was edited")


def test_find_first_record_wins_and_missing_file_is_empty(tmp_path):
    path = str(tmp_path / "cache.txt")
    wanted = {"kind": "hurwitz", "g": "1", "mu": "2"}
    assert find(path, [wanted]) == [None]
    first = dict(wanted, engine="brute", value="1/2")
    append_records(path, [first, dict(first, value="7")])
    assert find(path, [wanted, dict(wanted, mu="3")]) == [first, None]
    # engine and value are no part of the key: a record to be written finds
    # the stored one under its key, whatever its own engine and value
    assert find(path, [dict(first, engine="frobenius", value="7")]) == [first]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("kind=hurwitz g=1 mu=3 engine=brute value=4")  # no line break yet
    with pytest.raises(CacheError, match="line 4 lacks a line break"):
        find(path, [dict(wanted, mu="3")])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert find(path, [dict(wanted, mu="3")])[0]["value"] == "4"


def test_repeated_lookups_key_only_the_wanted_records(tmp_path, monkeypatch):
    # a lookup in an unchanged file keys the wanted records, not every
    # record again; the first record under a key still wins
    path = tmp_path / "cache.txt"
    lines = [f"kind=hurwitz g=0 mu={k} engine=brute value={k}" for k in range(1, 2001)]
    path.write_text(SCHEMA_LINE + "\n" + "\n".join(lines) + "\n"
                    + "kind=hurwitz g=0 mu=7 engine=brute value=0\n"
                    + "kind=hurwitz g=1 mu=7 engine=brute value=8\n")
    wanted = [{"kind": "hurwitz", "g": "0", "mu": "7"}, {"kind": "hurwitz", "g": "1", "mu": "7"},
              {"kind": "hurwitz", "g": "2", "mu": "7"}]
    expected = [{"kind": "hurwitz", "g": "0", "mu": "7", "engine": "brute", "value": "7"},
                {"kind": "hurwitz", "g": "1", "mu": "7", "engine": "brute", "value": "8"}, None]
    assert find(str(path), wanted) == expected
    keyed = []
    original = cache._key
    monkeypatch.setattr(cache, "_key", lambda record: keyed.append(record) or original(record))
    for _ in range(3):
        assert find(str(path), wanted) == expected
    assert len(keyed) == 3 * len(wanted)


def test_concurrent_reads_see_prefixes(tmp_path):
    path = str(tmp_path / "cache.txt")
    records = [{"kind": "hurwitz", "g": "0", "mu": str(k), "engine": "brute", "value": str(k)}
               for k in range(1, 101)]
    append_records(path, records[:1])
    wanted = [records[k - 1] for k in (1, 25, 50, 100)]
    start = threading.Barrier(5)
    done = threading.Event()
    reads, hits, errors = [], [], []

    def work():
        start.wait()
        try:
            while not done.is_set():
                reads.append(read_records(path))
                hits.append(find(path, wanted))
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
    expected = [_first_match(records, record) for record in wanted]
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
    assert cache.find(path, [first]) == [first]
    original = cache.read_records
    monkeypatch.setattr(cache, "read_records", lambda p: [dict(r, engine="x") for r in original(p)])
    assert cache.find(path, [first]) == [dict(first, engine="x")]


def test_round_trip_without_flock(tmp_path, monkeypatch):
    # where fcntl is missing, appends and reads go unlocked
    monkeypatch.setattr(cache, "fcntl", None)
    path = str(tmp_path / "cache.txt")
    record = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "frobenius", "value": "1/2"}
    append_records(path, [record])
    assert read_records(path) == [record]


@pytest.mark.parametrize(
    "text, line",
    [(f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=1,1,1 engine=frobenius value=4", 2), (SCHEMA_LINE, 1),
     (f"{SCHEMA_LINE}\r\nkind=hurwitz g=0 mu=3 value=1\rkind=hurwitz g=0 mu=1,1,1 engine=frobenius value=", 3)],
    ids=["record", "header", "universal-newlines"],
)
def test_append_after_unterminated_line_is_refused(tmp_path, text, line):
    # an append never completes a line cut short: it names the file and
    # the line, as a read does, and writes nothing
    path = tmp_path / "cache.txt"
    path.write_bytes(text.encode())
    newer = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "frobenius", "value": "1/2"}
    with pytest.raises(CacheError) as info:
        append_records(str(path), [newer])
    assert str(info.value) == (f"cache file {path}: line {line} lacks a line break: "
                               "an append was cut short or the file was edited")
    assert path.read_bytes() == text.encode()


def test_append_after_lone_carriage_return(tmp_path):
    # a read takes a lone \r for a line break, so an append may follow it
    path = tmp_path / "cache.txt"
    path.write_bytes(f"{SCHEMA_LINE}\r".encode())
    newer = {"kind": "hurwitz", "g": "1", "mu": "2", "engine": "frobenius", "value": "1/2"}
    append_records(str(path), [newer])
    assert read_records(str(path)) == [newer]


def test_repeated_field_rejected(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(f"{SCHEMA_LINE}\nkind=hurwitz g=0 mu=3 value=1\nkind=hurwitz g=0 mu=2 g=5 engine=x value=4\n")
    with pytest.raises(CacheError, match="malformed cache record on line 3: g given twice"):
        read_records(str(path))
    with pytest.raises(CacheError, match="line 3: g given twice"):
        find(str(path), [{"kind": "hurwitz", "g": "5", "mu": "2"}])


def test_unwritable_path_rejected(tmp_path):
    path = str(tmp_path / "missing" / "cache.txt")
    with pytest.raises(CacheError, match="cannot write cache file") as info:
        append_records(path, [{"kind": "hurwitz", "g": "0", "mu": "3", "engine": "brute", "value": "1"}])
    assert path in str(info.value)
