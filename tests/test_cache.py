from pathlib import Path

import pytest

from hurwitz_hodge.cache import SCHEMA_LINE, CacheError, append_records, read_records


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
