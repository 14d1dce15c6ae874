import random
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_hodge import cache as cache_store
from hurwitz_hodge import cli, cutjoin, engines, hodge, series, verify
from hurwitz_hodge.cli import main
from hurwitz_hodge.engines import genus_zero_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_value_outputs(capsys):
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "1,1,1") == (0, "4\n", "")
    assert run_cli(capsys, "hurwitz", "--genus", "1", "--profile", "2") == (0, "1/2\n", "")
    assert run_cli(capsys, "hurwitz", "--genus", "1", "--profile", "1") == (0, "0\n", "")


@pytest.mark.parametrize("engine", ["auto", "brute", "frobenius", "cutjoin"])
def test_engines_agree_via_cli(capsys, engine):
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2,2", "--engine", engine)
    assert code == 0 and out == "12\n"


def test_record_format(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--profile", "2,1", "--format", "record"
    )
    assert code == 0
    assert out == "hurwitz genus=0 profile=2,1 engine=auto value=4\n"


@pytest.mark.parametrize("text", [" 2, 1", "02,1"])
def test_record_format_prints_the_parsed_profile(capsys, text):
    # the profile as parsed, so every token of the line stays field=value
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", text, "--format", "record")
    assert (code, out) == (0, "hurwitz genus=0 profile=2,1 engine=auto value=4\n")


def test_bad_arguments_exit_1(capsys):
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2,x")[0] == 1
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "0,1")[0] == 1
    assert main(["hurwitz", "--genus", "0", "--profile", "3", "--engine", "magic"]) == 1
    assert main(["verify", "nonsense"]) == 1
    assert main([]) == 1
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2", "--kmax", "abc")
    assert code == 1 and "--kmax" in err
    # the program picks the sampling grid; there is no option to set it
    code, _, err = run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--grid-bound", "5")
    assert code == 1 and "unrecognized arguments: --grid-bound 5" in err


def test_infeasible_exit_2(capsys):
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "7", "--engine", "brute")
    assert code == 2 and "sheet bound" in err
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "11")
    assert code == 2


@pytest.mark.parametrize("engine", ["auto", "brute", "frobenius", "cutjoin"])
def test_bad_genus_exits_1_before_any_bound(capsys, engine):
    # |mu| = 20 is past every engine's default bounds; the genus is named first
    code, out, err = run_cli(capsys, "hurwitz", "--engine", engine, "--genus", "-1", "--profile", "20")
    assert (code, out, err) == (1, "", "error: genus must be a nonnegative integer, got -1\n")


def test_brute_force_long_run_exit_2(capsys):
    code, _, err = run_cli(capsys, "hurwitz", "--engine", "brute", "--genus", "1000000", "--profile", "1")
    assert code == 2 and "work bound" in err


def test_brute_force_served_at_its_work_estimate(capsys):
    # the bound is inclusive: h(1; 2, 1) needs 5 steps on 3 sheets
    work = engines._brute_work(3, 5)
    query = ("hurwitz", "--engine", "brute", "--genus", "1", "--profile", "2,1")
    assert run_cli(capsys, *query, "--brute-work", str(work)) == (0, "40\n", "")
    code, out, err = run_cli(capsys, *query, "--brute-work", str(work - 1))
    assert (code, out) == (2, "")
    assert err == (f"error: brute force infeasible: state-space work estimate {work}"
                   f" exceeds work bound {work - 1}\n")


def test_brute_force_estimate_named_by_bit_length(capsys):
    # a genus of 4300 digits, the most Python reads: the estimate has more
    # digits than Python prints, so the refusal names its bit length
    code, out, err = run_cli(capsys, "hurwitz", "--engine", "brute", "--genus", "9" * 4300, "--profile", "1")
    assert (code, out) == (2, "")
    assert err == ("error: brute force infeasible: state-space work estimate of 14296 bits"
                   " exceeds work bound 100000000\n")


def test_raised_bounds_via_flags(capsys):
    # one-pole genus 0 is k^(k-3); for k = 11 that is 11^8
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "11", "--kmax", "11")
    assert code == 0 and out == f"{11 ** 8}\n"
    # a zero bound is a bound: h(0; 1) needs no transposition
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "1", "--rmax", "0") == (0, "1\n", "")


BOUNDED_QUERIES = {
    "hurwitz": ("--genus", "0", "--profile", "2,1"),
    "hodge": ("--genus", "1", "--points", "1"),
}


@pytest.mark.parametrize(
    "command, flag",
    [("hurwitz", flag) for flag in ("--kmax", "--rmax", "--brute-sheets", "--brute-work", "--cutjoin-kmax")]
    + [("hodge", "--kmax"), ("hodge", "--rmax")],
)
def test_negative_bound_exit_1(capsys, command, flag):
    code, out, err = run_cli(capsys, command, *BOUNDED_QUERIES[command], flag, "-1")
    assert (code, out) == (1, "")
    assert f"argument {flag}: must be a nonnegative integer, got -1" in err


def test_many_equal_poles_answer(capsys):
    # twenty simple poles: labeled-subset inclusion-exclusion would walk
    # 2^19 subsets at the top level alone
    ones = ",".join(["1"] * 20)
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", ones, "--kmax", "20")
    assert code == 0
    assert out == f"{genus_zero_closed_form((1,) * 20)}\n"


def test_hodge_records(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--genus", "1", "--points", "1")
    assert code == 0
    assert out.splitlines() == [
        "g=1 n=1 b=0 j=1 value=1/24",
        "g=1 n=1 b=1 j=0 value=1/24",
    ]
    code, out, _ = run_cli(capsys, "hodge", "--genus", "0", "--points", "3")
    assert code == 0 and out == "g=0 n=3 b=0,0,0 j=0 value=1\n"


def test_hodge_table_format(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--genus", "2", "--points", "1", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "g n b j value",
        "2 1 2 2 7/5760",
        "2 1 3 1 1/480",
        "2 1 4 0 1/1152",
    ]


def test_hodge_unstable_exit_1(capsys):
    assert run_cli(capsys, "hodge", "--genus", "0", "--points", "2")[0] == 1


def test_determinism(capsys):
    first = run_cli(capsys, "hodge", "--genus", "2", "--points", "2")
    second = run_cli(capsys, "hodge", "--genus", "2", "--points", "2")
    assert first == second and first[0] == 0


def test_cache_round_trip_and_transparency(capsys, tmp_path):
    cache = str(tmp_path / "cache.txt")
    bare = run_cli(capsys, "hurwitz", "--genus", "2", "--profile", "3")
    cold = run_cli(capsys, "hurwitz", "--genus", "2", "--profile", "3", "--cache", cache)
    warm = run_cli(capsys, "hurwitz", "--genus", "2", "--profile", "3", "--cache", cache)
    assert bare == cold == warm == (0, "81\n", "")
    lines = Path(cache).read_text().splitlines()
    assert lines == [
        "schema=hurwitz-hodge-cache/1",
        "kind=hurwitz g=2 mu=3 engine=frobenius value=81",
    ]
    # profile order must not duplicate cache entries
    run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "1,2", "--cache", cache)
    run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2,1", "--cache", cache)
    assert len(Path(cache).read_text().splitlines()) == 3


def test_hodge_cache_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "cache.txt")
    cold = run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--cache", cache)
    warm = run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--cache", cache)
    assert cold == warm and cold[0] == 0
    assert len(Path(cache).read_text().splitlines()) == 3  # header + two records


def test_hodge_cache_appends_only_missed_keys(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    argv = ("hodge", "--genus", "1", "--points", "2", "--cache", str(cache))
    cold = run_cli(capsys, *argv)
    lines = cache.read_text().splitlines()
    assert cold[0] == 0 and len(lines) == 4  # header + three records
    cache.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    assert run_cli(capsys, *argv) == cold
    assert cache.read_text().splitlines() == lines[:2] + lines[3:] + lines[2:3]
    assert run_cli(capsys, *argv) == cold
    assert len(cache.read_text().splitlines()) == 4


def test_hodge_cache_hit_checks_each_value_through_set(capsys, tmp_path, monkeypatch):
    # a full hit builds its table from the file's values, so every value
    # goes through HodgeTable.set's checks, once per key
    argv = ("hodge", "--genus", "1", "--points", "2", "--cache", str(tmp_path / "cache.txt"))
    miss = run_cli(capsys, *argv)
    stored = []
    original = hodge.HodgeTable.set

    def recording(table, g, n, b, j, value):
        stored.append((g, n, b, j))
        original(table, g, n, b, j, value)

    monkeypatch.setattr(hodge.HodgeTable, "set", recording)
    assert run_cli(capsys, *argv) == miss and miss[0] == 0
    assert sorted(stored) == sorted((1, 2, b, j) for j, b in hodge.hodge_keys(1, 2))


def test_hodge_cache_first_record_of_a_key_wins(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text(
        "schema=hurwitz-hodge-cache/1\n"
        "kind=hodge g=1 n=1 b=1 j=0 engine=extraction value=1/5\n"
        "kind=hodge g=1 n=1 b=0 j=1 engine=extraction value=1/24\n"
        "kind=hodge g=1 n=1 b=1 j=0 engine=extraction value=1/7\n"
    )
    code, out, _ = run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--format", "table",
                           "--cache", str(cache))
    assert code == 0 and out.splitlines()[1:] == ["1 1 0 1 1/24", "1 1 1 0 1/5"]


def test_hurwitz_cache_hit_checked_by_ll_degree(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    record = "kind=hurwitz g=1 mu=2 engine=frobenius value=3/7"
    cache.write_text(f"schema=hurwitz-hodge-cache/1\n{record}\n")
    code, out, err = run_cli(capsys, "hurwitz", "--genus", "1", "--profile", "2", "--cache", str(cache))
    assert (code, out) == (3, "")
    assert f"bad cache hit in cache file {cache}, record {record!r}" in err
    assert "deg LL = 6/7" in err


def test_cache_reads_go_through_read_records(capsys, tmp_path, monkeypatch):
    # the benchmark's tracer counts cache reads by wrapping this attribute
    sizes = []
    original = cache_store.read_records

    def counting(path):
        records = original(path)
        sizes.append(len(records))
        return records

    monkeypatch.setattr(cache_store, "read_records", counting)
    cache = str(tmp_path / "cache.txt")
    argv = ("hurwitz", "--genus", "1", "--profile", "2", "--cache", cache)
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv) == (0, "1/2\n", "")
    assert sizes == [1]  # the first call found no file, the second read one record
    assert cache_store.find(cache, [{"kind": "hurwitz", "g": "1", "mu": "2"}])[0]["value"] == "1/2"
    assert sizes == [1, 1]


@pytest.mark.parametrize("argv", [("hurwitz", "--genus", "0", "--profile", "2"),
                                  ("hodge", "--genus", "1", "--points", "1")])
def test_unwritable_cache_path_exit_1(capsys, tmp_path, argv):
    cache = tmp_path / "missing" / "c.txt"
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write cache file {cache}: ")


def test_repeated_cache_field_exit_1(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("schema=hurwitz-hodge-cache/1\nkind=hurwitz g=0 mu=2 g=5 engine=x value=4\n")
    code, out, err = run_cli(capsys, "hurwitz", "--genus", "5", "--profile", "2", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert "line 2: g given twice" in err


_H12 = ("hurwitz", "--genus", "1", "--profile", "2")


# call sites the benchmark's tracer wraps, each with a command that must
# reach it through the module attribute (test_cache_reads_go_through_read_records,
# test_characters_go_through_engines_character_value and
# test_extraction_goes_through_hodge_call_sites cover the others)
@pytest.mark.parametrize("module, attr, argv", [
    (engines, "connected_hurwitz", (*_H12, "--engine", "frobenius")),
    (engines, "brute_force_hurwitz", (*_H12, "--engine", "brute")),
    (cutjoin, "cut_and_join_layer", (*_H12, "--engine", "cutjoin")),
    (cache_store, "append_records", (*_H12, "--cache", "CACHE")),
    (hodge, "extract_hodge_integrals", ("hodge", "--genus", "1", "--points", "1")),
    (series, "extract_hodge_integrals", ("verify", "fp-identity", "--gmax", "1")),
    (series, "verify_faber_pandharipande", ("verify", "fp-identity", "--gmax", "1")),
], ids=lambda arg: arg if isinstance(arg, str) else None)
def test_benchmark_call_sites_are_called(capsys, tmp_path, monkeypatch, module, attr, argv):
    calls = []
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(cutjoin, "_LAYER_CACHE", {})  # so layers are built, not looked up
    argv = [str(tmp_path / "cache.txt") if arg == "CACHE" else arg for arg in argv]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls


def test_cache_version_mismatch_exit_1(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("schema=hurwitz-hodge-cache/99\n")
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "3", "--cache", str(cache))
    assert code == 1 and "schema" in err


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    assert out and all(line.endswith(" pass") for line in out.splitlines())


def test_roundtrip_extracts_each_table_once(monkeypatch):
    # both sign checks evaluate the (1, 1) table the sweep extracted
    calls = []
    original = hodge.extract_hodge_integrals

    def counting(g, n, **bounds):
        calls.append((g, n))
        return original(g, n, **bounds)

    monkeypatch.setattr(hodge, "extract_hodge_integrals", counting)
    assert all(check.status == "pass" for check in verify.run("hodge-roundtrip"))
    assert calls == [(0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


def test_verify_degll_flags_poisoned_cache(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text(
        "schema=hurwitz-hodge-cache/1\nkind=hurwitz g=0 mu=3 engine=frobenius value=1/7\n"
    )
    code, out, _ = run_cli(capsys, "verify", "degll", "--cache", str(cache))
    assert code == 3
    bad = [line for line in out.splitlines() if line.endswith(" fail")]
    assert bad == [
        "degll g=0/mu=3 nonnegative-integer 3/7 fail",
        "degll g=0/mu=3/closed-form 1 1/7 fail",
    ]


def test_verify_degll_flags_integral_but_wrong_genus_zero_record(capsys, tmp_path):
    # 5 * 3! * 1 is an integer, so only the closed form (4) catches it
    cache = tmp_path / "cache.txt"
    cache.write_text(
        "schema=hurwitz-hodge-cache/1\nkind=hurwitz g=0 mu=1,1,1 engine=frobenius value=5\n"
    )
    code, out, _ = run_cli(capsys, "verify", "degll", "--cache", str(cache))
    assert code == 3
    bad = [line for line in out.splitlines() if line.endswith(" fail")]
    assert bad == ["degll g=0/mu=1,1,1/closed-form 4 5 fail"]


def test_verify_degll_recomputes_genus_one_records(capsys, tmp_path):
    # 1 * 1 * 2 is an integer, so only an engine (1/2) catches g=1 mu=2 and
    # g=30 mu=2: frobenius within its default bounds, brute force past them
    # (r=61) within its own; k=11 is past both and gets integrality only
    cache = tmp_path / "cache.txt"
    cache.write_text(
        "schema=hurwitz-hodge-cache/1\n"
        "kind=hurwitz g=1 mu=2 engine=frobenius value=1\n"
        "kind=hurwitz g=1 mu=1,1,1 engine=frobenius value=40\n"
        "kind=hurwitz g=1 mu=11 engine=frobenius value=1\n"
        "kind=hurwitz g=30 mu=2 engine=frobenius value=1\n"
    )
    code, out, _ = run_cli(capsys, "verify", "degll", "--cache", str(cache))
    assert code == 3
    lines = out.splitlines()
    assert [line for line in lines if line.endswith(" fail")] == [
        "degll g=1/mu=2/frobenius 1/2 1 fail",
        "degll g=30/mu=2/brute 1/2 1 fail",
    ]
    assert [line for line in lines if "/frobenius " in line] == [
        "degll g=1/mu=2/frobenius 1/2 1 fail",
        "degll g=1/mu=1,1,1/frobenius 40 40 pass",
    ]
    assert "degll g=1/mu=11 nonnegative-integer 11 pass" in lines
    assert "degll g=30/mu=2 nonnegative-integer 2 pass" in lines


def test_verify_degll_checks_only_hurwitz_records(capsys, tmp_path):
    # a hodge record is not a covering count; degll skips it, even when wrong
    cache = tmp_path / "cache.txt"
    cache.write_text(
        "schema=hurwitz-hodge-cache/1\n"
        "kind=hodge g=1 n=1 b=1 j=0 engine=extraction value=5/24\n"
        "kind=hurwitz g=1 mu=2 engine=frobenius value=1/2\n"
    )
    plain = run_cli(capsys, "verify", "degll")[1].splitlines()
    code, out, _ = run_cli(capsys, "verify", "degll", "--cache", str(cache))
    assert code == 0
    assert out.splitlines() == plain + [
        "degll g=1/mu=2 nonnegative-integer 1 pass",
        "degll g=1/mu=2/frobenius 1/2 1/2 pass",
    ]


def test_verify_missing_cache_exit_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run_cli(capsys, "verify", "degll", "--cache", missing)
    assert code == 1 and out == "" and missing in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hurwitz", "--genus", "0", "--profile", "3"),
        ("hodge", "--genus", "1", "--points", "1"),
        ("verify", "degll"),
    ],
)
def test_cache_directory_exit_1(tmp_path, argv):
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", *argv, "--cache", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert f"cannot read cache file {tmp_path}" in result.stderr
    assert "Traceback" not in result.stderr


def test_cache_record_lacking_field_exit_1(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("schema=hurwitz-hodge-cache/1\nkind=hurwitz value=1\n")
    for argv in (("verify", "degll"), ("hurwitz", "--genus", "0", "--profile", "3")):
        code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (1, "")
        assert "line 2 lacks g" in err
    assert cache.read_text() == "schema=hurwitz-hodge-cache/1\nkind=hurwitz value=1\n"


def test_bad_unterminated_last_record_names_file(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("schema=hurwitz-hodge-cache/1\nkind=hurwitz g=0 mu=2 engine=brute value=1/2\nkind=hurw")
    code, out, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "3", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err == (f"error: cache file {cache}: line 3 lacks a line break: "
                   "an append was cut short or the file was edited\n")


@pytest.mark.parametrize("argv", [("hurwitz", "--genus", "1", "--profile", "2,1"),
                                  ("hodge", "--genus", "1", "--points", "2")], ids=["hurwitz", "hodge"])
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "after-a-record"])
def test_cut_append_prints_the_true_value_or_exits_1(capsys, tmp_path, argv, existing):
    # a real append cut after every byte, into a fresh file or after a
    # record: a cut that ends a line leaves a cache to read, any other is
    # an error naming the file and the line, and nothing is written to it.
    # h(1; 2,1) = 40 cut to value=4 passes the LL check (4 * 1 * 2 = 8)
    truth = run_cli(capsys, *argv)
    assert truth[0] == 0
    cache = tmp_path / "cache.txt"
    if existing:
        assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2", "--cache", str(cache))[0] == 0
    before = cache.read_bytes() if existing else b""
    assert run_cli(capsys, *argv, "--cache", str(cache)) == truth
    whole = cache.read_bytes()
    assert whole.startswith(before) and len(whole) > len(before) + 40
    for end in range(len(before), len(whole) + 1):
        cut = whole[:end]
        cache.write_bytes(cut)
        outcome = run_cli(capsys, *argv, "--cache", str(cache))
        if cut.endswith(b"\n"):
            assert outcome == truth, cut
        else:
            line = cut.count(b"\n") + 1
            assert outcome == (1, "", f"error: cache file {cache}: line {line} lacks a line break: "
                                      "an append was cut short or the file was edited\n"), cut
            assert cache.read_bytes() == cut


@pytest.mark.parametrize(
    "record, argv, field",
    [
        ("kind=hurwitz g=0 mu=3 engine=frobenius value=oops",
         ("hurwitz", "--genus", "0", "--profile", "3"), "value"),
        ("kind=hurwitz g=0 mu=3 engine=frobenius value=1/0",
         ("hurwitz", "--genus", "0", "--profile", "3"), "value"),
        ("kind=hodge g=1 n=1 b=1 j=0 engine=extraction value=oops",
         ("hodge", "--genus", "1", "--points", "1"), "value"),
        ("kind=hurwitz g=zero mu=3 engine=frobenius value=1", ("verify", "degll"), "g"),
        ("kind=hurwitz g=0 mu=3,x engine=frobenius value=1", ("verify", "degll"), "mu"),
        ("kind=hurwitz g=0 mu=0 engine=frobenius value=1", ("verify", "degll"), "mu"),
        ("kind=hurwitz g=-3 mu=2 engine=frobenius value=1", ("verify", "degll"), "g"),
    ],
    ids=["hurwitz-value", "hurwitz-zero-denominator", "hodge-value", "degll-g", "degll-mu",
         "degll-mu-zero", "degll-g-negative"],
)
def test_cache_malformed_field_names_file_and_record(capsys, tmp_path, record, argv, field):
    cache = tmp_path / "cache.txt"
    lines = ["schema=hurwitz-hodge-cache/1", record]
    if argv[0] == "hodge":  # the table is read from the cache only when complete
        lines.append("kind=hodge g=1 n=1 b=0 j=1 engine=extraction value=1/24")
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (1, "")
    assert f"bad {field} in cache file {cache}, record {record!r}" in err


def test_well_formed_verify_builds_no_parser(capsys, monkeypatch):
    # verify is read from the option table like hurwitz and hodge, also
    # when its suite then fails or its cache is missing
    def refuse(*args, **kwargs):
        raise AssertionError("argparse reached")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", refuse)
    assert run_cli(capsys, "verify", "genus0")[0] == 0
    assert run_cli(capsys, "verify", "fp-identity", "--gmax", "1")[0] == 0
    assert run_cli(capsys, "verify", "fp-identity", "--gmax", "0")[0] == 1
    code, out, err = run_cli(capsys, "verify", "degll", "--cache", "no-such-cache.txt")
    assert (code, out, err) == (1, "", "error: no cache file at no-such-cache.txt\n")


def test_each_declined_argv_builds_its_own_parser(capsys, monkeypatch):
    # the abbreviation, the bad choice, verify with "--" and --format=table
    # go through the full parser, the other argv lists through _quick
    sequence = [
        ("hurwitz", "--gen=0", "--profile", "2,2", "--engine", "brute", "--format", "record"),
        # auto answers 7 sheets, which brute force refuses with exit 2
        ("hurwitz", "--genus", "0", "--profile", "7", "--format", "record"),
        ("hurwitz", "--genus", "0", "--profile", "2,1"),
        ("hurwitz", "--genus", "0", "--profile", "3", "--engine", "magic"),
        ("hurwitz", "--genus", "1", "--profile", "2"),
        ("verify", "--", "genus0"),
        ("verify", "genus0"),
        ("hodge", "--genus", "1", "--points", "1", "--format=table"),
        ("hodge", "--genus", "1", "--points", "1"),
    ]
    built = []
    original = cli._build_parser

    def counting():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", counting)
    codes = [run_cli(capsys, *argv)[0] for argv in sequence]
    assert codes == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert len(built) == 4 and len(set(map(id, built))) == 4


_HUR = ("hurwitz", "--genus", "0", "--profile", "2,1")
_HDG = ("hodge", "--genus", "1", "--points", "1")
PARSE_CASES = [
    (_HUR, 0),
    ((*_HUR, "--format", "record", "--engine", "brute", "--engine", "frobenius"), 0),
    (("hurwitz", "--genus=0", "--profile", "3"), 0),
    (("hurwitz", "--gen", "1", "--profile", "2"), 0),
    ((*_HDG, "--format", "table"), 0),
    (("verify", "genus0", "--gmax", "1"), 0),
    (("verify", "--", "genus0"), 0),
    (("verify", "fp-identity", "--gmax", "1", "--gmax", "2"), 0),
    (("verify", "--gmax", "1", "genus0"), 0),
    (("verify", "genus0", "--gmax", "-1"), 0),
    (("verify", "genus0", "--gmax", " 3"), 0),
    (("verify", "genus0", "--gmax", "1_0"), 0),
    (("verify", "genus0", "--gm", "1"), 0),
    (("verify", "genus0", "--gmax=1"), 0),
    (("verify", "genus0", "-h"), 0),
    (("verify", "fp-identity", "--gmax", "0"), 1),
    (("verify", "genus0", "--gmax", "x"), 1),
    (("verify", "genus0", "--gmax"), 1),
    (("verify",), 1),
    (("verify", "genus0", "extra"), 1),
    (("verify", "genus0", "genus0"), 1),
    (("verify", "Genus0"), 1),
    (("verify", "degll", "--cache", "no-such-cache.txt"), 1),
    (("verify", "degll", "--cache", "-x"), 1),
    (("verify", "genus0", "--"), 0),
    (("-h",), 0),
    (("--he",), 0),
    (("hurwitz", "-h"), 0),
    (("hodge", "--help"), 0),
    (("verify", "-h"), 0),
    ((), 1),
    (("nonsense", "--genus", "0"), 1),
    (("--genus", "0", "hurwitz"), 1),
    ((*_HUR, "--bogus"), 1),
    ((*_HUR, "--bogus=1", "extra"), 1),
    ((*_HDG, "extra"), 1),
    (("verify", "genus0", "--nope", "x"), 1),
    ((*_HUR, "--", "--engine", "brute"), 1),
    (("hurwitz", "--genus", "0", "--", "--profile", "2"), 1),
    ((*_HUR, "--brute", "3"), 1),
    ((*_HUR, "--kmax", "abc"), 1),
    ((*_HDG, "--grid-bound", "0"), 1),
    (("hurwitz", "--profile", "2"), 1),
    (("verify", "nonsense"), 1),
    (("hurwitz", "--genus", "-1", "--profile", "2"), 1),
    (("hurwitz", "--genus", "0", "--profile", "-2,1"), 1),
    (("hurwitz", "--genus", "0", "--profile", ""), 1),
    ((*_HUR, "--kmax", " 3"), 0),
    (("hurwitz", "--genus", "1_0", "--profile", "2"), 0),
    ((*_HUR, "--engine", "brute", "--engine", "magic"), 1),
    (("hurwitz", "--genus", "0", "--profile"), 1),
    ((*_HUR, "--format=record"), 0),
]


def test_command_parser_matches_full_parser(capsys, monkeypatch):
    # well-formed hurwitz, hodge and verify argv is read by _quick; with
    # _quick declining everything every argv goes through the full parser,
    # and each one must print and exit the same either way
    direct = [run_cli(capsys, *argv) for argv, _ in PARSE_CASES]
    monkeypatch.setattr(cli, "_quick", lambda argv: None)
    full = [run_cli(capsys, *argv) for argv, _ in PARSE_CASES]
    assert [result[0] for result in full] == [code for _, code in PARSE_CASES]
    assert direct == full


_QUICK_FLAGS = ("--genus", "--profile", "--points", "--engine", "--format", "--cache",
                "--brute-sheets", "--brute-work", "--kmax", "--rmax", "--cutjoin-kmax",
                "--gen", "--bogus")
_QUICK_VALUES = ("0", "1", "3", "-1", "", "  3", "1_0", "\u0663", "+4", "x y", "magic", "2,1",
                 "-2,1", "-x", "auto", "brute", "cutjoin", "value", "record", "records", "table")


_VERIFY_FLAGS = ("--gmax", "--cache", "--gm", "--bogus")
_VERIFY_VALUES = ("1", "6", "-1", " 3", "1_0", "x", "c.txt", "genus0", "-x", "--")


def _full_parse(parser, argv):
    try:
        return parser.parse_args(argv)
    except SystemExit:
        return None


def test_quick_namespace_matches_full_parser():
    # _quick may decline any argv, but a namespace it builds must be the one
    # the full parser returns; the lists mix exact flags with an
    # abbreviation and an unknown flag, and valid values with dash-leading,
    # padded, non-ASCII and out-of-choice ones
    parser = cli._build_parser()
    rng = random.Random(1)
    accepted = set()
    for _ in range(3000):
        command = rng.choice(("hurwitz", "hodge"))
        pairs = [(rng.choice(_QUICK_FLAGS), rng.choice(_QUICK_VALUES)) for _ in range(rng.randrange(4))]
        if rng.random() < 0.8:
            second = "--profile" if command == "hurwitz" else "--points"
            pairs += [("--genus", rng.choice(("0", "1", " 2", "+1"))), (second, rng.choice(("1", "2,1")))]
        rng.shuffle(pairs)
        argv = [command] + [token for pair in pairs for token in pair]
        if rng.random() < 0.1:
            argv.pop()
        quick = cli._quick(argv)
        if quick is not None:
            assert quick == _full_parse(parser, argv), argv
            accepted.add(command)
    assert accepted == {"hurwitz", "hodge"}
    # verify: a suite (or an unknown one) with --gmax and --cache pairs, now
    # and then a flag before the suite, a "--" or a dropped last token
    rng = random.Random(2)
    suites = set()
    for _ in range(2000):
        tokens = [rng.choice((*verify.SUITES, "nonsense"))]
        for _ in range(rng.randrange(3)):
            tokens += [rng.choice(_VERIFY_FLAGS), rng.choice(_VERIFY_VALUES)]
        if rng.random() < 0.2:
            tokens.insert(rng.randrange(len(tokens) + 1), "--")
        if rng.random() < 0.2:
            tokens = tokens[1:3] + tokens[:1] + tokens[3:]
        argv = ["verify", *tokens]
        if rng.random() < 0.1:
            argv.pop()
        quick = cli._quick(argv)
        if quick is not None:
            assert quick == _full_parse(parser, argv), argv
            suites.add(quick.suite)
    assert suites == set(verify.SUITES)
    # the forms the benchmark sends: the three batch passes, poles and extract
    cache = ".bench_build/perfbench/batch-cache.txt"
    query = ["--genus", "1", "--profile", "1,2,1"]
    sent = [
        ["hurwitz", *query, "--engine", "cutjoin", "--cutjoin-kmax", "10", "--cache", cache],
        ["hurwitz", *query, "--engine", "auto"],
        ["hurwitz", *query, "--cache", cache],
        ["hurwitz", "--genus", "0", "--profile", "1,1,3,1", "--kmax", "16"],
        ["hodge", "--genus", "3", "--points", "3", "--kmax", "40", "--rmax", "60"],
        ["verify", "fp-identity", "--gmax", "6"],
    ]
    for argv in sent:
        quick = cli._quick(argv)
        assert quick is not None and quick == _full_parse(parser, argv), argv


def test_quick_namespaces_share_no_state():
    # each call starts from the defaults again: a namespace changed by its
    # caller leaves the next one as the full parser would build it
    argv = ["hurwitz", "--genus", "1", "--profile", "2,1", "--cache", "c.txt"]
    first = cli._quick(argv)
    first.kmax = 99
    second = cli._quick(argv)
    assert second is not first and second.kmax == engines.DEFAULT_K_BOUND
    assert vars(second) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("hurwitz", "--genus", "0", "--profile", "2"),
        ("hodge", "--genus", "0", "--points", "3"),
        ("verify", "degll"),
    ],
)
def test_cache_not_utf8_exit_1_naming_path(capsys, tmp_path, argv):
    cache = tmp_path / "cache.txt"
    cache.write_bytes(b"schema=hurwitz-hodge-cache/1\nkind=hurwitz g=0 mu=2 engine=brute value=1/2\xff\n")
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read cache file {cache}: 'utf-8' codec can't decode byte 0xff "
                   "in position 73: invalid start byte\n")


def test_auto_engine_disagreement_exit_3(capsys, monkeypatch):
    from fractions import Fraction

    from hurwitz_hodge import engines

    monkeypatch.setattr(engines, "brute_force_hurwitz", lambda *a, **kw: Fraction(999))
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "3")
    assert code == 3 and "disagree" in err


def test_record_format_identical_on_cache_hit(capsys, tmp_path):
    cache = str(tmp_path / "cache.txt")
    args = ("hurwitz", "--genus", "1", "--profile", "2", "--format", "record", "--cache", cache)
    cold = run_cli(capsys, *args)
    warm = run_cli(capsys, *args)
    assert cold == warm
    assert cold[1] == "hurwitz genus=1 profile=2 engine=auto value=1/2\n"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", "hurwitz", "--genus", "0", "--profile", "4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "4\n"


@pytest.mark.parametrize("genus, points, cached", [
    pytest.param(5, 4, False, id="5-4"),
    pytest.param(1, 200, False, id="1-200"),
    pytest.param(30, 8, False, id="30-8"),
    pytest.param(30, 8, True, id="30-8-cache"),
    pytest.param(10 ** 8, 1, False, id="100000000-1"),
])
def test_infeasible_default_grid_fails_fast(tmp_path, genus, points, cached):
    # the first grid point or the count-floor corner trips the engine's
    # bound before the rank probe; (1, 200) has 7.6e12 keys and (30, 8)
    # 15,089,034, so none may be listed, also not to look them up in a
    # cache too small to hold them, and genus 10^8 may not even be counted
    cache = tmp_path / "cache.txt"
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", "hodge", "--genus", str(genus),
         "--points", str(points), *(("--cache", str(cache)) if cached else ())],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "exceeds bound" in result.stderr
    assert not cache.exists()


@pytest.mark.parametrize("genus, points, message", [
    pytest.param(10 ** 7, 1, f"r={2 * 10 ** 7} exceeds bound", id="genus"),
    pytest.param(0, 10 ** 5, f"k={10 ** 5} exceeds bound", id="points"),
])
def test_huge_table_refused_before_its_keys_are_counted(capsys, tmp_path, monkeypatch,
                                                        genus, points, message):
    # counting the keys takes O((g + n) n) time: seconds and hundreds of MB
    # at genus 10^7, minutes at 10^5 points.  The engine must refuse the
    # first grid point before that, also when a cache file exists and is
    # too small to hold the table
    def no_counting(*args):
        raise AssertionError("keys counted before the refusal")

    cache = tmp_path / "cache.txt"
    assert run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--cache", str(cache))[0] == 0
    monkeypatch.setattr(hodge, "partition_counts", no_counting)
    argv = ("hodge", "--genus", str(genus), "--points", str(points))
    for extra in ((), ("--cache", str(cache))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("argv, message", [
    # a genus of 2201 digits: the work estimate has more digits than Python
    # prints, so the refusal names its bit length
    (("hurwitz", "--engine", "brute", "--genus", "1" + "0" * 2200, "--profile", "2000",
      "--brute-sheets", "2000"), "estimate of 14614 bits exceeds work bound"),
    # refused on the tries at a few sheets, before p(10000) is counted
    (("hurwitz", "--engine", "brute", "--genus", "0", "--profile", "10000",
      "--brute-sheets", "10000"), "exceeds work bound"),
    (("hurwitz", "--engine", "brute", "--genus", "0", "--profile", "1000000",
      "--brute-sheets", "1000000"), "estimate 57137942862 exceeds work bound"),
    # the genus-9 table is refused before the kernels reach t^2000
    (("verify", "fp-identity", "--gmax", "1000"), "k=11 exceeds bound 10"),
], ids=["brute-2000-sheets", "brute-10000-sheets", "brute-1000000-sheets", "fp-identity-gmax-1000"])
def test_raised_bounds_fail_fast(argv, message):
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr
