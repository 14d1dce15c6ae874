import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_hodge import cli, verify
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


def test_bad_arguments_exit_1(capsys):
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "2,x")[0] == 1
    assert run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "0,1")[0] == 1
    assert main(["hurwitz", "--genus", "0", "--profile", "3", "--engine", "magic"]) == 1
    assert main(["verify", "nonsense"]) == 1
    assert main([]) == 1
    for bound in ("-3", "0"):
        code, _, err = run_cli(capsys, "hodge", "--genus", "1", "--points", "1", "--grid-bound", bound)
        assert code == 1 and "grid_bound must be a positive integer" in err


def test_infeasible_exit_2(capsys):
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "7", "--engine", "brute")
    assert code == 2 and "sheet bound" in err
    code, _, err = run_cli(capsys, "hodge", "--genus", "2", "--points", "1", "--grid-bound", "3")
    assert code == 2 and "grid too small" in err
    code, _, err = run_cli(capsys, "hurwitz", "--genus", "0", "--profile", "11")
    assert code == 2


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


def test_reused_parser_carries_no_state(capsys, monkeypatch):
    sequence = [
        ("hurwitz", "--genus", "0", "--profile", "2,2", "--engine", "brute", "--format", "record"),
        # auto answers 7 sheets, which brute force refuses with exit 2
        ("hurwitz", "--genus", "0", "--profile", "7", "--format", "record"),
        ("hurwitz", "--genus", "0", "--profile", "2,1"),
        ("hurwitz", "--genus", "0", "--profile", "3", "--engine", "magic"),
        ("hurwitz", "--genus", "1", "--profile", "2"),
        ("verify", "genus0"),
        ("hodge", "--genus", "1", "--points", "1", "--format", "table"),
        ("hodge", "--genus", "1", "--points", "1"),
    ]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run_cli(capsys, *argv))
    assert [result[0] for result in fresh] == [0, 0, 0, 1, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [run_cli(capsys, *sequence[0])]
    parser = cli._PARSER
    reused += [run_cli(capsys, *argv) for argv in sequence[1:]]
    assert cli._PARSER is parser
    assert reused == fresh


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
    )
    assert result.returncode == 0
    assert result.stdout == "4\n"


def test_huge_grid_bound_fails_fast():
    # the corner profile trips the engine's bound before the grid is listed
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", "hodge", "--genus", "1", "--points", "3",
         "--grid-bound", "1000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "exceeds bound" in result.stderr


def test_infeasible_default_grid_fails_fast():
    # the count-floor corner trips the engine's bound before the rank probe
    result = subprocess.run(
        [sys.executable, "-m", "hurwitz_hodge", "hodge", "--genus", "5", "--points", "4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "exceeds bound" in result.stderr
