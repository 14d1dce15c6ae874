"""The fault table: one injected fault per row, the command run under it,
its exit code and its first failing line.

A fault is a ``monkeypatch`` of one function at one key, installed on the
module attribute its callers go through, or one record in a cache file
that the row's command names (``CACHE`` in its argv and its failing line).  A row whose check should
catch the fault gives the line that names it (a ``fail`` line on stdout,
else the first line on stderr); a row whose check cannot see the fault
passes, so that a gap in the checks is written down here.
"""

import pytest

from hurwitz_hodge import cutjoin, engines, hodge
from hurwitz_hodge.cli import main


def _connected_plus_one_at_1_21(monkeypatch, tmp_path):
    # h(1; 2,1) = 40 becomes 41, whatever order the poles come in
    original = engines.connected_hurwitz

    def faulty(g, profile, **bounds):
        value = original(g, profile, **bounds)
        return value + 1 if (g, sorted(profile)) == (1, [1, 2]) else value

    monkeypatch.setattr(engines, "connected_hurwitz", faulty)


def _brute_plus_one_at_1_21(monkeypatch, tmp_path):
    # brute force counts h(1; 2,1) = 40 as 41, whatever order the poles come in
    original = engines.brute_force_hurwitz

    def faulty(g, profile, **bounds):
        value = original(g, profile, **bounds)
        return value + 1 if (g, sorted(profile)) == (1, [1, 2]) else value

    monkeypatch.setattr(engines, "brute_force_hurwitz", faulty)


def _cutjoin_plus_one_at_1_21(monkeypatch, tmp_path):
    # cut-and-join counts h(1; 2,1) = 40 as 41, whatever order the poles come in
    original = cutjoin.cut_and_join_hurwitz

    def faulty(g, profile, **bounds):
        value = original(g, profile, **bounds)
        return value + 1 if (g, sorted(profile)) == (1, [1, 2]) else value

    monkeypatch.setattr(cutjoin, "cut_and_join_hurwitz", faulty)


def _plus_signs_in_evaluator(monkeypatch, tmp_path):
    # the table evaluator signs lambda_j with + instead of (-1)^j: the
    # alternating P of the odd-j-negated table is the all-plus P
    original = hodge.hurwitz_from_hodge

    def faulty(g, profile, table, **options):
        plus = hodge.HodgeTable()
        plus.values = {(g, n, b, j): (-1) ** j * v for (g, n, b, j), v in table.values.items()}
        return original(g, profile, plus, **options)

    monkeypatch.setattr(hodge, "hurwitz_from_hodge", faulty)


def _class_row_heavier_at_21(monkeypatch, tmp_path):
    # class (2,1)'s row gets z(mu) = 2 more weight at content 3, which keeps
    # its power sums divisible by z, so the engine's own guard passes; a
    # fresh class memo holds no count built from the true row, and the old
    # one is put back afterwards
    original = engines._class_row

    def faulty(mu):
        z, pairs = original(mu)
        if mu == (2, 1):
            pairs = tuple((c, w + z if c == 3 else w) for c, w in pairs)
        return z, pairs

    monkeypatch.setattr(engines, "_class_row", faulty)
    monkeypatch.setattr(engines, "_CLASSES", {})


def _cache(tmp_path, record, end="\n"):
    (tmp_path / "cache.txt").write_text(f"schema=hurwitz-hodge-cache/1\n{record}{end}")


def _cached_41_at_1_21(monkeypatch, tmp_path):
    # h(1; 2,1) = 40 is cached as 41
    _cache(tmp_path, "kind=hurwitz g=1 mu=2,1 engine=frobenius value=41")


def _cached_5_at_0_21(monkeypatch, tmp_path):
    # h(0; 2,1) = 4 is cached as 5
    _cache(tmp_path, "kind=hurwitz g=0 mu=2,1 engine=frobenius value=5")


def _cut_append_at_1_21(monkeypatch, tmp_path):
    # an append of h(1; 2,1) = 40 cut short after value=4: no line break
    _cache(tmp_path, "kind=hurwitz g=1 mu=2,1 engine=frobenius value=4", end="")


ROWS = [
    (_connected_plus_one_at_1_21, ("verify", "engines"), 3,
     "engines g=1/mu=2,1/brute-vs-frobenius 40 41 fail"),
    (_connected_plus_one_at_1_21, ("verify", "hodge-roundtrip"), 3,
     "error: nonzero residual extracting (g=1, n=2) integrals at profile (1, 1): 1/15"),
    (_connected_plus_one_at_1_21, ("verify", "genus0"), 0, None),
    (_connected_plus_one_at_1_21, ("verify", "fp-identity"), 0, None),
    # a blind spot: 41 * #Aut * prod k = 82 is an integer, so the LL check
    # passes the wrong count
    (_connected_plus_one_at_1_21, ("verify", "degll"), 0, None),
    (_brute_plus_one_at_1_21, ("hurwitz", "--genus", "1", "--profile", "2,1"), 3,
     "error: engines disagree on genus 1, profile (2, 1): frobenius=40, brute=41"),
    (_brute_plus_one_at_1_21, ("verify", "engines"), 3,
     "engines g=1/mu=2,1/brute-vs-frobenius 41 40 fail"),
    # a gap: an engine chosen by name is not cross-checked, so 41 is printed
    (_brute_plus_one_at_1_21, ("hurwitz", "--engine", "brute", "--genus", "1", "--profile", "2,1"), 0, None),
    # neither suite calls brute force
    (_brute_plus_one_at_1_21, ("verify", "genus0"), 0, None),
    (_brute_plus_one_at_1_21, ("verify", "degll"), 0, None),
    (_cutjoin_plus_one_at_1_21, ("verify", "engines"), 3,
     "engines g=1/mu=2,1/frobenius-vs-cutjoin 40 41 fail"),
    # a gap: an engine chosen by name is not cross-checked, so 41 is printed
    (_cutjoin_plus_one_at_1_21, ("hurwitz", "--engine", "cutjoin", "--genus", "1", "--profile", "2,1"), 0,
     None),
    # none of these suites calls cut-and-join
    (_cutjoin_plus_one_at_1_21, ("verify", "hodge-roundtrip"), 0, None),
    (_cutjoin_plus_one_at_1_21, ("verify", "genus0"), 0, None),
    (_cutjoin_plus_one_at_1_21, ("verify", "degll"), 0, None),
    (_plus_signs_in_evaluator, ("verify", "hodge-roundtrip"), 3,
     "hodge-roundtrip g=1/mu=1/in-grid 0 1/6 fail"),
    # the sine-kernel identity reads the tables, not the evaluator
    (_plus_signs_in_evaluator, ("verify", "fp-identity"), 0, None),
    # the extraction carries its own sign and calls the evaluator only to
    # name a nonzero residual
    (_plus_signs_in_evaluator, ("hodge", "--genus", "1", "--points", "1"), 0, None),
    # a gap: a hit is checked only for an integral LL degree (41 * 2 = 82),
    # so 41 is printed
    (_cached_41_at_1_21, ("hurwitz", "--genus", "1", "--profile", "2,1", "--cache", "CACHE"), 0, None),
    (_cached_41_at_1_21, ("verify", "degll", "--cache", "CACHE"), 3,
     "degll g=1/mu=2,1/frobenius 40 41 fail"),
    # a gap: a genus-0 hit is not compared with the closed form, so 5 is printed
    (_cached_5_at_0_21, ("hurwitz", "--genus", "0", "--profile", "2,1", "--cache", "CACHE"), 0, None),
    (_cached_5_at_0_21, ("verify", "degll", "--cache", "CACHE"), 3,
     "degll g=0/mu=2,1/closed-form 4 5 fail"),
    # the record's LL degree 4 * 2 = 8 is an integer, but it lacks its line
    # break, so it is never read
    (_cut_append_at_1_21, ("hurwitz", "--genus", "1", "--profile", "2,1", "--cache", "CACHE"), 1,
     "error: cache file CACHE: line 2 lacks a line break: an append was cut short or the file was edited"),
    (_cut_append_at_1_21, ("verify", "degll", "--cache", "CACHE"), 1,
     "error: cache file CACHE: line 2 lacks a line break: an append was cut short or the file was edited"),
    # h(0; 2,1) = 4 reads as 17/2 and h(1; 2,1) = 40 as 161/2
    (_class_row_heavier_at_21, ("verify", "engines"), 3,
     "engines g=0/mu=2,1/brute-vs-frobenius 4 17/2 fail"),
    (_class_row_heavier_at_21, ("verify", "genus0"), 3, "genus0 mu=2,1 4 17/2 fail"),
    (_class_row_heavier_at_21, ("verify", "hodge-roundtrip"), 3,
     "error: nonzero residual extracting (g=0, n=3) integrals at profile (1, 1, 1): 3017/640"),
    # a blind spot: 161/2 * #Aut * prod k = 161 is an integer, so the LL
    # check passes the wrong count
    (_class_row_heavier_at_21, ("verify", "degll"), 0, None),
    # the sine-kernel identity reads one-part classes only
    (_class_row_heavier_at_21, ("verify", "fp-identity"), 0, None),
    (_class_row_heavier_at_21, ("hurwitz", "--genus", "1", "--profile", "2,1"), 3,
     "error: engines disagree on genus 1, profile (2, 1): frobenius=161/2, brute=40"),
    # a gap: an engine chosen by name is not cross-checked, so 161/2 is printed
    (_class_row_heavier_at_21, ("hurwitz", "--engine", "frobenius", "--genus", "1", "--profile", "2,1"), 0,
     None),
    (_class_row_heavier_at_21, ("hodge", "--genus", "1", "--points", "2"), 3,
     "error: nonzero residual extracting (g=1, n=2) integrals at profile (1, 1): 27/10"),
]


@pytest.mark.parametrize("fault, argv, code, first_failing", ROWS,
                         ids=[f"{fault.__name__[1:]}-{'-'.join(argv)}" for fault, argv, _, _ in ROWS])
def test_fault_table(capsys, monkeypatch, tmp_path, fault, argv, code, first_failing):
    fault(monkeypatch, tmp_path)
    cache = str(tmp_path / "cache.txt")
    argv = [cache if arg == "CACHE" else arg for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    failing = [line for line in captured.out.splitlines() if line.endswith(" fail")]
    failing += [line.replace(cache, "CACHE") for line in captured.err.splitlines()]
    assert (failing[0] if failing else None) == first_failing


@pytest.mark.parametrize("fault, genus, value", [(_cached_41_at_1_21, "1", "41"), (_cached_5_at_0_21, "0", "5")])
def test_cache_gap_prints_the_cached_value(capsys, monkeypatch, tmp_path, fault, genus, value):
    # the gap rows above, with what they print
    fault(monkeypatch, tmp_path)
    assert main(["hurwitz", "--genus", genus, "--profile", "2,1", "--cache", str(tmp_path / "cache.txt")]) == 0
    assert capsys.readouterr().out == value + "\n"
