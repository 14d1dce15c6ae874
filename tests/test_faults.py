"""The fault table: one injected fault per row, the command run under it,
its exit code and its first failing line.

A fault is a ``monkeypatch`` of one engine function at one key, installed
on the module attribute its callers go through.  A row whose check should
catch the fault gives the line that names it (a ``fail`` line on stdout,
else the first line on stderr); a row whose check cannot see the fault
passes, so that a gap in the checks is written down here.
"""

import pytest

from hurwitz_hodge import engines
from hurwitz_hodge.cli import main


def _connected_plus_one_at_1_21(monkeypatch):
    # h(1; 2,1) = 40 becomes 41, whatever order the poles come in
    original = engines.connected_hurwitz

    def faulty(g, profile, **bounds):
        value = original(g, profile, **bounds)
        return value + 1 if (g, sorted(profile)) == (1, [1, 2]) else value

    monkeypatch.setattr(engines, "connected_hurwitz", faulty)


def _brute_plus_one_at_1_21(monkeypatch):
    # brute force counts h(1; 2,1) = 40 as 41, whatever order the poles come in
    original = engines.brute_force_hurwitz

    def faulty(g, profile, **bounds):
        value = original(g, profile, **bounds)
        return value + 1 if (g, sorted(profile)) == (1, [1, 2]) else value

    monkeypatch.setattr(engines, "brute_force_hurwitz", faulty)


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
]


@pytest.mark.parametrize("fault, argv, code, first_failing", ROWS,
                         ids=[f"{fault.__name__[1:]}-{'-'.join(argv)}" for fault, argv, _, _ in ROWS])
def test_fault_table(capsys, monkeypatch, fault, argv, code, first_failing):
    fault(monkeypatch)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    failing = [line for line in captured.out.splitlines() if line.endswith(" fail")]
    failing += captured.err.splitlines()
    assert (failing[0] if failing else None) == first_failing
