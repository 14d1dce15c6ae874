from fractions import Fraction

import pytest

from hurwitz_hodge import series
from hurwitz_hodge.hodge import extract_hodge_integrals
from hurwitz_hodge.report import all_pass
from hurwitz_hodge.series import (
    hodge_side_coefficient,
    sine_kernel,
    verify_faber_pandharipande,
)

F = Fraction


def test_sine_kernel_examples():
    kernel = sine_kernel(1, 6)
    assert kernel[2] == F(1, 12)
    assert kernel[4] == F(1, 240)
    for k in range(1, 7):
        assert sine_kernel(k, 4)[2] == F(k + 1, 24)


def test_sine_kernel_structure():
    for k in (1, 3):
        kernel = sine_kernel(k, 8)
        assert kernel[0] == 1
        assert all(kernel[i] == 0 for i in range(1, 9, 2))


def test_sine_kernel_order_validation():
    with pytest.raises(ValueError):
        sine_kernel(1, 3)
    with pytest.raises(ValueError):
        sine_kernel(1, 0)
    with pytest.raises(ValueError):
        sine_kernel(0, 4)


def test_sine_kernel_multiplicativity():
    # exponents add: (k1+1) + (k2+1) = (k1+k2+1) + 1
    order = 8

    def cauchy(a, b):
        return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1)]

    for k1, k2 in [(1, 1), (1, 2), (2, 3)]:
        assert sine_kernel(k1 + k2 + 1, order) == cauchy(
            sine_kernel(k1, order), sine_kernel(k2, order)
        )


def test_sine_kernel_closed_forms():
    for k in range(1, 13):
        m = k + 1
        kernel = sine_kernel(k, 6)
        assert kernel[4] == F((k + 1) * (5 * k + 7), 5760)
        assert kernel[6] == F(m * (35 * m * m + 42 * m + 16), 2903040)


def test_hodge_side_examples():
    t11 = extract_hodge_integrals(1, 1)
    t21 = extract_hodge_integrals(2, 1)
    assert hodge_side_coefficient(1, 1, t11) == F(1, 12)
    assert hodge_side_coefficient(1, 3, t11) == F(1, 6)
    assert hodge_side_coefficient(2, 1, t21) == F(1, 240)


def test_hodge_side_missing_key():
    from hurwitz_hodge.hodge import HodgeTable

    with pytest.raises(KeyError):
        hodge_side_coefficient(1, 1, HodgeTable())


def test_genus_below_one_rejected():
    with pytest.raises(ValueError, match="genus 1"):
        hodge_side_coefficient(0, 1, extract_hodge_integrals(1, 1))
    with pytest.raises(ValueError, match="at least 1"):
        verify_faber_pandharipande(0)


def test_identity_g1():
    checks = verify_faber_pandharipande(1)
    assert all_pass(checks)
    assert [c.key for c in checks] == [f"g=1/k={k}" for k in (1, 2, 3, 4, 5)]
    assert [c.actual for c in checks] == ["1/12", "1/8", "1/6", "5/24", "1/4"]


def test_identity_g2_closed_forms():
    checks = verify_faber_pandharipande(2)
    assert all_pass(checks)
    assert len(checks) == 10
    for check in checks:
        g = int(check.key.split("/")[0].split("=")[1])
        k = int(check.key.split("/")[1].split("=")[1])
        if g == 1:
            assert Fraction(check.actual) == F(k + 1, 24)
        else:
            assert Fraction(check.actual) == F((k + 1) * (5 * k + 7), 5760)


def test_identity_reports_mismatch_loudly(monkeypatch):
    # a corrupted table must yield fail records, not silence
    table = extract_hodge_integrals(1, 1)
    table.values[(1, 1, (1,), 0)] += 1
    monkeypatch.setattr(series, "extract_hodge_integrals", lambda g, n: table)
    checks = verify_faber_pandharipande(1)
    assert [c.status for c in checks] == ["fail"] * 5
