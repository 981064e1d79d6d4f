"""The suite's own guard on pytest.approx (tests/conftest.py)."""

import pytest


def test_approx_refuses_a_tiny_expected_value_without_abs():
    # with its default abs=1e-12, approx(5.21e-99) would accept 0
    with pytest.raises(ValueError, match=r"^pytest.approx of 5.21e-99 needs abs=: "):
        pytest.approx(5.21e-99, rel=1e-13)
    with pytest.raises(ValueError, match=r"^pytest.approx of 3e-13 needs abs=: "):
        pytest.approx([1.0, -3e-13])
    with pytest.raises(ValueError, match=r"^pytest.approx of 1e-20 needs abs=: "):
        pytest.approx({"dor": 1e-20})
    assert 0.0 != pytest.approx(5.21e-99, rel=1e-13, abs=0.0)
    # zero, values at or above the tolerance, and non-numbers pass through
    assert 0.0 == pytest.approx(0.0)
    assert [1e-12, 1.0] == pytest.approx([1e-12, 1.0])
    assert "a" == pytest.approx("a")
