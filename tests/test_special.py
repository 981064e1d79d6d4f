import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leolink import special
from leolink.special import NonConvergent, confluent_1f1


class TestConfluent1F1:
    def test_at_zero(self):
        assert confluent_1f1(2.0, 1.0, 0.0) == 1.0

    def test_exponential_case(self):
        assert confluent_1f1(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_high_precision_oracle(self):
        # mpmath hyp1f1 at 40 digits: 20.374626524860755141
        assert confluent_1f1(10.1, 1.0, 0.5) == pytest.approx(
            20.374626524860755, rel=1e-12
        )

    def test_exponential_identity_grid(self):
        for x in [0.0, 0.5, 3.0, 11.0, 30.0]:
            assert confluent_1f1(1.0, 1.0, x) == pytest.approx(
                math.exp(x), rel=special.SERIES_REL_TOL * 10
            )

    def test_negative_integer_a_terminates(self):
        # polynomial case: 1F1(-3; 1; x) has 4 terms
        want = float(mpmath.hyp1f1(-3, 1, 2.5))
        assert confluent_1f1(-3.0, 1.0, 2.5) == pytest.approx(want, rel=1e-12)

    def test_nonpositive_integer_b_rejected(self):
        with pytest.raises(ValueError):
            confluent_1f1(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            confluent_1f1(1.0, -2.0, 1.0)

    def test_nonconvergent(self, monkeypatch):
        monkeypatch.setattr(special, "SERIES_MAX_TERMS", 50)
        with pytest.raises(NonConvergent, match="within 50 terms"):
            confluent_1f1(5.0, 1.0, 50.0)

    def test_kummer_recurrence(self):
        # b M(a;b;x) - b M(a-1;b;x) - x M(a;b+1;x) = 0
        for a in [0.7, 1.5, 3.7, 10.1]:
            for b in [1.0, 2.5]:
                for x in [0.1, 1.0, 5.0, 20.0]:
                    lhs = (
                        b * confluent_1f1(a, b, x)
                        - b * confluent_1f1(a - 1.0, b, x)
                        - x * confluent_1f1(a, b + 1.0, x)
                    )
                    scale = abs(b * confluent_1f1(a, b, x))
                    assert abs(lhs) / scale < 1e-8

    @given(
        a=st.floats(min_value=0.5, max_value=15, allow_nan=False),
        b=st.floats(min_value=0.5, max_value=5, allow_nan=False),
    )
    def test_unit_at_origin(self, a, b):
        assert confluent_1f1(a, b, 0.0) == 1.0


class TestSeriesControl:
    def test_defaults(self):
        assert special.SERIES_REL_TOL == 1e-12
        assert special.SERIES_MAX_TERMS == 10_000

    def test_default_message(self):
        # 1F1(1.5; 1; 929) is past double range, so its series never
        # settles; the message names the tolerance and cap as it always has
        with pytest.raises(NonConvergent) as info:
            confluent_1f1(1.5, 1.0, 929.0)
        assert str(info.value) == ("1F1(1.5; 1.0; 929.0) did not reach rel_tol=1e-12 "
                                   "within 10000 terms")
