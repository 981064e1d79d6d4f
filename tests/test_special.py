from leolink import special


class TestSeriesControl:
    def test_defaults(self):
        assert special.SERIES_REL_TOL == 1e-12
        assert special.SERIES_MAX_TERMS == 10_000
