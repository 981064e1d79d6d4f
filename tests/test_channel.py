import csv
import math
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.optimize.elementwise import find_root

from leolink import channel
from leolink.channel import (
    DopplerSpec,
    GainPartition,
    SrFading,
    StateProbMatrix,
    afd,
    doppler_moments,
    lcr,
    partitions,
    sr_cdf,
    sr_cdf_quadrature,
    sr_pdf,
    state_prob_matrix,
    state_probs,
    tail_mass,
)
from leolink.montecarlo import sample_sr_gain
from leolink.special import NonConvergent

from fading_sets import ABDI_SETS, LOS_SETS
from make_lcr_table import TABLE as LCR_TABLE
from make_lcr_table import reference_thresholds

TABLE_FADING = SrFading(m=10.1, b0=0.126, omega=0.825)
TABLE_DOPPLER = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=1.55, aoa_width=24.2)
REFERENCE = (TABLE_FADING.m, TABLE_FADING.b0, TABLE_FADING.omega)


class TestSrFading:
    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            SrFading(m=0.2, b0=0.126, omega=0.825)

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            SrFading(m=1.0, b0=0.0, omega=0.1)
        with pytest.raises(ValueError):
            SrFading(m=1.0, b0=0.1, omega=-0.1)

    @pytest.mark.parametrize("field, message", [
        ("m", "m must be >= 0.5, got nan"),
        ("b0", "b0 must be > 0, got nan"),
        ("omega", "omega must be >= 0, got nan"),
    ])
    def test_rejects_nan(self, field, message):
        values = {"m": 10.1, "b0": 0.126, "omega": 0.825, field: math.nan}
        with pytest.raises(ValueError, match=f"^{message}$"):
            SrFading(**values)

    @pytest.mark.parametrize("field, value, message", [
        ("m", math.nextafter(0.5, 0.0), "m must be >= 0.5, got 0.49999999999999994"),
        ("b0", 0.0, "b0 must be > 0, got 0.0"),
        ("omega", -5e-324, "omega must be >= 0, got -5e-324"),
    ], ids=["m", "b0", "omega"])
    def test_rejects_its_bound(self, field, value, message):
        # a > check refuses its bound, a >= check the float just below it
        values = {"m": 10.1, "b0": 0.126, "omega": 0.825, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            SrFading(**values)

    def test_derived_parameters(self):
        f = TABLE_FADING
        assert f.beta == pytest.approx(1.0 / 0.252, rel=1e-12)
        assert f.beta > f.delta >= 0.0
        assert f.alpha > 0.0
        assert f.mean_gain == pytest.approx(1.077, rel=1e-12)

    def test_integer_detection(self):
        assert SrFading(m=2.0, b0=0.2, omega=0.5).integer_m == 2
        assert TABLE_FADING.integer_m is None


class TestSrPdf:
    def test_rayleigh_reduction_at_zero(self):
        # m=1, omega=0, b0=0.5 collapses to a unit-mean exponential
        f = SrFading(m=1.0, b0=0.5, omega=0.0)
        assert sr_pdf(f, 0.0) == pytest.approx(1.0, rel=1e-12)
        for y in [0.2, 1.0, 3.5]:
            assert sr_pdf(f, y) == pytest.approx(math.exp(-y), rel=1e-12)

    @pytest.mark.parametrize("fading", [TABLE_FADING, SrFading(2.0, 0.2, 0.5)])
    def test_normalization(self, fading):
        total, _ = integrate.quad(
            lambda y: sr_pdf(fading, y), 0.0, 60.0,
            epsabs=1e-9, epsrel=1e-9, limit=200, points=[fading.mean_gain],
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_reference_value(self):
        # 40-digit series evaluation of the density at y = 1
        assert sr_pdf(TABLE_FADING, 1.0) == pytest.approx(
            0.54170609511413874, rel=1e-12
        )

    def test_array_matches_scalar(self):
        ys = np.linspace(0.0, 6.0, 40)
        arr = sr_pdf(TABLE_FADING, ys)
        for y, v in zip(ys, arr):
            assert v == pytest.approx(sr_pdf(TABLE_FADING, float(y)), rel=1e-12)

    @given(y=st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, y):
        assert sr_pdf(TABLE_FADING, y) >= 0.0


class TestSrCdf:
    def test_zero(self):
        assert sr_cdf(TABLE_FADING, np.array([0.0]))[0] == 0.0

    def test_total_probability(self):
        for fading in [TABLE_FADING, SrFading(2.0, 0.2, 0.5)]:
            assert sr_cdf(fading, np.array([1e6]))[0] == pytest.approx(1.0, abs=1e-8)

    def test_integer_m_closed_vs_quadrature(self):
        f = SrFading(2.0, 0.2, 0.5)
        closed = sr_cdf(f, np.array([0.7]))[0]
        (quad,) = sr_cdf_quadrature(f, np.array([0.7]))
        assert closed == pytest.approx(0.518263618025867237, rel=1e-10)
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize(
        "params",
        [pytest.param((float(m), 0.126, 0.825), id=str(m)) for m in (1, 2, 5)]
        + [pytest.param(p, id=name) for name, p in {**ABDI_SETS, **LOS_SETS}.items()],
    )
    def test_closed_vs_quadrature_grid(self, params):
        f = SrFading(*params)
        xs = np.linspace(0.02, 8.0, 25) * f.mean_gain
        quad = sr_cdf_quadrature(f, xs)
        assert np.max(np.abs(sr_cdf(f, xs) - quad)) < 1e-8
        assert np.max(np.abs(tail_mass(f, xs) - (1.0 - quad))) < 1e-8

    def test_infinite_and_nan_gains(self):
        assert sr_cdf(TABLE_FADING, np.array([math.inf]))[0] == 1.0
        assert tail_mass(TABLE_FADING, np.array([math.inf]))[0] == 0.0
        assert sr_cdf_quadrature(TABLE_FADING, np.array([math.inf]))[0] == pytest.approx(
            1.0, abs=1e-10)
        for fn in (sr_cdf, tail_mass, sr_cdf_quadrature):
            for x in (math.nan, -1.0):
                with pytest.raises(ValueError, match="power gain must be >= 0"):
                    fn(TABLE_FADING, np.array([0.5, x]))
            with pytest.raises(ValueError, match="1-D"):
                fn(TABLE_FADING, 0.5)

    def test_nakagami_limit(self):
        # b0 -> 0 leaves the Nakagami line of sight, power Gamma(m, omega/m);
        # here r = 1 - 4e-8, about 1e9 terms summed over the mixture index
        f = SrFading(2.0, 1e-8, 1.0)
        for x in (0.5, 1.0, 2.0):
            (cdf,), (tail,) = sr_cdf(f, np.array([x])), tail_mass(f, np.array([x]))
            assert cdf == pytest.approx(special.gammainc(2.0, 2.0 * x), abs=1e-7)
            assert tail == pytest.approx(special.gammaincc(2.0, 2.0 * x), abs=1e-7)

    def test_monotone(self):
        xs = np.linspace(0.0, 8.0, 60)
        vals = [sr_cdf(TABLE_FADING, np.array([x]))[0] for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] <= 1.0

    def test_many_matches_scalar(self):
        # unsorted, with repeats and zeros
        xs = np.array([3.0, 0.0, 0.5, 40.0, 0.5, 1e-9, 0.0, 6.0, 0.01, 3.0])
        for fn in (sr_cdf, tail_mass):
            many = fn(TABLE_FADING, xs)
            assert many.shape == xs.shape
            for x, v in zip(xs, many):
                assert abs(v - fn(TABLE_FADING, np.array([x]))[0]) <= 1e-15

    def test_tail_mass_complements_cdf(self):
        for fading in [TABLE_FADING, SrFading(3.0, 0.2, 0.6)]:
            for x in [0.05, 0.5, 1.0, 2.5, 5.0]:
                assert tail_mass(fading, np.array([x]))[0] == pytest.approx(
                    1.0 - sr_cdf(fading, np.array([x]))[0], abs=1e-9
                )

    def test_tail_mass_deep_tail_positive(self):
        # far beyond float complement resolution, but representable directly
        s = tail_mass(TABLE_FADING, np.array([128.0]))[0]
        assert 0.0 < s < 1e-100

    @pytest.mark.parametrize("x", [84.0, 226.0])  # tails near 5e-99 and 4e-280
    def test_tail_mass_deep_tail_reference(self, x):
        f = TABLE_FADING
        with mpmath.workdps(40):
            m, b0, om = mpmath.mpf(f.m), mpmath.mpf(f.b0), mpmath.mpf(f.omega)
            alpha = (2 * b0 * m / (2 * b0 * m + om)) ** m / (2 * b0)
            beta = 1 / (2 * b0)
            delta = om / (2 * b0 * (2 * b0 * m + om))

            def pdf(y):
                return alpha * mpmath.exp(-beta * y) * mpmath.hyp1f1(m, 1, delta * y)

            # quad's tolerance is absolute: integrate the density relative
            # to its value at x
            scale = pdf(x)
            want = float(scale * mpmath.quad(lambda u: pdf(x + u) / scale, [0, 1, 4, 16, 64]))
        assert tail_mass(f, np.array([x]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)

    # n = 1..16 and log-spaced to 2000 on the property sets; log-spaced to
    # 5e4 on the line-of-sight sets (mpmath stops converging not far above).
    # Either route alone misses a bound: betainc(m, n, q) is off by 1.9e-15
    # on Abdi's average set, betaincc(n, m, r) by 1.0e-13 and 4.7e-13 on the
    # line-of-sight sets.
    @pytest.mark.parametrize("params,n,bound", [
        *[pytest.param(p, np.concatenate([np.arange(1.0, 17.0),
                                          np.round(np.geomspace(17.0, 2000.0, 12))]),
                       1e-15, id=name)
          for name, p in {"reference": REFERENCE, **ABDI_SETS}.items()],
        *[pytest.param(p, np.round(np.geomspace(1.0, 5e4, 16)), 4e-15, id=name)
          for name, p in LOS_SETS.items()],
    ])
    def test_nb_below_matches_mpmath(self, params, n, bound):
        # P(K < n) = I_q(m, n) for the mixture index K ~ NB(m, r), q = 1 - r
        fading = SrFading(*params)
        r, q = channel._mixture(fading)
        with mpmath.workdps(50):
            want = np.array([float(mpmath.betainc(fading.m, v, 0, q, regularized=True))
                             for v in n.tolist()])
        got = channel._nb_below(n, fading.m, r, q)
        assert np.max(np.abs(got / want - 1.0)) <= bound


ORACLE_SETS = {**ABDI_SETS, **LOS_SETS, "reference": REFERENCE, "m2": (2.0, 0.2, 0.5)}


def quad_cdf(fading: SrFading, x: float) -> float:
    """The CDF at x by scipy's quad, on the intervals and at the tolerance
    of sr_cdf_quadrature."""
    hi, mean = min(x, channel._tail_cutoff(fading)), fading.mean_gain
    pieces = [(0.0, hi)] if hi <= mean else [(0.0, mean), (mean, hi)]
    return sum(integrate.quad(lambda y: sr_pdf(fading, y), a, b, epsabs=1e-10, epsrel=1e-10,
                              limit=200)[0] for a, b in pieces)


class TestQuadrature:
    @pytest.mark.parametrize("params", ORACLE_SETS.values(), ids=ORACLE_SETS)
    def test_normalization_matches_quad(self, params):
        f = SrFading(*params)
        cutoff = channel._tail_cutoff(f)
        want, _ = integrate.quad(lambda y: sr_pdf(f, y), 0.0, cutoff, epsabs=1e-12,
                                 epsrel=1e-12, limit=300, points=[f.mean_gain])
        got = channel.quadrature(lambda y: sr_pdf(f, y), [0.0, f.mean_gain, cutoff],
                                 1e-12, 1e-12)
        assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("params", ORACLE_SETS.values(), ids=ORACLE_SETS)
    def test_cdf_matches_quad(self, params):
        f = SrFading(*params)
        xs = np.linspace(0.05, 4.0, 25) * f.mean_gain
        want = np.array([quad_cdf(f, x) for x in xs.tolist()])
        assert np.max(np.abs(sr_cdf_quadrature(f, xs) - want)) <= 1e-12

    @pytest.mark.parametrize("f, edges, want", [
        (np.sin, [0.0, math.pi], 2.0),
        (np.exp, [0.0, 1.0, 5.0], math.expm1(5.0)),
        (np.sqrt, [0.0, 4.0], 16.0 / 3.0),  # the slope is infinite at 0
        (np.cos, [1.0, 1.0], 0.0),
    ])
    def test_known_integrals(self, f, edges, want):
        assert channel.quadrature(f, edges, 0.0, 1e-12) == pytest.approx(want, rel=1e-12)

    def test_calls_the_integrand_once_per_pass_on_a_2d_array(self):
        shapes = []

        def f(y):
            shapes.append(y.shape)
            return np.exp(-y)

        channel.quadrature(f, [0.0, 1.0, 30.0], 1e-12, 1e-12)
        # the two panels and their four halves, then only the panels still open
        assert shapes[0] == (6, channel._GL_ORDER)
        assert all(len(s) == 2 and s[1] == channel._GL_ORDER and s[0] % 3 == 0 for s in shapes)

    def test_nan_integrand_raises(self):
        calls = []

        def f(y):
            calls.append(y.size)
            return np.where(y > 0.5, np.nan, 1.0)

        with pytest.raises(NonConvergent, match=r"^quadrature over \[0.0, 1.0\]: the integrand "
                                                r"is not finite$"):
            channel.quadrature(f, [0.0, 1.0], 1e-12, 1e-12)
        assert len(calls) == 1

    def test_panel_cap_raises(self):
        calls = []

        def f(y):
            calls.append(y.size)
            return np.sin(1e6 * y)

        with pytest.raises(NonConvergent, match=r"^quadrature over \[0.0, 1.0\] did not "
                                                r"converge within 1000 panels$"):
            channel.quadrature(f, [0.0, 1.0], 1e-12, 1e-12)
        # every open panel halves each pass: ten passes reach the cap
        assert len(calls) <= 11


class TestPartition:
    def test_requires_leading_zero(self):
        with pytest.raises(ValueError):
            GainPartition(thresholds=np.array([0.1, 0.5]), top_mean_gain=1.0)

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            GainPartition(thresholds=np.array([0.0, 0.5, 0.4]), top_mean_gain=1.0)

    @pytest.mark.parametrize("thresholds", [[0.0, math.nan], [0.0, math.nan, 1.0],
                                            [0.0, 0.5, math.nan]])
    def test_rejects_nan_threshold(self, thresholds):
        with pytest.raises(ValueError,
                           match="^thresholds must be strictly increasing above mu_0$"):
            GainPartition(thresholds=np.array(thresholds), top_mean_gain=2.0)

    def test_rejects_nan_top_mean_gain(self):
        with pytest.raises(ValueError, match="^top_mean_gain below the top threshold's gain$"):
            GainPartition(thresholds=np.array([0.0, 0.5]), top_mean_gain=math.nan)

    def test_degenerate_two_state(self):
        part = GainPartition(thresholds=np.array([0.0, 0.0]), top_mean_gain=1.0)
        pi = state_probs(TABLE_FADING, part)
        assert pi[0] == 0.0
        assert pi[1] == 1.0

    def test_probabilities_sum_to_one(self):
        part = GainPartition(thresholds=np.array([0.0, 0.3, 0.9]), top_mean_gain=1.0)
        pi = state_probs(TABLE_FADING, part)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.all(pi >= 0.0)

    def test_against_sampled_frequencies(self):
        part = GainPartition(thresholds=np.array([0.0, 0.3, 0.9]), top_mean_gain=1.0)
        pi = state_probs(TABLE_FADING, part)
        n = 1_000_000
        rng = np.random.Generator(np.random.Philox(20240301))
        gains = sample_sr_gain(TABLE_FADING, rng, n)
        freq = np.bincount(part.classify(gains), minlength=4)[1:] / n
        se = np.sqrt(pi * (1.0 - pi) / n)
        assert np.all(np.abs(freq - pi) <= 3.0 * se)

    def test_classify_edges(self):
        part = GainPartition(thresholds=np.array([0.0, 0.5, 1.0]), top_mean_gain=1.0)
        gains = np.array([0.0, 0.24, 0.25, 0.99, 1.0, 9.0])
        # amplitude regions [0, .5), [.5, 1), [1, inf) in gain: [0,.25), [.25,1), [1,inf)
        assert list(part.classify(gains)) == [1, 1, 2, 2, 3, 3]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        uppers=st.lists(st.floats(0.0, 1e100), min_size=1, max_size=63, unique=True),
        drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    )
    def test_classify_equals_binary_search(self, uppers, drawn):
        # K = 2 .. 64 states; the gains sit on every squared threshold and
        # its two neighbours, with 0, -1, inf, NaN and arbitrary floats
        thresholds = np.array([0.0] + sorted(uppers))
        part = GainPartition(thresholds=thresholds, top_mean_gain=math.inf)
        sq = thresholds**2
        gains = np.concatenate([
            sq, np.nextafter(sq, -np.inf), np.nextafter(sq, np.inf),
            [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan], drawn,
        ])
        want = np.searchsorted(sq, gains, side="right")
        got = part.classify(gains)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_matrix_shape_and_columns(self):
        part = GainPartition(thresholds=np.array([0.0, 0.3, 0.9]), top_mean_gain=1.0)
        pi = state_probs(TABLE_FADING, part)
        mat = state_prob_matrix(TABLE_FADING, part, 5)
        assert mat.probs.shape == (3, 5)
        for col in range(5):
            assert np.allclose(mat.probs[:, col], pi, rtol=0, atol=0)
            assert abs(mat.probs[:, col].sum() - 1.0) < 1e-9

    def test_single_column(self):
        part = GainPartition(thresholds=np.array([0.0, 0.3, 0.9]), top_mean_gain=1.0)
        mat = state_prob_matrix(TABLE_FADING, part, 1)
        assert mat.probs.shape == (3, 1)
        assert np.allclose(mat.probs[:, 0], state_probs(TABLE_FADING, part))

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            StateProbMatrix(probs=np.array([[0.6, 0.6], [0.6, 0.6]]))

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            StateProbMatrix(probs=np.array([[math.nan, 0.5], [0.5, 0.5]]))


class TestEqualProbabilityPartition:
    def test_equal_upper_masses(self):
        part = partitions(TABLE_FADING, np.array([0.354]), 8, None)[0][0]
        pi = state_probs(TABLE_FADING, part)
        upper = pi[1:]
        assert np.allclose(upper, upper[0], rtol=1e-6)
        assert abs(pi.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("params", list(LOS_SETS.values()), ids=list(LOS_SETS))
    def test_line_of_sight_partition(self, params):
        f = SrFading(*params)
        part = partitions(f, np.array([0.6 * math.sqrt(f.omega)]), 8, None)[0][0]
        pi = state_probs(f, part)
        assert np.allclose(pi[1:], pi[1], rtol=1e-6)
        assert abs(pi.sum() - 1.0) < 1e-9

    def test_explicit_thresholds(self):
        part = partitions(TABLE_FADING, np.array([0.3]), 4, [0.8, 1.2])[0][0]
        assert np.allclose(part.thresholds, [0.0, 0.3, 0.8, 1.2])

    def test_explicit_thresholds_wrong_count(self):
        with pytest.raises(ValueError):
            partitions(TABLE_FADING, np.array([0.3]), 4, [0.8])

    @pytest.mark.parametrize("uppers", [[0.3, 0.9], [0.9, 0.5], [0.9, 0.9]])
    def test_explicit_thresholds_must_rise_above_first(self, uppers):
        with pytest.raises(ValueError, match=r"^upper_thresholds must rise strictly above "
                           r"the first threshold 0\.354, got \[") as err:
            partitions(TABLE_FADING, np.array([0.354]), 4, uppers)
        assert str(uppers) in str(err.value)
        # in a batch, the first threshold that the values do not rise above
        with pytest.raises(ValueError, match="the first threshold 0.85, got"):
            partitions(TABLE_FADING, np.array([0.2, 0.85]), 4, [0.8, 1.2])

    def test_nan_first_threshold_is_refused_as_such(self):
        with pytest.raises(ValueError, match=r"^first_threshold must be >= 0, got nan$"):
            partitions(TABLE_FADING, np.array([np.nan]), 8, None)

    def test_nan_upper_threshold_is_refused_as_such(self):
        with pytest.raises(ValueError,
                           match=r"^upper_thresholds must be finite, got \[nan, 1\.2\]$"):
            partitions(TABLE_FADING, np.array([0.3]), 4, [np.nan, 1.2])

    def test_top_mean_gain_above_threshold(self):
        part = partitions(TABLE_FADING, np.array([0.354]), 8, None)[0][0]
        assert part.top_mean_gain > float(part.thresholds[-1]) ** 2

    def test_deep_tail_first_threshold(self):
        # first threshold far beyond the 1 - F float resolution
        part = partitions(TABLE_FADING, np.array([11.335]), 8, None)[0][0]
        assert np.all(np.diff(part.thresholds[1:]) > 0.0)
        tails = tail_mass(TABLE_FADING, part.thresholds[1:] ** 2)
        masses = tails[:-1] - tails[1:]
        assert all(m > 0.0 for m in masses)
        assert np.allclose(masses, masses[0], rtol=1e-6)

    def test_tail_mean_unconditional(self):
        assert top_mean_gain(TABLE_FADING, 0.0) == TABLE_FADING.mean_gain

    @pytest.mark.parametrize("params", [*ABDI_SETS.values(), *LOS_SETS.values()],
                             ids=[*ABDI_SETS, *LOS_SETS])
    def test_tail_mean_against_quadrature(self, params):
        f = SrFading(*params)
        for x in (0.5 * f.mean_gain, 3.0 * f.mean_gain):
            hi = x + 200.0 / (f.beta - f.delta)
            mass, _ = integrate.quad(lambda y: sr_pdf(f, y), x, hi, epsabs=0, epsrel=1e-12)
            moment, _ = integrate.quad(lambda y: y * sr_pdf(f, y), x, hi, epsabs=0,
                                       epsrel=1e-12)
            assert top_mean_gain(f, x) == pytest.approx(moment / mass, rel=1e-9)

    def test_tail_mean_increases(self):
        a = top_mean_gain(TABLE_FADING, 0.5)
        b = top_mean_gain(TABLE_FADING, 2.0)
        assert TABLE_FADING.mean_gain < a < b

    def test_tail_mean_above_infinity_is_refused(self):
        # no mass lies above an infinite gain: a top threshold pinned there
        # is refused, alone or among others
        for firsts in ([math.inf], [1.0, math.inf]):
            with pytest.raises(ValueError, match="no resolvable tail mass above x=inf"):
                partitions(TABLE_FADING, np.array(firsts), 2, [])


def top_mean_gain(fading: SrFading, x: float) -> float:
    """E[G | G >= x]: the top mean gain of the two-state partition whose
    one threshold, the first, is pinned at amplitude sqrt(x)."""
    return partitions(fading, np.array([math.sqrt(x)]), 2, [])[0][0].top_mean_gain


# The partition solve's bracket tolerance, as find_root takes it.
ROOT_TOL = {"xatol": channel._ROOT_XATOL, "xrtol": channel._ROOT_XRTOL,
            "fatol": 0.0, "frtol": 0.0}
# Each fading set with its first threshold: 0.6 sqrt(mean gain), 0.354 on
# the integer-m set, and 11.335 and 14 deep in the reference tail (2e-155
# and 1e-241; at 14 the tail at both bracket ends underflows to 0).
SOLVE_CASES = {
    **{name: (p, 0.6 * math.sqrt(SrFading(*p).mean_gain))
       for name, p in {**ABDI_SETS, **LOS_SETS}.items()},
    "integer-m": ((2.0, 0.2, 0.5), 0.354),
    "deep-tail": (REFERENCE, 11.335),
    "underflowing-bracket": (REFERENCE, 14.0),
}


def is_step(terms) -> bool:
    """Whether a pass is a Newton step: it holds the density series, and
    not the CDF of the pass before the solve, which holds the density at
    the knots of the start."""
    kinds = [series.key[0] for series, _ in terms]
    return "density" in kinds and "cdf" not in kinds


def recorded_solve(monkeypatch, fading, first):
    """The 8-state partition's one Newton solve: its arguments, its gains
    and the number of its steps."""
    solves, steps = [], []
    solver, poisson_sum = channel._tail_quantiles, channel._poisson_sum

    def recorded(*args):
        solves.append((args, solver(*args)))
        return solves[-1][1]

    def counted(*terms):
        steps.extend([1] * is_step(terms))
        return poisson_sum(*terms)

    with monkeypatch.context() as patched:
        patched.setattr(channel, "_tail_quantiles", recorded)
        patched.setattr(channel, "_poisson_sum", counted)
        partitions(fading, np.array([first]), 8, None)
    assert len(solves) == 1
    return (*solves[0], len(steps))


class TestBrentq:
    """channel._tail_quantiles, the partition's Newton solve. The class
    keeps the test ids of the bracketed root finders it replaced."""

    @pytest.mark.parametrize("params", [*ABDI_SETS.values(), REFERENCE, (2.0, 0.2, 0.5),
                                        *LOS_SETS.values()],
                             ids=[*ABDI_SETS, "reference", "integer-m", *LOS_SETS])
    def test_density_is_the_pdf(self, params):
        # beta times the density's series is the power-gain density: against
        # sr_pdf, and against a 40-digit sum of the same closed form at the
        # same beta x. On the line-of-sight sets sr_pdf's own 1F1 is off by
        # up to 1.4e-12 at these gains, so there only the latter holds.
        fading = SrFading(*params)
        x = np.array([1e-6, 0.1, 0.3, 0.6, 1.0, 1.5, 3.0, 8.0]) * fading.mean_gain
        y = fading.beta * x
        (dens,) = channel._poisson_sum((channel._density(fading), y))
        with mpmath.workdps(40):
            m, b0, omega = (mpmath.mpf(v) for v in params)
            r = omega / (2 * b0 * m + omega)
            want = [float(mpmath.exp(-mpmath.mpf(v)) * (1 - r) ** m
                          * mpmath.hyp1f1(m, 1, r * mpmath.mpf(v))) for v in y.tolist()]
        assert np.max(np.abs(dens / want - 1.0)) <= 1e-13
        if params not in LOS_SETS.values():
            assert np.max(np.abs(fading.beta * dens / sr_pdf(fading, x) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("params,first", list(SOLVE_CASES.values()), ids=list(SOLVE_CASES))
    def test_solved_gains_match_find_root(self, monkeypatch, params, first):
        # each gain within 1e-14 of find_root's on the tail function, the
        # brackets and the targets of the solve
        fading = SrFading(*params)
        (_, _, _, lo, hi, _, _, targets, _), gains, _ = recorded_solve(monkeypatch, fading, first)
        want = find_root(lambda g, t: tail_mass(fading, g) / t - 1.0, (lo, hi), args=(targets,),
                         tolerances=ROOT_TOL, maxiter=100)
        assert want.success.all()
        assert np.max(np.abs(gains / want.x - 1.0)) <= 1e-14

    @pytest.mark.parametrize("params,first", list(SOLVE_CASES.values()), ids=list(SOLVE_CASES))
    def test_partition_equal_tail_masses(self, monkeypatch, params, first):
        # every solved gain carries its target tail mass to 1e-13; the
        # gains are taken before the partition stores their square roots.
        # The solve takes at most 10 steps, the bracketed solve's count.
        fading = SrFading(*params)
        _, gains, steps = recorded_solve(monkeypatch, fading, first)
        s1 = tail_mass(fading, np.array([first]) ** 2)[0]
        targets = s1 * np.arange(6, 0, -1) / 7
        tails = np.array([tail_mass(fading, np.array([g]))[0] for g in gains])
        assert np.max(np.abs(tails / targets - 1.0)) <= 1e-13
        assert steps <= 10

    def test_nan_raises_nonconvergent(self, monkeypatch):
        # NaN at a bracket end, and at the first iterate
        with monkeypatch.context() as patched:
            patched.setattr(channel, "_poisson_sum",
                            lambda *terms: [np.full(len(y), math.nan) for _, y in terms])
            with pytest.raises(NonConvergent, match="NaN at a bracket end"):
                partitions(TABLE_FADING, np.array([0.354]), 8, None)
        poisson_sum = channel._poisson_sum

        def nan_steps(*terms):
            sums = poisson_sum(*terms)
            if is_step(terms):
                sums[0][:] = math.nan
            return sums

        monkeypatch.setattr(channel, "_poisson_sum", nan_steps)
        with pytest.raises(NonConvergent, match="NaN at gains \\["):
            partitions(TABLE_FADING, np.array([0.354]), 8, None)

    def test_iteration_cap_raises_nonconvergent(self, monkeypatch):
        # the reference partition takes 2 steps: capped at 1, it gives up
        monkeypatch.setattr(channel, "_ROOT_MAXITER", 1)
        with pytest.raises(NonConvergent, match="within 1 steps"):
            partitions(TABLE_FADING, np.array([0.354]), 8, None)

    @pytest.mark.parametrize("params", [*ABDI_SETS.values(), REFERENCE, (2.0, 0.2, 0.5),
                                        *LOS_SETS.values()],
                             ids=[*ABDI_SETS, "reference", "integer-m", *LOS_SETS])
    def test_start_is_near_its_root(self, monkeypatch, params):
        # at 0.6 sqrt(mean gain), every start from the knots' interpolant is
        # within 1e-4 of its solved gain, and the solve takes at most 2 steps
        fading = SrFading(*params)
        args, gains, steps = recorded_solve(monkeypatch, fading,
                                            0.6 * math.sqrt(fading.mean_gain))
        start = args[-1]
        assert np.max(np.abs(start / gains - 1.0)) <= 1e-4
        assert steps <= 2

    def test_underflowed_knot_tail_falls_back_to_regula_falsi(self, monkeypatch):
        # at 14 the reference tail is 1e-241 and underflows to 0 at every
        # knot past the first threshold: no start is finite, and each
        # target starts from regula falsi, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (_, _, _, lo, hi, mass_lo, mass_hi, _, start), gains, _ = recorded_solve(
                monkeypatch, TABLE_FADING, 14.0)
        assert mass_hi.tolist() == [0.0] * 6
        assert np.isnan(start).all()
        assert ((lo < gains) & (gains < hi)).all()

    def test_infinite_first_threshold_is_refused(self):
        # its knots are NaN, and its tail mass 0 is refused before they are
        # used, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="no resolvable probability mass"):
                partitions(TABLE_FADING, np.array([math.inf]), 8, None)

    def test_start_outside_its_segment_is_refused(self):
        # a slope far too steep at the lower knot carries the interpolant
        # past its segment: that start is NaN, and only that one
        knots = np.array([[1.0, 2.0, 4.0, 8.0]])
        tails = np.exp(-knots)
        dens = tails / TABLE_FADING.beta
        targets = np.exp(-np.array([[1.5, 3.0, 6.0]]))
        lo, hi, mass_lo, mass_hi, start = channel._knot_starts(
            TABLE_FADING, knots, tails, dens, targets)
        assert lo.tolist() == [1.0, 2.0, 4.0] and hi.tolist() == [2.0, 4.0, 8.0]
        assert ((lo < start) & (start < hi)).all()
        dens[0, 1] *= 1e-6
        _, _, _, _, steep = channel._knot_starts(TABLE_FADING, knots, tails, dens, targets)
        assert np.isnan(steep[:2]).all() and steep[2] == start[2]

    def test_nan_start_begins_at_regula_falsi(self, monkeypatch):
        # the first step of a NaN start evaluates the regula falsi point
        fading = TABLE_FADING
        tail, density = channel._tail(fading, 0, fading.m), channel._density(fading)
        lo, hi = np.array([0.2, 0.5]), np.array([0.5, 1.5])
        mass_lo, mass_hi = tail_mass(fading, lo), tail_mass(fading, hi)
        targets = np.sqrt(mass_lo * mass_hi)
        poisson_sum, first = channel._poisson_sum, []

        def recorded(*terms):
            first.append(terms[0][1])
            return poisson_sum(*terms)

        monkeypatch.setattr(channel, "_poisson_sum", recorded)
        channel._tail_quantiles(fading, tail, density, lo, hi, mass_lo, mass_hi, targets,
                                np.array([math.nan, 0.9]))
        h_lo, h_hi = np.log(mass_lo[0] / targets[0]), np.log(mass_hi[0] / targets[0])
        falsi = lo[0] + (hi[0] - lo[0]) * (h_lo / (h_lo - h_hi))
        assert first[0].tolist() == (fading.beta * np.array([falsi, 0.9])).tolist()

    def test_same_sign_raises(self, monkeypatch):
        # a tail that never falls to its targets leaves no bracket: the
        # upper end doubles past 1e12, and the search is refused
        monkeypatch.setattr(channel, "_poisson_sum",
                            lambda *terms: [np.ones(len(y)) for _, y in terms])
        with pytest.raises(ArithmeticError, match="tail quantile search diverged"):
            partitions(TABLE_FADING, np.array([0.354]), 8, None)

    def test_slope_only_steers(self, monkeypatch):
        # an error e in the density moves a step by e of itself, and the
        # last step is within 1e-8 of its gain: at e = 1e-9, far above the
        # series' own 1e-14, the steps are as many and no gain moves by more
        # than the few ulp of the solve's own precision
        fading = SrFading(*ABDI_SETS["average"])
        first = 0.6 * math.sqrt(fading.mean_gain)
        _, gains, steps = recorded_solve(monkeypatch, fading, first)
        poisson_sum = channel._poisson_sum

        def skewed(*terms):
            sums = poisson_sum(*terms)
            return [v * (1.0 + 1e-9) if series.key[0] == "density" else v
                    for (series, _), v in zip(terms, sums)]

        monkeypatch.setattr(channel, "_poisson_sum", skewed)
        _, skewed_gains, skewed_steps = recorded_solve(monkeypatch, fading, first)
        assert skewed_steps == steps
        assert np.max(np.abs(skewed_gains / gains - 1.0)) <= 1e-14


# Every fading of the row-independence properties, with a gain whose tail
# mass is about 1e-280.
PROPERTY_SETS = {**ABDI_SETS, **LOS_SETS, "integer-m": (2.0, 0.2, 0.5)}
# The sets of the kept-row property.
KEPT_SETS = {**ABDI_SETS, "reference": (TABLE_FADING.m, TABLE_FADING.b0, TABLE_FADING.omega),
             **LOS_SETS}
DEEP_GAIN = {"light": 266.8, "average": 227.1, "heavy": 81.93, "los-m1.5": 432.2,
             "los-m0.5": 12820.0, "integer-m": 422.7}


def upper_sum(fading, y, s, m):
    """sum_k w_k Q(k+1+s, y) at y > 0, w_k the mixture weights with shape m,
    in a pass of its own."""
    return channel._poisson_sum((channel._tail(fading, s, m), y))[0]


@st.composite
def fading_and_gains(draw):
    """A fading set, gains with repeats, 0, inf and deep-tail values, and a
    permutation and length of a subset of them."""
    name = draw(st.sampled_from(sorted(PROPERTY_SETS)))
    fading = SrFading(*PROPERTY_SETS[name])
    body = st.floats(0.0, 8.0).map(lambda u: u * fading.mean_gain)
    deep = st.floats(0.5, 1.0).map(lambda u: u * DEEP_GAIN[name])
    edge = st.sampled_from([0.0, math.inf, 1e-300, 1e-12 * fading.mean_gain])
    gains = draw(st.lists(st.one_of(body, body, deep, edge), min_size=1, max_size=7))
    gains += draw(st.lists(st.sampled_from(gains), max_size=3))
    order = draw(st.permutations(range(len(gains))))
    return fading, np.array(gains), np.array(order), draw(st.integers(1, len(gains)))


class TestRowIndependence:
    """Each value of the shadowed-Rician series depends on its own gain
    alone, whichever other gains share the call."""

    @given(case=fading_and_gains())
    @settings(max_examples=25, deadline=None)
    def test_series_entries_match_one_at_a_time(self, case):
        fading, x, order, k = case
        for fn in (tail_mass, sr_cdf):
            alone = np.array([fn(fading, np.array([v]))[0] for v in x])
            assert fn(fading, x).tolist() == alone.tolist()
            assert fn(fading, x[order][:k]).tolist() == alone[order][:k].tolist()
        y = fading.beta * x[(x > 0.0) & (x < math.inf)]
        for s, m in ((1, fading.m), (2, fading.m + 1.0)):
            alone = [upper_sum(fading, np.array([v]), s, m)[0] for v in y]
            assert upper_sum(fading, y, s, m).tolist() == alone

    @pytest.mark.parametrize("name", ["average", "heavy", "integer-m"])
    def test_many_gains_match_one_at_a_time(self, name):
        # many gains share each block of rows, padded to the widest window
        # among them; each sum still equals its gain's alone
        fading = SrFading(*PROPERTY_SETS[name])
        x = np.random.default_rng(5).exponential(fading.mean_gain, 300)
        for fn in (tail_mass, sr_cdf):
            assert fn(fading, x).tolist() == [fn(fading, np.array([v]))[0] for v in x]

    @pytest.mark.parametrize("name", sorted(PROPERTY_SETS))
    def test_block_boundaries_change_no_bit(self, monkeypatch, cold_store, name):
        # with chunks and blocks of 64 terms, cells go one chunk each,
        # points a few rows at a time, and a line-of-sight window of
        # thousands of terms many blocks of columns; every sum adds the same
        # terms in the same order. On a cold store every row is formed
        # again, in chunks of at most 64 entries or one cell.
        fading = SrFading(*PROPERTY_SETS[name])
        x = np.random.default_rng(6).exponential(fading.mean_gain, 300)
        x = np.append(x, DEEP_GAIN[name])
        y = fading.beta * x

        def values():
            return [tail_mass(fading, x).tolist(), sr_cdf(fading, x).tolist(),
                    upper_sum(fading, y, 1, fading.m).tolist(),
                    upper_sum(fading, y, 2, fading.m + 1.0).tolist()]

        whole = values()
        form_rows, chunks = channel._form_rows, []

        def recorded(log_coef, yc, near, reach, start, width):
            chunks.append((len(yc), width.max()))
            return form_rows(log_coef, yc, near, reach, start, width)

        monkeypatch.setattr(channel, "_CHUNK", 64)
        monkeypatch.setattr(channel, "_BLOCK", 64)
        monkeypatch.setattr(channel, "_form_rows", recorded)
        cold_store()
        assert values() == whole
        assert chunks and all(cells == 1 or cells * width <= 64 for cells, width in chunks)

    @pytest.mark.parametrize("params", list(KEPT_SETS.values()), ids=list(KEPT_SETS))
    def test_kept_rows_change_no_bit(self, params, cold_store):
        # a pass that takes its rows from the kept ones, or forms a kept row
        # that misses a window again, sums what a one-series pass on a cold
        # store sums
        fading = SrFading(*params)

        def series():
            return [channel._tail(fading, 0, fading.m), channel._tail(fading, 2, fading.m + 1.0)]

        # the low and high ends of one cell, and a gain far above it
        y = max(fading.beta * fading.mean_gain, 20.0)
        c = math.floor(2.0 * math.sqrt(y + 16.0))
        low, high = (0.5 * c) ** 2 - 16.0, (0.5 * c + 0.5) ** 2 - 16.0
        y = np.array([low + 0.01 * (high - low), high - 0.01 * (high - low), 3.0 * y])
        cell = channel._cell(y[:1])[0]
        assert channel._cell(y[1:2])[0] == cell
        kept = series()
        assert all(s.rows == {} for s in kept)
        channel._poisson_sum(*[(s, y[:1]) for s in kept])
        # a row spans every window of its cell: the high end takes it
        formed = [s.rows[cell] for s in kept]
        ends = channel._poisson_sum(*[(s, y[:2]) for s in kept])
        assert all(s.rows[cell] is row for s, row in zip(kept, formed))
        # a kept row that misses a window is formed again, over every
        # window of its cell, and its entries do not move
        for s, (n0, start, g) in zip(kept, formed):
            s.rows[cell] = (n0, start + 3.0, g[3:-3])
        grown = channel._poisson_sum(*[(s, y) for s in kept])
        for s, (n0, start, g) in zip(kept, formed):
            assert s.rows[cell][:2] == (n0, start)
            assert s.rows[cell][2].tolist() == g.tolist()
        # every row is kept now: this pass forms none
        rows = [dict(s.rows) for s in kept]
        again = channel._poisson_sum(*[(s, y[::-1]) for s in kept])
        assert [len(s.rows) for s in kept] == [len(r) for r in rows]
        assert all(s.rows[k] is row for s, r in zip(kept, rows) for k, row in r.items())
        cold_store()
        fresh = series()
        assert all(s.rows == {} for s in fresh)
        for s, sums_ends, sums, sums_again in zip(fresh, ends, grown, again):
            want = channel._poisson_sum((s, y))[0].tolist()
            assert sums_ends.tolist() == want[:2]
            assert sums.tolist() == want
            assert sums_again[::-1].tolist() == want

    @pytest.mark.parametrize("name", sorted(PROPERTY_SETS))
    def test_kept_coefficients_change_no_bit(self, monkeypatch, cold_store, name):
        # a partition solve forms each coefficient once; formed afresh on
        # every call, with no row kept, they give the same partitions and
        # probabilities
        fading = SrFading(*PROPERTY_SETS[name])
        firsts = np.array([0.3, 0.6]) * math.sqrt(fading.mean_gain)
        kept, kept_pi = partitions(fading, firsts, 8, None)
        assert all(len(s.log_coef.value) for s in channel._STORE.series.values())
        monkeypatch.setattr(channel, "_KEEP", 0)
        for part, pi, first in zip(kept, kept_pi, firsts):
            cold_store()
            (fresh,), fresh_pi = partitions(fading, np.array([first]), 8, None)
            assert all(not len(s.log_coef.value) and s.rows == {}
                       for s in channel._STORE.series.values())
            assert part.thresholds.tolist() == fresh.thresholds.tolist()
            assert part.top_mean_gain == fresh.top_mean_gain
            assert pi.tolist() == fresh_pi[0].tolist()

    def test_coefficients_formed_once(self):
        formed = []

        def log_coef(n):
            formed.extend(n.tolist())
            return np.log1p(n)

        coefs = channel._Coefs(log_coef)
        for lo, hi in ((5, 20), (0, 8), (15, 30), (0, 30), (40, 41)):
            n = np.arange(lo, hi, dtype=float)
            assert coefs(n).tolist() == np.log1p(n).tolist()
        assert sorted(formed) == list(range(30)) + [40]

    def test_solves_share_no_state(self):
        # two solves of different fading sets at once, each on its own
        # thread, give what they give one after the other
        cases = []
        for name, scale in (("average", [0.3, 0.6, 0.9]), ("los-m0.5", [0.4, 0.8])):
            fading = SrFading(*PROPERTY_SETS[name])
            cases.append((fading, np.array(scale) * math.sqrt(fading.mean_gain)))

        def solve(fading, firsts):
            parts, pi = partitions(fading, firsts, 8, None)
            return [(p.thresholds.tolist(), p.top_mean_gain) for p in parts], pi.tolist()

        in_turn = [solve(*case) for case in cases]
        at_once = [None] * len(cases)
        start = threading.Barrier(len(cases), timeout=60)

        def worker(k):
            start.wait()
            at_once[k] = solve(*cases[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert at_once == in_turn

    def test_kept_coefficients_are_bounded(self, monkeypatch):
        monkeypatch.setattr(channel, "_KEEP", 25)
        coefs = channel._Coefs(np.log1p)
        for lo in (0, 20, 40, 0):
            n = np.arange(lo, lo + 20, dtype=float)
            assert coefs(n).tolist() == np.log1p(n).tolist()
        assert coefs.start == 0.0
        assert coefs.value.tolist() == np.log1p(np.arange(20.0)).tolist()

    @given(name=st.sampled_from(sorted(PROPERTY_SETS)),
           scale=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
           repeat=st.booleans(), n_states=st.sampled_from([2, 3, 8]))
    @settings(max_examples=12, deadline=None)
    def test_batched_partition_matches_single(self, name, scale, repeat, n_states):
        fading = SrFading(*PROPERTY_SETS[name])
        firsts = np.array(scale + scale[:1] * repeat) * math.sqrt(fading.mean_gain)
        parts, pi = partitions(fading, firsts, n_states, None)
        assert len(parts) == len(firsts) and pi.shape == (len(firsts), n_states)
        for first, part, row in zip(firsts, parts, pi):
            (alone,), alone_pi = partitions(fading, np.array([first]), n_states, None)
            assert part.thresholds.tolist() == alone.thresholds.tolist()
            assert part.top_mean_gain == alone.top_mean_gain
            assert row.tolist() == alone_pi[0].tolist()


def quadrature_moment(fading: SrFading, dop: DopplerSpec, k: int) -> float:
    """b_k = b0 (2 pi f)^k times the k-th moment of cos(theta) under the von
    Mises angle of arrival, by direct quadrature over theta = mean + phi."""
    mu, kappa = dop.mean_aoa_rad, dop.aoa_width
    value, _ = integrate.quad(
        lambda phi: math.cos(mu + phi) ** k * math.exp(kappa * (math.cos(phi) - 1.0)),
        -math.pi, math.pi, epsabs=0.0, epsrel=1e-13)
    return (fading.b0 * (2.0 * math.pi * dop.f_scatter_max_hz) ** k * value
            / (2.0 * math.pi * special.ive(0, kappa)))


class TestDoppler:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=0.0)
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=10.0, mean_aoa_rad=3.15)
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=10.0, aoa_width=-1.0)

    @pytest.mark.parametrize("values, message", [
        (dict(f_scatter_max_hz=math.nan), "f_scatter_max_hz must be > 0, got nan"),
        (dict(f_scatter_max_hz=10.0, mean_aoa_rad=math.nan),
         r"mean_aoa_rad must be in \[-pi, pi\), got nan"),
        (dict(f_scatter_max_hz=10.0, aoa_width=math.nan), "aoa_width must be >= 0, got nan"),
        (dict(f_scatter_max_hz=0.0), "f_scatter_max_hz must be > 0, got 0.0"),
        (dict(f_scatter_max_hz=10.0, aoa_width=-5e-324), "aoa_width must be >= 0, got -5e-324"),
    ])
    def test_rejects_nan(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DopplerSpec(**values)

    def test_moment_determinant_positive(self):
        b1, b2 = doppler_moments(TABLE_FADING, TABLE_DOPPLER)
        assert TABLE_FADING.b0 * b2 - b1 * b1 > 0.0

    def test_isotropic_aoa(self):
        dop = DopplerSpec(f_scatter_max_hz=50.0, mean_aoa_rad=0.7, aoa_width=0.0)
        b1, b2 = doppler_moments(TABLE_FADING, dop)
        assert b1 == 0.0  # I_1(0) = 0 kills the first moment
        assert b2 == pytest.approx(
            TABLE_FADING.b0 * 2.0 * math.pi**2 * 50.0**2, rel=1e-12
        )

    @pytest.mark.parametrize("aoa,width", [(1.55, 24.2), (0.9, 5.0)])
    def test_first_moment_matches_quadrature(self, aoa, width):
        dop = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=aoa, aoa_width=width)
        b1 = doppler_moments(TABLE_FADING, dop)[0]
        assert b1 == pytest.approx(quadrature_moment(TABLE_FADING, dop, 1), rel=1e-15)

    # The second moment needs cos(2 mu), where the code has cos(mu): b2 is
    # 25347 against 2032 at (1.55, 24.2), 34807 against 21240 at (0.9, 5)
    # and 24871 against 985 at (+-pi/2, 50). At (3.0, 5) the wrong b2 falls
    # below b1^2 / b0, and doppler_moments refuses a valid spectrum.
    @pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                       reason="ROADMAP item 1")
    @pytest.mark.parametrize("aoa,width", [(1.55, 24.2), (0.9, 5.0), (3.0, 5.0),
                                           (math.pi / 2, 50.0), (-math.pi / 2, 50.0)])
    def test_second_moment_matches_quadrature(self, aoa, width):
        dop = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=aoa, aoa_width=width)
        b2 = doppler_moments(TABLE_FADING, dop)[1]
        assert b2 == pytest.approx(quadrature_moment(TABLE_FADING, dop, 2), rel=1e-13)


class TestLcr:
    def test_vanishes_at_small_threshold(self):
        tiny = lcr(TABLE_FADING, TABLE_DOPPLER, 1e-8)
        ref = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        assert 0.0 <= tiny < 1e-6 * ref

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            lcr(TABLE_FADING, TABLE_DOPPLER, 0.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="^r_th must be > 0, got nan$"):
            lcr(TABLE_FADING, TABLE_DOPPLER, math.nan)

    def test_linear_in_scatter_doppler(self):
        # b1 ~ f and b2 ~ f^2 leave the series factors unchanged, so the
        # crossing rate recomputed at 2f must be exactly twice the rate at f.
        doubled = DopplerSpec(
            f_scatter_max_hz=200.0, mean_aoa_rad=1.55, aoa_width=24.2
        )
        assert lcr(TABLE_FADING, doubled, 0.3) == pytest.approx(
            2.0 * lcr(TABLE_FADING, TABLE_DOPPLER, 0.3), rel=1e-10
        )

    def test_tolerance_refinement(self, monkeypatch):
        coarse = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        # the crossing-rate series, ten times tighter
        monkeypatch.setattr(channel, "SERIES_REL_TOL", 1e-13)
        fine = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        assert coarse == pytest.approx(fine, rel=1e-10)

    def test_aoa_enters_only_through_moments(self):
        # mirrored mean angle gives identical spectral moments, so the rate
        # recomputes to exactly the same value
        plus = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=0.9, aoa_width=5.0)
        minus = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=-0.9, aoa_width=5.0)
        assert doppler_moments(TABLE_FADING, plus) == doppler_moments(TABLE_FADING, minus)
        assert lcr(TABLE_FADING, plus, 0.5) == lcr(TABLE_FADING, minus, 0.5)

    def test_positive_on_working_range(self):
        for r in [0.05, 0.3, 1.0, 2.0, 3.0]:
            assert lcr(TABLE_FADING, TABLE_DOPPLER, r) > 0.0

    def test_vanishes_at_large_threshold(self):
        peak = lcr(TABLE_FADING, TABLE_DOPPLER, 1.0)
        far = lcr(TABLE_FADING, TABLE_DOPPLER, 5.0)
        assert 0.0 <= far < 1e-6 * peak

    def test_overflowing_factor_is_refused(self):
        # on line-of-sight fading z = delta r^2 is about 930 at r = 0.431, and
        # 1F1(1.5; 1; z) ~ e^z is past double range: the series would form
        # inf - inf, so it stops at the first such factor, without a warning
        fading = SrFading(*LOS_SETS["los-m1.5"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent) as info:
                lcr(fading, TABLE_DOPPLER, 0.431)
        z = fading.delta * 0.431 * 0.431
        assert z == pytest.approx(930.0, rel=2e-3)
        assert str(info.value) == (f"crossing-rate series at r_th=0.431: 1F1(1.5; 1.0; {z}) "
                                   "overflows double precision")

    # At b1 = 0 the rate is Rice's, sqrt(b2 / 2 pi) f_R(r) with the envelope
    # density f_R(r) = 2 r f_G(r^2); on Rayleigh fading that is
    # sqrt(2 pi) f rho e^(-rho^2), rho = r / sqrt(2 b0). Today every term of
    # the series carries the bracket b1^2 / (b0 det) = 0, so it never meets
    # its tolerance.
    @pytest.mark.xfail(strict=True, raises=NonConvergent, reason="ROADMAP item 1")
    @pytest.mark.parametrize("fading", [TABLE_FADING, SrFading(m=1.0, b0=0.5, omega=0.0)],
                             ids=["reference", "rayleigh"])
    def test_isotropic_closed_form(self, fading):
        dop = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=1.55, aoa_width=0.0)
        b2 = doppler_moments(fading, dop)[1]
        for r in [0.1, 0.354, 1.0, 2.0]:
            want = math.sqrt(b2 / (2.0 * math.pi)) * 2.0 * r * sr_pdf(fading, r * r)
            if fading.omega == 0.0:
                rho = r / math.sqrt(2.0 * fading.b0)
                assert want == pytest.approx(
                    math.sqrt(2.0 * math.pi) * 100.0 * rho * math.exp(-rho * rho), rel=1e-12)
            assert lcr(fading, dop, r) == pytest.approx(want, rel=1e-9)


def lcr_table() -> list[dict[str, str]]:
    """The rows of tests/lcr_table.csv, written by tests/make_lcr_table.py."""
    with LCR_TABLE.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestLcrTable:
    # The crossing rate against the nested quadrature of the model and the
    # Rayleigh and Rice closed forms, wherever the series converges (x < 1).
    # Today's series fails each: b2, the bracket's power and the prefactor's
    # exponent are wrong, and at b1 = 0 it never meets its tolerance.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("row", [pytest.param(row, id=row["case"])
                                     for row in lcr_table() if float(row["x"]) < 1.0])
    def test_matches_table(self, row):
        fading = SrFading(float(row["m"]), float(row["b0"]), float(row["omega"]))
        dop = DopplerSpec(float(row["f_scatter_max_hz"]), float(row["mean_aoa_rad"]),
                          float(row["aoa_width"]))
        assert lcr(fading, dop, float(row["r"])) == pytest.approx(float(row["lcr_per_s"]),
                                                                  rel=1e-9)

    def test_holds_the_reference_thresholds(self):
        # the fade durations of the reference partition read N at these
        held = [float(row["r"]) for row in lcr_table() if row["case"].startswith(
            "reference-threshold-")]
        assert held == reference_thresholds()

    def test_holds_both_closed_forms_and_divergent_rows(self):
        sources = {row["source"] for row in lcr_table()}
        assert sources == {"quadrature", "rayleigh", "rice"}
        assert any(float(row["x"]) >= 1.0 for row in lcr_table())


def fade_durations(r) -> np.ndarray:
    """afd at the amplitudes r, with the masses below them from sr_cdf."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return afd(TABLE_FADING, TABLE_DOPPLER, r, sr_cdf(TABLE_FADING, r * r))


class TestAfd:
    def test_componentwise(self):
        (lam,) = fade_durations(0.3)
        want = sr_cdf(TABLE_FADING, np.array([0.09]))[0] / lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        assert lam == pytest.approx(want, rel=1e-12)

    def test_positive(self):
        for r in [0.1, 0.3, 1.0, 2.5]:
            assert fade_durations(r)[0] > 0.0

    def test_underflow_is_infinite(self):
        # exp(-r^2/b0) underflows: crossing rate is numerically zero
        assert lcr(TABLE_FADING, TABLE_DOPPLER, 12.0) == 0.0
        assert fade_durations(12.0)[0] == math.inf

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            fade_durations(0.0)
        with pytest.raises(ValueError, match="^r_th must be > 0, got 0.0$"):
            fade_durations([0.3, 0.0])

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="^r_th must be > 0, got nan$"):
            afd(TABLE_FADING, TABLE_DOPPLER, np.array([0.3, math.nan]), np.array([0.1, 0.1]))

    def test_many_thresholds_match_one_at_a_time(self):
        r = np.array([2.5, 0.1, 0.3, 0.1])
        assert fade_durations(r).tolist() == [fade_durations(v)[0] for v in r]

    def test_underflow_among_many_is_infinite(self):
        # one pass over finite and underflowing amplitudes, entry for entry
        # as one at a time, and quiet where the ratio is undefined
        r = np.array([0.3, 12.0, 2.5, 13.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = fade_durations(r)
            alone = [fade_durations(v)[0] for v in r]
        assert lam.tolist() == alone
        assert np.isinf(lam).tolist() == [False, True, False, True, False]

    def test_no_mass_below_is_infinite(self):
        # no resolvable mass below the amplitude: lambda is undefined too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fade_durations(1e-300)[0] == math.inf
