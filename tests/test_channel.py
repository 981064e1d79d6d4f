import contextlib
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
from leolink import special as series
from leolink.channel import (
    DopplerSpec,
    GainPartition,
    SrFading,
    StateProbMatrix,
    afd,
    doppler_moments,
    equal_probability_partition,
    lcr,
    sr_cdf,
    sr_cdf_quadrature,
    sr_pdf,
    state_prob_matrix,
    state_probs,
    tail_mass,
    tail_mean_gain,
)
from leolink.montecarlo import sample_sr_gain
from leolink.special import NonConvergent

from fading_sets import ABDI_SETS, LOS_SETS

TABLE_FADING = SrFading(m=10.1, b0=0.126, omega=0.825)
TABLE_DOPPLER = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=1.55, aoa_width=24.2)


class TestSrFading:
    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            SrFading(m=0.2, b0=0.126, omega=0.825)

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            SrFading(m=1.0, b0=0.0, omega=0.1)
        with pytest.raises(ValueError):
            SrFading(m=1.0, b0=0.1, omega=-0.1)

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
        assert sr_cdf(TABLE_FADING, 0.0) == 0.0

    def test_total_probability(self):
        for fading in [TABLE_FADING, SrFading(2.0, 0.2, 0.5)]:
            assert sr_cdf(fading, 1e6) == pytest.approx(1.0, abs=1e-8)

    def test_integer_m_closed_vs_quadrature(self):
        f = SrFading(2.0, 0.2, 0.5)
        closed = sr_cdf(f, 0.7)
        quad = sr_cdf_quadrature(f, 0.7)
        assert closed == pytest.approx(0.518263618025867237, rel=1e-10)
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize(
        "params",
        [pytest.param((float(m), 0.126, 0.825), id=str(m)) for m in (1, 2, 5)]
        + [pytest.param(p, id=name) for name, p in {**ABDI_SETS, **LOS_SETS}.items()],
    )
    def test_closed_vs_quadrature_grid(self, params):
        f = SrFading(*params)
        for x in np.linspace(0.02, 8.0, 25) * f.mean_gain:
            quad = sr_cdf_quadrature(f, float(x))
            assert abs(sr_cdf(f, float(x)) - quad) < 1e-8
            assert abs(tail_mass(f, float(x)) - (1.0 - quad)) < 1e-8

    def test_infinite_and_nan_gains(self):
        assert sr_cdf(TABLE_FADING, math.inf) == 1.0
        assert tail_mass(TABLE_FADING, math.inf) == 0.0
        for fn in (sr_cdf, tail_mass):
            with pytest.raises(ValueError):
                fn(TABLE_FADING, math.nan)

    def test_nakagami_limit(self):
        # b0 -> 0 leaves the Nakagami line of sight, power Gamma(m, omega/m);
        # here r = 1 - 4e-8, about 1e9 terms summed over the mixture index
        f = SrFading(2.0, 1e-8, 1.0)
        for x in (0.5, 1.0, 2.0):
            assert sr_cdf(f, x) == pytest.approx(special.gammainc(2.0, 2.0 * x), abs=1e-7)
            assert tail_mass(f, x) == pytest.approx(special.gammaincc(2.0, 2.0 * x), abs=1e-7)

    def test_monotone(self):
        xs = np.linspace(0.0, 8.0, 60)
        vals = [sr_cdf(TABLE_FADING, float(x)) for x in xs]
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
                assert abs(v - fn(TABLE_FADING, float(x))) <= 1e-15

    def test_tail_mass_complements_cdf(self):
        for fading in [TABLE_FADING, SrFading(3.0, 0.2, 0.6)]:
            for x in [0.05, 0.5, 1.0, 2.5, 5.0]:
                assert tail_mass(fading, x) == pytest.approx(
                    1.0 - sr_cdf(fading, x), abs=1e-9
                )

    def test_tail_mass_deep_tail_positive(self):
        # far beyond float complement resolution, but representable directly
        s = tail_mass(TABLE_FADING, 128.0)
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
        assert tail_mass(f, x) == pytest.approx(want, rel=1e-13)


class TestPartition:
    def test_requires_leading_zero(self):
        with pytest.raises(ValueError):
            GainPartition(thresholds=np.array([0.1, 0.5]), top_mean_gain=1.0)

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            GainPartition(thresholds=np.array([0.0, 0.5, 0.4]), top_mean_gain=1.0)

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

    def test_many_partitions_match_one_at_a_time(self):
        parts = [GainPartition(thresholds=np.array(t), top_mean_gain=9.0)
                 for t in ([0.0, 0.3, 0.9], [0.0, 0.0, 1.7], [0.0, 2.9, 3.0])]
        rows = state_probs(TABLE_FADING, parts)
        assert rows.shape == (3, 3)
        for part, row in zip(parts, rows):
            assert row.tolist() == state_probs(TABLE_FADING, part).tolist()


class TestEqualProbabilityPartition:
    def test_equal_upper_masses(self):
        part = equal_probability_partition(TABLE_FADING, 0.354, 8)
        pi = state_probs(TABLE_FADING, part)
        upper = pi[1:]
        assert np.allclose(upper, upper[0], rtol=1e-6)
        assert abs(pi.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("params", list(LOS_SETS.values()), ids=list(LOS_SETS))
    def test_line_of_sight_partition(self, params):
        f = SrFading(*params)
        part = equal_probability_partition(f, 0.6 * math.sqrt(f.omega), 8)
        pi = state_probs(f, part)
        assert np.allclose(pi[1:], pi[1], rtol=1e-6)
        assert abs(pi.sum() - 1.0) < 1e-9

    def test_explicit_thresholds(self):
        part = equal_probability_partition(
            TABLE_FADING, 0.3, 4, upper_thresholds=[0.8, 1.2]
        )
        assert np.allclose(part.thresholds, [0.0, 0.3, 0.8, 1.2])

    def test_explicit_thresholds_wrong_count(self):
        with pytest.raises(ValueError):
            equal_probability_partition(TABLE_FADING, 0.3, 4, upper_thresholds=[0.8])

    def test_top_mean_gain_above_threshold(self):
        part = equal_probability_partition(TABLE_FADING, 0.354, 8)
        assert part.top_mean_gain > float(part.thresholds[-1]) ** 2

    def test_deep_tail_first_threshold(self):
        # first threshold far beyond the 1 - F float resolution
        part = equal_probability_partition(TABLE_FADING, 11.335, 8)
        assert np.all(np.diff(part.thresholds[1:]) > 0.0)
        masses = [
            tail_mass(TABLE_FADING, float(a) ** 2) - tail_mass(TABLE_FADING, float(b) ** 2)
            for a, b in zip(part.thresholds[1:-1], part.thresholds[2:])
        ]
        assert all(m > 0.0 for m in masses)
        assert np.allclose(masses, masses[0], rtol=1e-6)

    def test_tail_mean_unconditional(self):
        assert tail_mean_gain(TABLE_FADING, 0.0) == TABLE_FADING.mean_gain

    @pytest.mark.parametrize("params", [*ABDI_SETS.values(), *LOS_SETS.values()],
                             ids=[*ABDI_SETS, *LOS_SETS])
    def test_tail_mean_against_quadrature(self, params):
        f = SrFading(*params)
        for x in (0.5 * f.mean_gain, 3.0 * f.mean_gain):
            hi = x + 200.0 / (f.beta - f.delta)
            mass, _ = integrate.quad(lambda y: sr_pdf(f, y), x, hi, epsabs=0, epsrel=1e-12)
            moment, _ = integrate.quad(lambda y: y * sr_pdf(f, y), x, hi, epsabs=0,
                                       epsrel=1e-12)
            assert tail_mean_gain(f, x) == pytest.approx(moment / mass, rel=1e-9)

    def test_tail_mean_increases(self):
        a = tail_mean_gain(TABLE_FADING, 0.5)
        b = tail_mean_gain(TABLE_FADING, 2.0)
        assert TABLE_FADING.mean_gain < a < b


# The partition solver's stopping rule, as find_root takes it.
ROOT_TOL = {"xatol": channel._ROOT_XATOL, "xrtol": channel._ROOT_XRTOL,
            "fatol": 0.0, "frtol": 0.0}
# A sign change inside [a, b]: smooth or stepped, values from 1e-200 to 1e300,
# brackets up to 2e12 wide, a root at an end.
ROOT_CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 0.0, 4.0),
    "exp": (lambda x: np.exp(x) - 3.0, -1.0, 5.0),
    "cos": (lambda x: np.cos(x) - x, 0.0, 1.0),
    "steep-atan": (lambda x: np.arctan(50.0 * (x - 0.3)), -2.0, 5.0),
    "steep-tanh": (lambda x: np.tanh(1e3 * (x - 1.0 / 3.0)), 0.0, 1.0),
    "x21": (lambda x: x**21 - 0.5, 0.5, 1.5),
    "tiny-values": (lambda x: 1e-200 * (x - 0.123456789), 0.0, 1.0),
    "step": (lambda x: np.where(x < 0.3, -1.0, 1e300), 0.0, 1.0),
    "wide-cbrt": (lambda x: np.copysign(np.abs(x - 0.3) ** (1 / 9), x - 0.3), -1e12, 1e12),
    "root-at-end": (lambda x: x - 2.0, 0.0, 2.0),
}


def solve(f, a, b):
    """channel._find_root on one bracket of a one-argument function."""
    fa, fb = f(np.array([a])), f(np.array([b]))
    return channel._find_root(f, [a], [b], fa, fb)[0]


class TestBrentq:
    """channel._find_root, the partition's root finder. It replaced a port
    of scipy's brentq, whose test ids the class keeps."""

    @pytest.mark.parametrize("case", list(ROOT_CASES.values()), ids=list(ROOT_CASES))
    def test_matches_scipy_bit_for_bit(self, case):
        f, a, b = case
        for lo, hi in ((a, b), (b, a)):
            want = find_root(f, (lo, hi), tolerances=ROOT_TOL, maxiter=100)
            assert want.success
            assert solve(f, lo, hi) == want.x

    def test_entries_solve_independently(self):
        # many brackets at once give each entry the root it gets alone
        c = np.linspace(-4.0, 30.0, 23)
        lo, hi = np.full_like(c, -3.0), np.linspace(4.0, 40.0, 23)

        def f(x, c):
            return x**3 - 2.0 * x - c

        roots = channel._find_root(f, lo, hi, f(lo, c), f(hi, c), c)
        alone = [solve(lambda x, ci=ci: f(x, ci), a, b) for ci, a, b in zip(c, lo, hi)]
        assert roots.tolist() == alone

    @pytest.mark.parametrize("params", [*ABDI_SETS.values(), *LOS_SETS.values()],
                             ids=[*ABDI_SETS, *LOS_SETS])
    def test_partition_solves_match_scipy(self, monkeypatch, params):
        # the one solve of an 8-state partition, against find_root on the
        # same function, brackets and targets
        solves = []
        solver = channel._find_root

        def both(f, x1, x2, f1, f2, *args):
            got = solver(f, x1, x2, f1, f2, *args)
            solves.append((got, find_root(f, (x1, x2), args=args, tolerances=ROOT_TOL,
                                          maxiter=100)))
            return got

        monkeypatch.setattr(channel, "_find_root", both)
        fading = SrFading(*params)
        first = 0.6 * math.sqrt(fading.mean_gain)
        equal_probability_partition(fading, first, 8)
        # and the one solve of three partitions at once
        equal_probability_partition(fading, np.array([0.5, 1.0, 1.5]) * first, 8)
        assert len(solves) == 2
        for (got, want), n in zip(solves, (6, 18)):
            assert len(got) == n and want.success.all()
            assert got.tolist() == want.x.tolist()

    @pytest.mark.parametrize("params,first", [
        *[(p, 0.6 * math.sqrt(SrFading(*p).mean_gain)) for p in ABDI_SETS.values()],
        *[(p, 0.6 * math.sqrt(SrFading(*p).mean_gain)) for p in LOS_SETS.values()],
        ((2.0, 0.2, 0.5), 0.354),
        ((TABLE_FADING.m, TABLE_FADING.b0, TABLE_FADING.omega), 11.335),
    ], ids=[*ABDI_SETS, *LOS_SETS, "integer-m", "deep-tail"])
    def test_partition_equal_tail_masses(self, monkeypatch, params, first):
        # every solved gain carries its target tail mass to 1e-13; the
        # gains are taken before the partition stores their square roots
        solved = []
        solver = channel._find_root

        def recorded(*args):
            solved.append(solver(*args))
            return solved[-1]

        monkeypatch.setattr(channel, "_find_root", recorded)
        fading = SrFading(*params)
        equal_probability_partition(fading, first, 8)
        s1 = tail_mass(fading, first**2)
        targets = s1 * np.arange(6, 0, -1) / 7
        tails = np.array([tail_mass(fading, float(g)) for g in solved[0]])
        assert np.max(np.abs(tails / targets - 1.0)) <= 1e-13

    def test_nan_raises_nonconvergent(self):
        nan = lambda x: np.full_like(x, math.nan)
        with pytest.raises(NonConvergent, match="NaN"):
            channel._find_root(nan, [0.0], [1.0], [-1.0], [math.nan])
        # finite at both ends, NaN at the first iterate
        with pytest.raises(NonConvergent, match="NaN"):
            channel._find_root(nan, [0.0], [1.0], [-0.25], [0.75])

    def test_iteration_cap_raises_nonconvergent(self):
        # a step inside [-1e300, 1e300]: every step bisects, and 100 halvings
        # leave the bracket far wider than 2 ulp; find_root stops there too
        def step(x):
            return np.where(x < 0.3, -1.0, 1.0)

        res = find_root(step, (-1e300, 1e300), tolerances=ROOT_TOL, maxiter=100)
        assert res.status == -2
        with pytest.raises(NonConvergent, match="100 iterations"):
            solve(step, -1e300, 1e300)

    def test_same_sign_raises(self):
        with pytest.raises(ArithmeticError, match="same sign"):
            solve(lambda x: x * x + 1.0, -1.0, 1.0)
        # one bad bracket among good ones
        with pytest.raises(ArithmeticError, match="same sign"):
            channel._find_root(lambda x: x - 0.5, [0.0, 0.0], [1.0, 0.25], [-0.5, -0.5],
                               [0.5, -0.25])


# Every fading of the row-independence properties, with a gain whose tail
# mass is about 1e-280.
PROPERTY_SETS = {**ABDI_SETS, **LOS_SETS, "integer-m": (2.0, 0.2, 0.5)}
DEEP_GAIN = {"light": 266.8, "average": 227.1, "heavy": 81.93, "los-m1.5": 432.2,
             "los-m0.5": 12820.0, "integer-m": 422.7}


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
            alone = np.array([fn(fading, float(v)) for v in x])
            assert fn(fading, x).tolist() == alone.tolist()
            assert fn(fading, x[order][:k]).tolist() == alone[order][:k].tolist()
        y = fading.beta * x[(x > 0.0) & (x < math.inf)]
        for s, m in ((1, fading.m), (2, fading.m + 1.0)):
            alone = [channel._upper_sum(fading, np.array([v]), s, m)[0] for v in y]
            assert channel._upper_sum(fading, y, s, m).tolist() == alone

    @pytest.mark.parametrize("name", ["average", "heavy", "integer-m"])
    def test_many_gains_match_one_at_a_time(self, name):
        # many gains share each block of rows, padded to the widest window
        # among them; each sum still equals its gain's alone
        fading = SrFading(*PROPERTY_SETS[name])
        x = np.random.default_rng(5).exponential(fading.mean_gain, 300)
        for fn in (tail_mass, sr_cdf):
            assert fn(fading, x).tolist() == [fn(fading, float(v)) for v in x]

    @pytest.mark.parametrize("name", sorted(PROPERTY_SETS))
    def test_block_boundaries_change_no_bit(self, monkeypatch, name):
        # with chunks and blocks of 64 terms, cells go one chunk each,
        # points a few rows at a time, and a line-of-sight window of
        # thousands of terms many blocks of columns; every sum adds the same
        # terms in the same order
        fading = SrFading(*PROPERTY_SETS[name])
        x = np.random.default_rng(6).exponential(fading.mean_gain, 300)
        x = np.append(x, DEEP_GAIN[name])
        y = fading.beta * x

        def values():
            return [tail_mass(fading, x).tolist(), sr_cdf(fading, x).tolist(),
                    channel._upper_sum(fading, y, 1, fading.m).tolist(),
                    channel._upper_sum(fading, y, 2, fading.m + 1.0).tolist()]

        whole = values()
        monkeypatch.setattr(channel, "_CHUNK", 64)
        monkeypatch.setattr(channel, "_BLOCK", 64)
        assert values() == whole

    @pytest.mark.parametrize("name", sorted(PROPERTY_SETS))
    def test_kept_coefficients_change_no_bit(self, monkeypatch, name):
        # a partition solve forms each coefficient once; formed afresh on
        # every call, they give the same partition
        fading = SrFading(*PROPERTY_SETS[name])
        firsts = np.array([0.3, 0.6]) * math.sqrt(fading.mean_gain)
        kept = equal_probability_partition(fading, firsts, 8)
        monkeypatch.setattr(channel, "_keep_coefficients", contextlib.nullcontext)
        for part, first in zip(kept, firsts):
            fresh = equal_probability_partition(fading, first, 8)
            assert part.thresholds.tolist() == fresh.thresholds.tolist()
            assert part.top_mean_gain == fresh.top_mean_gain

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

    def test_kept_coefficients_belong_to_the_solve(self):
        # kept only inside a solve, and not by solves in other threads
        equal_probability_partition(SrFading(*PROPERTY_SETS["average"]), 0.6, 4)
        assert channel._kept.get() is None
        seen = []
        with channel._keep_coefficients():
            worker = threading.Thread(target=lambda: seen.append(channel._kept.get()))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert channel._kept.get() == {}
        assert seen == [None]
        assert channel._kept.get() is None

    def test_kept_coefficients_are_bounded(self, monkeypatch):
        monkeypatch.setattr(channel, "_KEEP", 25)
        coefs = channel._Coefs(np.log1p)
        for lo in (0, 20, 40, 0):
            n = np.arange(lo, lo + 20, dtype=float)
            assert coefs(n).tolist() == np.log1p(n).tolist()
        assert coefs.n.tolist() == list(range(20))

    @given(name=st.sampled_from(sorted(PROPERTY_SETS)),
           scale=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
           repeat=st.booleans(), n_states=st.sampled_from([2, 3, 8]))
    @settings(max_examples=12, deadline=None)
    def test_batched_partition_matches_single(self, name, scale, repeat, n_states):
        fading = SrFading(*PROPERTY_SETS[name])
        firsts = np.array(scale + scale[:1] * repeat) * math.sqrt(fading.mean_gain)
        parts = equal_probability_partition(fading, firsts, n_states)
        assert len(parts) == len(firsts)
        for first, part in zip(firsts, parts):
            alone = equal_probability_partition(fading, float(first), n_states)
            assert part.thresholds.tolist() == alone.thresholds.tolist()
            assert part.top_mean_gain == alone.top_mean_gain


class TestDoppler:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=0.0)
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=10.0, mean_aoa_rad=3.15)
        with pytest.raises(ValueError):
            DopplerSpec(f_scatter_max_hz=10.0, aoa_width=-1.0)

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


class TestLcr:
    def test_vanishes_at_small_threshold(self):
        tiny = lcr(TABLE_FADING, TABLE_DOPPLER, 1e-8)
        ref = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        assert 0.0 <= tiny < 1e-6 * ref

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            lcr(TABLE_FADING, TABLE_DOPPLER, 0.0)

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
        # the crossing-rate series and its 1F1 factors, ten times tighter
        monkeypatch.setattr(channel, "SERIES_REL_TOL", 1e-13)
        monkeypatch.setattr(series, "SERIES_REL_TOL", 1e-13)
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

    def test_exponent_switch_changes_value(self):
        squared = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        indexed = lcr(TABLE_FADING, TABLE_DOPPLER, 0.3, xi_exponent="index")
        assert squared != indexed
        with pytest.raises(ValueError):
            lcr(TABLE_FADING, TABLE_DOPPLER, 0.3, xi_exponent="bogus")

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


class TestAfd:
    def test_componentwise(self):
        lam = afd(TABLE_FADING, TABLE_DOPPLER, 0.3)
        want = sr_cdf(TABLE_FADING, 0.09) / lcr(TABLE_FADING, TABLE_DOPPLER, 0.3)
        assert lam == pytest.approx(want, rel=1e-12)

    def test_positive(self):
        for r in [0.1, 0.3, 1.0, 2.5]:
            assert afd(TABLE_FADING, TABLE_DOPPLER, r) > 0.0

    def test_underflow_is_infinite(self):
        # exp(-r^2/b0) underflows: crossing rate is numerically zero
        assert lcr(TABLE_FADING, TABLE_DOPPLER, 12.0) == 0.0
        assert afd(TABLE_FADING, TABLE_DOPPLER, 12.0) == math.inf

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            afd(TABLE_FADING, TABLE_DOPPLER, 0.0)
        with pytest.raises(ValueError):
            afd(TABLE_FADING, TABLE_DOPPLER, np.array([0.3, 0.0]))

    def test_many_thresholds_match_one_at_a_time(self):
        r = np.array([2.5, 0.1, 0.3, 0.1])
        assert afd(TABLE_FADING, TABLE_DOPPLER, r).tolist() == [
            afd(TABLE_FADING, TABLE_DOPPLER, float(v)) for v in r]

    def test_underflow_among_many_is_infinite(self):
        # one pass over finite and underflowing amplitudes, entry for entry
        # as one at a time, and quiet where the ratio is undefined
        r = np.array([0.3, 12.0, 2.5, 13.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = afd(TABLE_FADING, TABLE_DOPPLER, r)
            alone = [afd(TABLE_FADING, TABLE_DOPPLER, float(v)) for v in r]
        assert lam.tolist() == alone
        assert np.isinf(lam).tolist() == [False, True, False, True, False]

    def test_no_mass_below_is_infinite(self):
        # no resolvable mass below the amplitude: lambda is undefined too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert afd(TABLE_FADING, TABLE_DOPPLER, 1e-300) == math.inf
