import concurrent.futures
import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leolink import montecarlo
from leolink.channel import (
    DopplerSpec,
    GainPartition,
    SrFading,
    afd,
    partitions,
    sr_cdf,
)
from leolink.geometry import (
    OutOfPass,
    PassGeometry,
    build_timeline,
    distance_at,
    distance_range,
    service_duration,
)
from leolink.montecarlo import (
    _BLOCK,
    _KS_LEVELS,
    KS_CRIT_ALPHA01,
    SimConfig,
    SimResult,
    _block,
    _block_rngs,
    _mean_se,
    ks_statistic,
    sample_sr_gain,
    simulate,
)
from leolink.schemes import (
    LinkBudget,
    PatConfig,
    RatConfig,
    TrafficSpec,
    first_threshold,
    report,
)

from block_schedule import BlockSchedule
from fading_sets import ABDI_SETS, LOS_SETS
from make_goldens import CAP_ABOVE_STATE_1, case_scenario

ROOT = Path(__file__).resolve().parent.parent
FADING = SrFading(m=10.1, b0=0.126, omega=0.825)
DOPPLER = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=1.55, aoa_width=24.2)
SIGMA2 = 10.0 ** ((-66.0 - 30.0) / 10.0)
BUDGET = LinkBudget(bandwidth_hz=60e6, noise_power_w=SIGMA2, path_loss_exp=2.0)
GEO = PassGeometry(
    earth_radius_m=6371e3,
    orbit_height_m=500e3,
    coverage_radius_m=500e3,
    half_track_m=500e3,
    sat_speed_ms=7600.0,
)
D_MAX = distance_range(GEO)[1]
TRAFFIC = TrafficSpec(packet_bits=500e3, delay_threshold_s=1e-3)
FADING_SETS = [pytest.param(p, id=name) for name, p in {**ABDI_SETS, **LOS_SETS}.items()]


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@pytest.fixture(scope="module")
def timeline():
    return build_timeline(GEO, 1.0)


def solve(first: float):
    """The 8-state partition above first, its state probabilities and the
    mean wait at first, by the pipeline's route."""
    (part,), pi = partitions(FADING, np.array([first]), 8, None)
    return part, pi[0], afd(FADING, DOPPLER, np.array([first]), pi[:, 0])[0]


@pytest.fixture(scope="module")
def rat_setup(timeline):
    rat = RatConfig(tx_power_w=1000.0, min_snr=1.0)
    return (rat, *solve(first_threshold(BUDGET, rat, D_MAX)))


@pytest.fixture(scope="module")
def pat_setup(timeline):
    pat = PatConfig(max_power_w=1000.0, fixed_rate_bps=60e6)
    return (pat, *solve(first_threshold(BUDGET, pat, D_MAX)))


def uniform_phase_gains(fading: SrFading, rng: np.random.Generator, n: int) -> np.ndarray:
    """n gains of the textbook expression with the line of sight at a
    uniform phase: (re + A cos phi)^2 + (im + A sin phi)^2."""
    sigma = math.sqrt(fading.b0)
    amp = np.sqrt(rng.gamma(fading.m, fading.omega / fading.m, n))
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    return ((rng.normal(0.0, sigma, n) + amp * np.cos(phase))**2
            + (rng.normal(0.0, sigma, n) + amp * np.sin(phase))**2)


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical CDFs of x and y over their pooled values."""
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / len(x)
    fy = np.searchsorted(y, pooled, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def check_textbook(fading: SrFading, n: int) -> None:
    """sample_sr_gain's n draws equal the textbook expression, formed from
    a clone of its generator."""
    rng = rng_for(17)
    clone = np.random.Generator(np.random.Philox())
    clone.bit_generator.state = rng.bit_generator.state
    gains = sample_sr_gain(fading, rng, n)
    sigma = math.sqrt(fading.b0)
    re = clone.normal(0.0, sigma, n)
    if fading.omega > 0.0:
        re = re + np.sqrt(clone.gamma(fading.m, fading.omega / fading.m, n))
    im = clone.normal(0.0, sigma, n)
    assert np.array_equal(gains, re**2 + im**2)
    assert rng.random() == clone.random()  # no draw left over


class TestSampler:
    def test_rayleigh_limit_ks(self):
        # omega = 0 collapses to an exponential power gain with mean 2 b0
        fading = SrFading(m=3.0, b0=0.7, omega=0.0)
        gains = sample_sr_gain(fading, rng_for(101), 100_000)
        xs = np.sort(gains)
        n = len(xs)
        f = 1.0 - np.exp(-xs / (2.0 * 0.7))
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert d < KS_CRIT_ALPHA01 / math.sqrt(n)

    def test_first_moment(self):
        n = 1_000_000
        gains = sample_sr_gain(FADING, rng_for(7), n)
        se = gains.std(ddof=1) / math.sqrt(n)
        assert abs(gains.mean() - FADING.mean_gain) <= 3.0 * se

    def test_ks_against_analytic_cdf(self):
        gains = sample_sr_gain(FADING, rng_for(31), 100_000)
        d = ks_statistic(FADING, gains)
        assert d < KS_CRIT_ALPHA01 / math.sqrt(len(gains))

    def test_ks_rejects_wrong_distribution(self):
        # negative control: uniform samples are nothing like the fading law
        rng = rng_for(5)
        fake = rng.uniform(0.0, 2.0, 20_000)
        assert ks_statistic(FADING, fake) > KS_CRIT_ALPHA01 / math.sqrt(20_000)

    @pytest.mark.parametrize("params", FADING_SETS)
    def test_ks_against_analytic_cdf_all_sets(self, params):
        fading = SrFading(*params)
        gains = sample_sr_gain(fading, rng_for(11), 100_000)
        assert ks_statistic(fading, gains) < KS_CRIT_ALPHA01 / math.sqrt(len(gains))

    @pytest.mark.parametrize("params", [
        (FADING.m, FADING.b0, FADING.omega), ABDI_SETS["heavy"], (3.0, 0.7, 0.0),
    ], ids=["reference", "heavy", "rayleigh"])
    def test_matches_textbook_expression(self, params):
        # (re + sqrt(L))^2 + im^2, the line of sight at phase 0, from the
        # same draws, in the same order (re, L, im), bit for bit
        check_textbook(SrFading(*params), 10_000)

    @pytest.mark.parametrize("params", FADING_SETS)
    def test_same_law_as_uniform_phase(self, params):
        # Phase 0 against a uniform phase: the scattered part is circularly
        # symmetric, so both give one law (Abdi et al. 2003). Two-sample KS
        # at alpha = 1%, each side from its own generator; no sr_cdf read.
        fading = SrFading(*params)
        n = 100_000
        d = ks_two_sample(sample_sr_gain(fading, rng_for(41), n),
                          uniform_phase_gains(fading, rng_for(43), n))
        assert d < KS_CRIT_ALPHA01 * math.sqrt(2.0 / n)

    def test_two_sample_ks_rejects_another_law(self):
        # negative control: a line of sight 5% stronger in power is told apart
        n = 100_000
        stronger = replace(FADING, omega=1.05 * FADING.omega)
        d = ks_two_sample(sample_sr_gain(FADING, rng_for(41), n),
                          uniform_phase_gains(stronger, rng_for(43), n))
        assert d > KS_CRIT_ALPHA01 * math.sqrt(2.0 / n)

    def test_peak_memory(self):
        # two arrays of the draws' doubles: the imaginary part is drawn into
        # the amplitude's memory (measured 2.0006 arrays)
        n = 4 * _BLOCK
        sample_sr_gain(FADING, rng_for(1), _BLOCK)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            sample_sr_gain(FADING, rng_for(1), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2.01 * n

    @pytest.mark.parametrize("seed", range(20))
    def test_standard_draws_scaled_in_place(self, seed):
        # the draws of sample_sr_gain and the blocks equal Generator.normal,
        # gamma, uniform and exponential, bit for bit, stream position too
        n = 10_000
        rng, clone = rng_for(seed), rng_for(seed)
        draws = [
            (lambda: rng.standard_normal(n), 0.35, lambda: clone.normal(0.0, 0.35, n)),
            (lambda: rng.standard_normal(out=np.empty(n)), 0.35,
             lambda: clone.normal(0.0, 0.35, n)),
            (lambda: rng.standard_gamma(10.1, n), 0.825 / 10.1,
             lambda: clone.gamma(10.1, 0.825 / 10.1, n)),
            (lambda: rng.standard_gamma(0.739, n), 8.97e-4 / 0.739,
             lambda: clone.gamma(0.739, 8.97e-4 / 0.739, n)),
            # arrival instants: the reference pass spans 141 s of slots
            (lambda: rng.random(n), 141.0, lambda: clone.uniform(0.0, 141.0, n)),
            (lambda: rng.standard_exponential(n), 0.0123,
             lambda: clone.exponential(0.0123, n)),
        ]
        for draw, scale, want in draws:
            got = draw()
            got *= scale
            assert np.array_equal(got, want())
        assert rng.random() == clone.random()


def ks_full(fading: SrFading, gains: np.ndarray) -> float:
    # the analytic CDF at every sorted sample
    xs = np.sort(gains)
    n = len(xs)
    f = sr_cdf(fading, xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


# Sample counts around the stride s of each level above the last: one short
# of a segment of the level, one segment, one past it, and two and one.
KS_SIZES = sorted({1, 2, 1000, 100_000}
                  | {n for s in _KS_LEVELS[:-1] for n in (s - 1, s, s + 1, 2 * s + 1)})


class TestKsStatistic:
    @pytest.mark.parametrize("n", KS_SIZES)
    @pytest.mark.parametrize("law", ["sampled", "uniform"])
    @pytest.mark.parametrize("params", FADING_SETS)
    def test_matches_full_evaluation(self, params, law, n):
        fading = SrFading(*params)
        rng = rng_for(n)
        if law == "sampled":
            gains = sample_sr_gain(fading, rng, n)
        else:  # nothing like the fading law: D is large
            gains = rng.uniform(0.0, 2.0 * fading.mean_gain, n)
        assert ks_statistic(fading, gains) == ks_full(fading, gains)

    @pytest.mark.parametrize("params", FADING_SETS)
    def test_repeated_gains_and_zeros(self, params):
        fading = SrFading(*params)
        gains = sample_sr_gain(fading, rng_for(17), 5_000)
        gains = np.round(gains / fading.mean_gain, 2) * fading.mean_gain  # ties
        gains[:300] = 0.0
        assert len(np.unique(gains)) < 1_000
        assert ks_statistic(fading, gains) == ks_full(fading, gains)
        same = np.full(3 * _KS_LEVELS[0], fading.mean_gain)
        assert ks_statistic(fading, same) == ks_full(fading, same)
        assert ks_statistic(fading, np.zeros(_KS_LEVELS[0] + 5)) == 1.0

    @pytest.mark.parametrize("s", _KS_LEVELS)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_gap_at_segment_edge(self, side, s):
        # A tie run fills a whole segment between samples of a level of
        # stride s, so D sits where its monotonicity bound is attained:
        # zeros at 0 .. s-1 give (i+1)/n - F_i = s/n at i = s-1, and
        # infinities at s+1 .. 2s give F_i - i/n = s/n at i = s+1. The
        # gaps at 0, s and 2s are at most (s - 1/2)/n.
        fading = SrFading(m=3.0, b0=0.7, omega=0.0)  # F(x) = 1 - e^(-x / 1.4)
        n = 2 * s + 1
        p = (np.arange(n) + 0.5) / n
        if side == "below":
            p[:s], p[s] = 0.0, 1.5 / n
        else:
            p[s + 1:], p[s] = 1.0, 1.0 - 1.5 / n
        with np.errstate(divide="ignore"):
            gains = -1.4 * np.log1p(-p)
        assert ks_statistic(fading, gains) == pytest.approx(s / n, abs=1e-12)

    def test_evaluates_few_samples(self, monkeypatch):
        seen = []

        def counting_cdf(fading, x):
            seen.append(len(x))
            return sr_cdf(fading, x)

        monkeypatch.setattr(montecarlo, "sr_cdf", counting_cdf)
        gains = sample_sr_gain(FADING, rng_for(31), 100_000)
        ks_statistic(FADING, gains)
        # one call per level, 392 + 2 734 + 679 + 33 samples as measured: 3.8%
        assert len(seen) == len(_KS_LEVELS)
        assert sum(seen) <= 3_838

    @pytest.mark.parametrize("params", FADING_SETS)
    def test_sorted_draws_match_full_evaluation(self, params):
        # as run_validate passes them: 1e5 draws, sorted in place
        fading = SrFading(*params)
        gains = sample_sr_gain(fading, rng_for(1234), 100_000)
        gains.sort()
        assert ks_statistic(fading, gains) == ks_full(fading, gains)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3])
    def test_rejects_nan_and_negative(self, bad):
        gains = sample_sr_gain(FADING, rng_for(8), 1_000)
        gains[500] = bad
        with pytest.raises(ValueError):
            ks_statistic(FADING, gains)

    @pytest.mark.parametrize("params", FADING_SETS)
    def test_sorted_input_is_not_sorted_again(self, monkeypatch, params):
        # run_validate passes its gains sorted in place; D is the same, bit
        # for bit, and only input out of order is sorted
        fading = SrFading(*params)
        gains = sample_sr_gain(fading, rng_for(23), 10_000)
        d = ks_statistic(fading, gains)
        ascending, sort, sorted_sizes = np.sort(gains), np.sort, []

        def counted_sort(a, *args, **kwargs):
            sorted_sizes.append(len(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counted_sort)
        assert ks_statistic(fading, ascending) == d
        assert sorted_sizes == []
        assert ks_statistic(fading, gains) == d
        assert sorted_sizes == [len(gains)]

    @pytest.mark.parametrize("at", [0, 500, 999])
    @pytest.mark.parametrize("bad", [math.nan, -1e-3])
    def test_rejects_nan_and_negative_in_sorted_input(self, bad, at):
        gains = np.sort(sample_sr_gain(FADING, rng_for(8), 1_000))
        gains[at] = bad
        with pytest.raises(ValueError):
            ks_statistic(FADING, gains)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(FADING, np.array([]))


class TestSimulateRatePower:
    def test_rat_rate_within_bounds(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        cfg = SimConfig(n_samples=100_000, seed=42)
        res = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, lam)
        slack = 3.0 * res.rate_se_bps
        assert rep.throughput_lo_bps - slack <= res.mean_rate_bps <= rep.throughput_hi_bps + slack

    def test_rat_power_matches_closed_form(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        cfg = SimConfig(n_samples=100_000, seed=43)
        res = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, lam)
        assert abs(res.mean_power_w - rep.avg_power_lo_w) <= 3.0 * res.power_se_w

    def test_rate_at_the_end_of_a_whole_slot_pass(self, rat_setup):
        # a pass that is a whole number of slots up to rounding has span_s
        # just past the service time; an instant drawn at its very end still
        # gets a range
        rat, part, _, lam = rat_setup
        tl = build_timeline(GEO, service_duration(GEO) / 141 * (1.0 + 1e-12))
        assert tl.n_slots == 141 and tl.span_s > tl.service_time_s

        class EndOfPass:
            def __init__(self, rng):
                self.rng = rng

            def random(self, count):
                return np.full(count, np.nextafter(1.0, 0.0))

            def __getattr__(self, name):
                return getattr(self.rng, name)

        sums = _block(GEO, tl, FADING, part, BUDGET, rat, TRAFFIC, lam,
                      EndOfPass(rng_for(3)), 1_000)
        assert all(math.isfinite(x) for x in sums) and sums[0] > 0.0

    def test_pat_degenerate_rate_exact(self, timeline):
        # all mass above the first threshold and an unreachable cap: the
        # scheme sends every slot at the fixed rate
        part = GainPartition(thresholds=np.array([0.0, 1e-9]), top_mean_gain=FADING.mean_gain)
        pat = PatConfig(max_power_w=1e15, fixed_rate_bps=60e6)
        cfg = SimConfig(n_samples=20_000, seed=11)
        res = simulate(GEO, timeline, FADING, part, BUDGET, pat, TRAFFIC, 80.0, cfg)
        assert res.mean_rate_bps == 60e6
        assert res.rate_se_bps == 0.0


class TestSimulateDor:
    def test_zero_budget_certain_outage(self, timeline, rat_setup):
        rat, part, _, lam = rat_setup
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=0.0)
        cfg = SimConfig(n_samples=5_000, seed=4)
        res = simulate(GEO, timeline, FADING, part, BUDGET, rat, traffic, lam, cfg)
        assert res.dor == 1.0

    def test_pat_below_knee_exact(self, timeline):
        pat = PatConfig(max_power_w=1000.0, fixed_rate_bps=60e6)
        part = partitions(FADING, np.array([first_threshold(BUDGET, pat, D_MAX)]), 8,
                          None)[0][0]
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=5e-3)
        cfg = SimConfig(n_samples=5_000, seed=4)
        res = simulate(GEO, timeline, FADING, part, BUDGET, pat, traffic, 80.0, cfg)
        assert res.dor == 1.0

    @pytest.mark.parametrize("p_dbw,t_th", [(30.0, 1e-3), (50.0, 1e-3), (50.0, 9e-3)])
    def test_rat_matches_closed_form(self, timeline, p_dbw, t_th):
        rat = RatConfig(tx_power_w=10.0 ** (p_dbw / 10.0), min_snr=1.0)
        part, probs, lam = solve(first_threshold(BUDGET, rat, D_MAX))
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=t_th)
        closed = report(BUDGET, rat, part, timeline, probs, traffic, lam).dor
        cfg = SimConfig(n_samples=100_000, seed=77)
        res = simulate(GEO, timeline, FADING, part, BUDGET, rat, traffic, lam, cfg)
        assert abs(res.dor - closed) <= 3.0 * res.dor_se + 1e-9

    def test_wait_beyond_int64_slots(self, timeline, rat_setup):
        # a mean wait of 1e26 s puts completion slots past 2^63; they wrap
        # onto the pass before the integer cast, with no warning, and every
        # packet that waits is late
        rat, part, probs, _ = rat_setup
        cfg = SimConfig(n_samples=20_000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, 1e26, cfg)
        p1 = probs[0]
        assert res.dor >= p1 - 4.0 * math.sqrt(p1 * (1.0 - p1) / cfg.n_samples)

    def test_rejects_unbounded_wait(self, timeline, rat_setup):
        rat, part, _, _ = rat_setup
        cfg = SimConfig(n_samples=1_000, seed=4)
        for lam in (0.0, math.inf):
            with pytest.raises(ValueError):
                simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)


class TestDeterminismAndBlocks:
    def test_identical_seed_identical_result(self, timeline, rat_setup):
        rat, part, _, lam = rat_setup
        cfg = SimConfig(n_samples=70_000, seed=99)
        a = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
        b = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
        assert a == b

    def test_different_seed_differs(self, timeline, rat_setup):
        rat, part, _, lam = rat_setup
        a = simulate(
            GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam,
            SimConfig(n_samples=10_000, seed=1),
        )
        b = simulate(
            GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam,
            SimConfig(n_samples=10_000, seed=2),
        )
        assert a.mean_rate_bps != b.mean_rate_bps

    def test_out_of_order_blocks_reduce_identically(self, timeline, rat_setup):
        # the concurrency contract: block results computed in any order,
        # reduced in block order, give the sequential aggregate exactly
        rat, part, _, lam = rat_setup
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=20e-3)
        cfg = SimConfig(n_samples=150_000, seed=123)
        sequential = simulate(GEO, timeline, FADING, part, BUDGET, rat, traffic, lam, cfg)
        assert 0.0 < sequential.dor < 1.0
        blocks = _block_rngs(cfg.seed, cfg.n_samples)
        partials = [None] * len(blocks)
        for i in reversed(range(len(blocks))):
            rng, count = blocks[i]
            partials[i] = _block(
                GEO, timeline, FADING, part, BUDGET, rat, traffic, lam, rng, count
            )
        sums = [0.0] * 5
        for p in partials:
            for j in range(5):
                sums[j] += p[j]
        n = cfg.n_samples
        assert _mean_se(sums[0], sums[1], n) == (sequential.mean_rate_bps,
                                                 sequential.rate_se_bps)
        assert _mean_se(sums[2], sums[3], n) == (sequential.mean_power_w,
                                                 sequential.power_se_w)
        assert sums[4] / n == sequential.dor

    @pytest.mark.parametrize("kind", ["rat", "pat"])
    def test_worker_count_changes_no_bit(self, timeline, kind, request, monkeypatch):
        scheme, part, _, lam = request.getfixturevalue(f"{kind}_setup")
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=20e-3)
        cfg = SimConfig(n_samples=300_000, seed=123)  # five blocks
        workers = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        # the worker count reads no core count: two runs take one side worker each
        results = [simulate(GEO, timeline, FADING, part, BUDGET, scheme, traffic, lam, cfg)
                   for _ in range(2)]
        assert workers == [1, 1]  # one side worker beside the calling thread
        assert 0.0 < results[0].dor < 1.0
        assert results[0] == results[1]

    @pytest.mark.parametrize("kind", ["rat", "pat"])
    def test_integer_scheme_values_give_the_float_result(self, timeline, kind, request):
        scheme, part, _, lam = request.getfixturevalue(f"{kind}_setup")
        if kind == "rat":
            as_int = replace(scheme, tx_power_w=1000)
        else:
            as_int = replace(scheme, fixed_rate_bps=60_000_000)
        cfg = SimConfig(n_samples=70_000, seed=4)
        results = [simulate(GEO, timeline, FADING, part, BUDGET, s, TRAFFIC, lam, cfg)
                   for s in (scheme, as_int)]
        assert results[0] == results[1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the page reuse is glibc's allocator's")
    def test_blocks_reuse_their_pages(self):
        # In a fresh interpreter, where no large array has been freed yet, a
        # 1e6-replication simulate reuses the memory of its earlier blocks.
        # Where the calling thread gave each block's pages back, the second
        # call faulted in about 12 600 pages; now it faults in a few.
        # Each call starts its own side worker. The worker's thread hands its
        # malloc arena back as it exits, after the pool's join has returned,
        # so a second call that starts its worker before then gets a fresh
        # arena and faults in a whole block's pages (about 900): the script
        # waits for the first worker's thread to be gone.
        script = textwrap.dedent("""
            import os
            import resource
            import time
            from dataclasses import replace
            from pathlib import Path
            from leolink.pipeline import run_simulate
            from leolink.scenario import parse_scenario
            scn = parse_scenario(Path("scenarios/reference_rat.scn").read_text())
            scn = replace(scn, sim=replace(scn.sim, n_samples=1_000_000))
            threads = set(os.listdir("/proc/self/task"))
            run_simulate(scn)
            deadline = time.monotonic() + 60.0
            while set(os.listdir("/proc/self/task")) - threads:
                assert time.monotonic() < deadline, "the side worker's thread did not exit"
                time.sleep(0.001)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_simulate(scn)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                            if p)
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 300

    def test_worker_errors_propagate(self, timeline, rat_setup, monkeypatch):
        rat, part, _, lam = rat_setup
        cfg = SimConfig(n_samples=150_000, seed=123)
        last = cfg.n_samples - 2 * _BLOCK

        def failing_in_last_block(geo, t):
            if len(t) == last:
                raise OutOfPass("t=-1 outside the pass")
            return distance_at(geo, t)

        monkeypatch.setattr(montecarlo, "distance_at", failing_in_last_block)
        with pytest.raises(ValueError) as err:
            simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
        assert type(err.value) is OutOfPass
        assert str(err.value) == "t=-1 outside the pass"

    @pytest.mark.parametrize("kind", ["rat", "pat"])
    def test_block_peak_memory(self, timeline, kind, request):
        # blocks run side by side, so each keeps few arrays of its doubles
        # alive at once: as measured, 5.50 for the fixed-power scheme (at
        # its range computation) and 3.13 for the fixed-rate scheme, plus
        # about a quarter of an array
        arrays = {"rat": 5.75, "pat": 3.4}[kind]
        scheme, part, _, lam = request.getfixturevalue(f"{kind}_setup")
        args = (GEO, timeline, FADING, part, BUDGET, scheme, TRAFFIC, lam)
        _block(*args, rng_for(1), _BLOCK)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            _block(*args, rng_for(1), _BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * _BLOCK

    def test_rate_and_outage_read_their_own_time_scales(self, timeline, rat_setup):
        # The reference pass lasts service_time_s = 141.905 s over 141 whole
        # slots (span_s = 141 s). Rate and power are sampled over the slots,
        # arrivals over the whole service time, from one arrival fraction.
        assert timeline.service_time_s != timeline.span_s
        rat, part, _, lam = rat_setup
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=7e-3)
        cfg = SimConfig(n_samples=100_000, seed=8)
        res = simulate(GEO, timeline, FADING, part, BUDGET, rat, traffic, lam, cfg)
        slots_only = replace(timeline, service_time_s=timeline.span_s)
        ref = simulate(GEO, slots_only, FADING, part, BUDGET, rat, traffic, lam, cfg)
        rate_power = ("mean_rate_bps", "rate_se_bps", "mean_power_w", "power_se_w")
        assert [getattr(res, f) for f in rate_power] == [getattr(ref, f) for f in rate_power]
        assert res.dor != ref.dor

    def test_standard_error_scaling(self, timeline, rat_setup):
        rat, part, _, lam = rat_setup
        ses = []
        for n in (1_000, 10_000, 100_000):
            cfg = SimConfig(n_samples=n, seed=5)
            res = simulate(GEO, timeline, FADING, part, BUDGET, rat, TRAFFIC, lam, cfg)
            ses.append(res.rate_se_bps)
        assert ses[0] / ses[1] == pytest.approx(math.sqrt(10.0), rel=0.4)
        assert ses[1] / ses[2] == pytest.approx(math.sqrt(10.0), rel=0.4)


SCHEDULED_TRAFFIC = TrafficSpec(packet_bits=500e3, delay_threshold_s=20e-3)


def simulate_scheduled(monkeypatch, timeline, setup, schedule: str, fail=frozenset()):
    """simulate of a scheme at 20 000 replications in blocks of 4096: blocks
    0-4, with a packet budget whose outage lies strictly inside (0, 1),
    under a BlockSchedule whose calling thread waits as it enters the block
    runner. Returns the result, whether the calling thread ran each block,
    and the most threads seen alive by any block.
    """
    plan = BlockSchedule(monkeypatch, schedule, 5, fail)
    finish = montecarlo._finish

    def held_finish(blocks, pending):
        plan.hold_caller()
        return finish(blocks, pending)

    monkeypatch.setattr(montecarlo, "_finish", held_finish)
    scheme, part, _, lam = setup
    res = simulate(GEO, timeline, FADING, part, BUDGET, scheme, SCHEDULED_TRAFFIC, lam,
                   SimConfig(n_samples=20_000, seed=123))
    return res, plan.ran, max(plan.alive)


class TestSimulateSchedule:
    @pytest.mark.parametrize("schedule", ["none", "all", "some"])
    @pytest.mark.parametrize("kind", ["rat", "pat"])
    def test_result_does_not_depend_on_which_thread_runs_a_block(
            self, timeline, kind, schedule, request, monkeypatch):
        setup = request.getfixturevalue(f"{kind}_setup")
        threads = threading.active_count()
        res, ran, alive = simulate_scheduled(monkeypatch, timeline, setup, schedule)
        monkeypatch.undo()
        monkeypatch.setattr(montecarlo, "_BLOCK", 4096)
        scheme, part, _, lam = setup
        # the same five blocks, run in block order on this thread alone
        want = montecarlo._reduce(
            [_block(GEO, timeline, FADING, part, BUDGET, scheme, SCHEDULED_TRAFFIC, lam, rng,
                    count)
             for rng, count in _block_rngs(123, 20_000)], 20_000)
        assert 0.0 < want.dor < 1.0
        assert res == want
        assert sorted(ran) == list(range(5))
        here = {i for i, by_caller in ran.items() if by_caller}
        if schedule == "none":
            assert here == set()
        elif schedule == "all":
            assert here == set(range(5))
        else:
            # the worker holds block 0 until the calling thread has taken
            # the last block
            assert 0 not in here and 4 in here
        # the calling thread and one side worker
        assert alive <= threads + 1
        assert threading.active_count() == threads

    def test_result_under_fast_thread_switching(self, timeline, rat_setup, monkeypatch):
        # 20 blocks, while the two threads switch every microsecond
        monkeypatch.setattr(montecarlo, "_BLOCK", 1024)
        rat, part, _, lam = rat_setup
        args = (GEO, timeline, FADING, part, BUDGET, rat, SCHEDULED_TRAFFIC, lam)
        cfg = SimConfig(n_samples=20_000, seed=123)
        want = montecarlo._reduce([_block(*args, rng, count)
                                   for rng, count in _block_rngs(cfg.seed, cfg.n_samples)],
                                  cfg.n_samples)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert simulate(*args, cfg) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fail, first", [({0, 3}, 0), ({1, 3}, 1), ({2, 4}, 2), ({4}, 4)])
    @pytest.mark.parametrize("schedule", ["none", "all", "some"])
    def test_first_failing_block_surfaces(self, timeline, rat_setup, monkeypatch, schedule,
                                          fail, first):
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^block {first}$"):
            simulate_scheduled(monkeypatch, timeline, rat_setup, schedule, fail)
        assert threading.active_count() == threads

def sim_result(**fields) -> SimResult:
    estimates = dict(mean_rate_bps=1.0, rate_se_bps=0.0, mean_power_w=1.0,
                     power_se_w=0.0, dor=0.5, dor_se=0.0)
    return SimResult(n_samples=10, rng="philox4x64-10", **{**estimates, **fields})


class TestBlockBranchesGolden:
    # the cases of tests/make_goldens.py whose simulate rows reach every
    # branch of both schemes' blocks; test_golden_is_current holds their
    # rows bit for bit whatever work the blocks skip
    def test_cap_binds_above_state_1(self):
        # the first threshold holds the fixed rate within the cap out to
        # the coverage radius's range; the edge slots reach past it
        scn = case_scenario("pat", CAP_ABOVE_STATE_1)
        tl = build_timeline(scn.geometry, scn.slot_len_s)
        assert tl.slot_dist_max.max() > distance_range(scn.geometry)[1]


class TestSimResultValidation:
    def test_rejects_negative_se(self):
        sim_result()
        for se in ("rate_se_bps", "power_se_w", "dor_se"):
            with pytest.raises(ValueError):
                sim_result(**{se: -1.0})

    def test_rejects_out_of_range_dor(self):
        with pytest.raises(ValueError):
            sim_result(dor=1.5)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_samples=0, seed=1)

    def test_sim_config_rejects_nan(self):
        with pytest.raises(ValueError, match="^n_samples must be >= 1, got nan$"):
            SimConfig(n_samples=math.nan, seed=1)

    @pytest.mark.parametrize("seed", [-1, math.nan])
    def test_sim_config_rejects_negative_seed(self, seed):
        # SeedSequence would refuse it only at the first draw, naming no key
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            SimConfig(n_samples=1, seed=seed)
