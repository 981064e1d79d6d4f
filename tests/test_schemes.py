import math
from pathlib import Path

import numpy as np
import pytest

from leolink import schemes
from leolink.pipeline import prepare, run_analyze
from leolink.scenario import apply_sweep_value, parse_scenario
from leolink.channel import DopplerSpec, SrFading, afd, partitions, state_probs, tail_mass
from leolink.geometry import PassGeometry, build_timeline, distance_range, service_duration
from leolink.schemes import (
    DimensionMismatch,
    LinkBudget,
    PatConfig,
    RatConfig,
    SchemeReport,
    TrafficSpec,
    ZeroPower,
    dor_integral,
    first_threshold,
    report,
)

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


class TestValueChecks:
    """Every value check rejects NaN, with the message it gives a value out
    of range, and rejects its bound (> b) or the float just below it
    (>= b)."""

    @pytest.mark.parametrize("make, message", [
        (lambda: LinkBudget(math.nan, SIGMA2), "bandwidth_hz must be > 0, got nan"),
        (lambda: LinkBudget(60e6, math.nan), "noise_power_w must be > 0, got nan"),
        (lambda: LinkBudget(60e6, SIGMA2, math.nan), "path_loss_exp must be >= 2, got nan"),
        (lambda: RatConfig(math.nan, 1.0), "tx_power_w must be > 0, got nan"),
        (lambda: RatConfig(1000.0, math.nan), "min_snr must be > 0, got nan"),
        (lambda: PatConfig(math.nan, 60e6), "max_power_w must be > 0, got nan"),
        (lambda: PatConfig(1000.0, math.nan), "fixed_rate_bps must be > 0, got nan"),
        (lambda: TrafficSpec(math.nan, 1e-3), "packet_bits must be > 0, got nan"),
        (lambda: TrafficSpec(500e3, math.nan), "delay_threshold_s must be >= 0, got nan"),
        (lambda: SchemeReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, math.nan),
         "lam_s must be > 0, got nan"),
        (lambda: LinkBudget(0.0, SIGMA2), "bandwidth_hz must be > 0, got 0.0"),
        (lambda: LinkBudget(60e6, 0.0), "noise_power_w must be > 0, got 0.0"),
        (lambda: LinkBudget(60e6, SIGMA2, math.nextafter(2.0, 0.0)),
         "path_loss_exp must be >= 2, got 1.9999999999999998"),
        (lambda: RatConfig(0.0, 1.0), "tx_power_w must be > 0, got 0.0"),
        (lambda: RatConfig(1000.0, 0.0), "min_snr must be > 0, got 0.0"),
        (lambda: PatConfig(0.0, 60e6), "max_power_w must be > 0, got 0.0"),
        (lambda: PatConfig(1000.0, 0.0), "fixed_rate_bps must be > 0, got 0.0"),
        (lambda: TrafficSpec(0.0, 1e-3), "packet_bits must be > 0, got 0.0"),
        (lambda: TrafficSpec(500e3, -5e-324), "delay_threshold_s must be >= 0, got -5e-324"),
        (lambda: SchemeReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0),
         "lam_s must be > 0, got 0.0"),
    ], ids=["bandwidth", "noise", "path_loss", "tx_power", "min_snr", "max_power",
            "fixed_rate", "packet_bits", "delay_threshold", "report_lam",
            "bandwidth_bound", "noise_bound", "path_loss_bound", "tx_power_bound",
            "min_snr_bound", "max_power_bound", "fixed_rate_bound", "packet_bits_bound",
            "delay_threshold_bound", "report_lam_bound"])
    def test_classes_reject_nan(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("fields, message", [
        ((1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.5), r"need 0 <= ee_lo <= ee_hi"),
        ((1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 0.5), r"need 0 <= avg_power_lo <= avg_power_hi"),
        ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5), r"dor must be in \[0, 1\], got 1.5"),
        ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.5), r"dor must be in \[0, 1\], got -0.5"),
    ], ids=["ee_order", "avg_power_order", "dor_above", "dor_below"])
    def test_report_rejects_crossed_bounds(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SchemeReport(*fields, 1.0)

    def test_functions_reject_nan(self, timeline, rat_setup, pat_setup):
        rat, part, probs, _ = rat_setup
        pat, pat_part, pat_probs, _ = pat_setup
        with pytest.raises(ValueError, match="^d_max_m must be > 0, got nan$"):
            first_threshold(BUDGET, rat, math.nan)
        with pytest.raises(ValueError, match="^d_max_m must be > 0, got nan$"):
            first_threshold(BUDGET, pat, math.nan)
        with pytest.raises(ValueError, match="^lam_s must be > 0, got nan$"):
            dor_integral(BUDGET, rat, part, timeline, probs, TRAFFIC, math.nan)
        with pytest.raises(ValueError, match="^lam_s must be > 0, got nan$"):
            dor_integral(BUDGET, pat, pat_part, timeline, pat_probs, TRAFFIC, math.nan)
        with pytest.raises(ValueError, match="^lam_s must be > 0, got nan$"):
            report(BUDGET, rat, part, timeline, probs, TRAFFIC, math.nan)
        with pytest.raises(ValueError, match="^d_max_m must be > 0, got 0.0$"):
            first_threshold(BUDGET, pat, 0.0)
        with pytest.raises(ValueError, match="^lam_s must be > 0, got 0.0$"):
            dor_integral(BUDGET, pat, pat_part, timeline, pat_probs, TRAFFIC, 0.0)
        with pytest.raises(ValueError, match="^lam_s must be > 0, got 0.0$"):
            report(BUDGET, rat, part, timeline, probs, TRAFFIC, 0.0)


def dbw(x: float) -> float:
    return 10.0 ** (x / 10.0)


def solve(first: float, n_states: int = 8):
    """The partition above first, its state probabilities and the mean wait
    at first, by the pipeline's route: one partition solve, and the fade
    duration with the mass below first that the solve gives."""
    (part,), pi = partitions(FADING, np.array([first]), n_states, None)
    return part, pi[0], afd(FADING, DOPPLER, np.array([first]), pi[:, 0])[0]


def one_point(budget, config, part, tl):
    """One point, with state probabilities, traffic and wait the grids do
    not read."""
    return schemes._Points.of([budget], [config], [part], [tl], [np.zeros(part.n_states)],
                              [TRAFFIC], [1.0])


def rate_grids(budget, rat, part, tl):
    """The (K, N) lower and upper data-rate grids of one point."""
    return schemes._rat_grids(one_point(budget, rat, part, tl))[:, 0]


def power_grids(budget, pat, part, tl):
    """The (K, N) lower and upper transmit-power grids of one point."""
    return schemes._pat_grids(one_point(budget, pat, part, tl))[:, 0]


@pytest.fixture(scope="module")
def timeline():
    return build_timeline(GEO, 1.0)


@pytest.fixture(scope="module")
def rat_setup(timeline):
    rat = RatConfig(tx_power_w=dbw(30.0), min_snr=1.0)
    return (rat, *solve(first_threshold(BUDGET, rat, D_MAX)))


@pytest.fixture(scope="module")
def pat_setup(timeline):
    pat = PatConfig(max_power_w=dbw(30.0), fixed_rate_bps=60e6)
    return (pat, *solve(first_threshold(BUDGET, pat, D_MAX)))


def single_slot_setup(n_states: int = 4, tx_power_w: float = dbw(30.0)):
    t_s = service_duration(GEO)
    tl = build_timeline(GEO, t_s)
    rat = RatConfig(tx_power_w=tx_power_w, min_snr=1.0)
    part = partitions(FADING, np.array([first_threshold(BUDGET, rat, D_MAX)]), n_states,
                      None)[0][0]
    return tl, rat, part


def rat_throughput(rat, part, tl, probs):
    rep = report(BUDGET, rat, part, tl, probs, TRAFFIC, 1.0)
    return rep.throughput_lo_bps, rep.throughput_hi_bps


def rat_dor(rat, part, tl, probs, traffic, lam):
    return report(BUDGET, rat, part, tl, probs, traffic, lam).dor


def pat_dor(pat, part, tl, probs, traffic, lam):
    return report(BUDGET, pat, part, tl, probs, traffic, lam).dor


class TestRatFirstThreshold:
    def test_unit_identity(self):
        rat = RatConfig(tx_power_w=SIGMA2 * 1.0 * 1000.0**2, min_snr=1.0)
        assert first_threshold(BUDGET, rat, 1000.0) == pytest.approx(1.0, rel=1e-12)

    def test_quadrupled_power_halves_threshold(self):
        r1 = RatConfig(tx_power_w=100.0, min_snr=1.0)
        r4 = RatConfig(tx_power_w=400.0, min_snr=1.0)
        assert first_threshold(BUDGET, r4, D_MAX) == pytest.approx(
            first_threshold(BUDGET, r1, D_MAX) / 2.0, rel=1e-12
        )

    def test_reference_value(self):
        # sigma sqrt(gmin d^2 / P): sqrt(10^-9.6 * 707106.78^2 / 1000)
        rat = RatConfig(tx_power_w=dbw(30.0), min_snr=1.0)
        want = math.sqrt(SIGMA2 * 707106.78**2 / 1000.0)
        assert first_threshold(BUDGET, rat, 707106.78) == pytest.approx(
            want, rel=1e-12
        )
        assert want == pytest.approx(0.3543928909, rel=1e-9)


def spectral_efficiency(rate_bps):
    # SNR behind a data rate of the rate grid: 2^(R / B) - 1
    return 2.0 ** (rate_bps / BUDGET.bandwidth_hz) - 1.0


class TestRatSnrBounds:
    def test_bottom_state_is_silent(self, timeline, rat_setup):
        rat, part, _, _ = rat_setup
        rate_lo, rate_hi = rate_grids(BUDGET, rat, part, timeline)
        assert not rate_lo[0].any() and not rate_hi[0].any()

    def test_ordering(self, timeline, rat_setup):
        rat, part, _, _ = rat_setup
        rate_lo, rate_hi = rate_grids(BUDGET, rat, part, timeline)
        assert np.all(rate_lo <= rate_hi)
        # each state's lower edge is the state below's upper gain edge
        assert np.all(rate_lo[1:-1] < rate_lo[2:])

    def test_single_slot_hand_evaluation(self):
        tl, rat, part = single_slot_setup()
        assert tl.n_slots == 1
        rate_lo, rate_hi = rate_grids(BUDGET, rat, part, tl)
        # slot max equals d_max here, so the state-2 lower SNR is exactly
        # gamma_min; the upper edge pairs mu_2^2 with the overhead range H.
        assert spectral_efficiency(rate_lo[1, 0]) == pytest.approx(1.0, rel=1e-9)
        scale = rat.tx_power_w / SIGMA2
        want_hi = scale * float(part.thresholds[2]) ** 2 / GEO.orbit_height_m**2
        assert spectral_efficiency(rate_hi[1, 0]) == pytest.approx(want_hi, rel=1e-9)
        # the open-ended top state takes its conditional mean gain
        want_top = scale * part.top_mean_gain / GEO.orbit_height_m**2
        assert spectral_efficiency(rate_hi[-1, 0]) == pytest.approx(want_top, rel=1e-9)

    def test_rows_match_per_state_formula(self, timeline, rat_setup):
        # the one-broadcast grid equals a state-by-state evaluation bit for bit
        rat, part, _, _ = rat_setup
        rate_lo, rate_hi = rate_grids(BUDGET, rat, part, timeline)
        scale = rat.tx_power_w / SIGMA2
        gains_hi = [*(part.thresholds[2:] ** 2), part.top_mean_gain]
        for k in range(1, part.n_states):
            lo = np.log2(1.0 + scale * part.thresholds[k] ** 2 / timeline.slot_dist_max**2.0)
            hi = np.log2(1.0 + scale * gains_hi[k - 1] / timeline.slot_dist_min**2.0)
            assert np.array_equal(rate_lo[k], BUDGET.bandwidth_hz * lo)
            assert np.array_equal(rate_hi[k], BUDGET.bandwidth_hz * hi)

    def test_index_errors(self, timeline, rat_setup):
        # one row per state and one column per slot, and no cell outside them
        rat, part, _, _ = rat_setup
        for grid in rate_grids(BUDGET, rat, part, timeline):
            assert grid.shape == (part.n_states, timeline.n_slots)
            with pytest.raises(IndexError):
                grid[part.n_states, 0]
            with pytest.raises(IndexError):
                grid[0, timeline.n_slots]


class TestRatThroughput:
    def test_no_transmission_states(self, timeline, rat_setup):
        # mass moved into the bottom state carries no throughput: halving
        # every other state's share halves both bounds
        rat, part, probs, _ = rat_setup
        half = probs.copy()
        half[1:] /= 2.0
        half[0] = 1.0 - half[1:].sum()
        lo, hi = rat_throughput(rat, part, timeline, probs)
        half_lo, half_hi = rat_throughput(rat, part, timeline, half)
        assert half_lo == pytest.approx(lo / 2.0, rel=1e-12)
        assert half_hi == pytest.approx(hi / 2.0, rel=1e-12)

    def test_bounds_ordered(self, timeline, rat_setup):
        rat, part, probs, _ = rat_setup
        lo, hi = rat_throughput(rat, part, timeline, probs)
        assert 0.0 < lo <= hi < math.inf

    def test_dimension_mismatch(self, timeline, rat_setup, pat_setup):
        # one probability per state, or the report is refused
        rat, part, _, _ = rat_setup
        pat = pat_setup[0]
        for k in (part.n_states - 1, part.n_states + 1):
            bad = np.full(k, 1.0 / k)
            with pytest.raises(DimensionMismatch, match=rf"^state probabilities have shape "
                               rf"\({k},\), expected \({part.n_states},\)$"):
                report(BUDGET, rat, part, timeline, bad, TRAFFIC, 1.0)
            with pytest.raises(DimensionMismatch):
                report(BUDGET, pat, part, timeline, bad, TRAFFIC, 1.0)
            with pytest.raises(DimensionMismatch):
                dor_integral(BUDGET, rat, part, timeline, bad, TRAFFIC, 1.0)
            with pytest.raises(DimensionMismatch):
                dor_integral(BUDGET, pat, part, timeline, bad, TRAFFIC, 1.0)
        with pytest.raises(DimensionMismatch):
            report(BUDGET, rat, part, timeline, np.full((part.n_states, 2), 0.5), TRAFFIC, 1.0)

    def test_monotone_in_power(self, timeline):
        prev_lo = prev_hi = 0.0
        for p_dbw in [24.0, 30.0, 36.0, 42.0]:
            rat = RatConfig(tx_power_w=dbw(p_dbw), min_snr=1.0)
            part, probs, _ = solve(first_threshold(BUDGET, rat, D_MAX))
            lo, hi = rat_throughput(rat, part, timeline, probs)
            assert lo >= prev_lo and hi >= prev_hi
            prev_lo, prev_hi = lo, hi

    def test_monotone_in_height(self):
        rat = RatConfig(tx_power_w=dbw(30.0), min_snr=1.0)
        prev_lo = prev_hi = math.inf
        for h in [500e3, 700e3, 900e3, 1100e3]:
            geo = PassGeometry(
                earth_radius_m=6371e3, orbit_height_m=h, coverage_radius_m=500e3,
                half_track_m=500e3, sat_speed_ms=7600.0,
            )
            tl = build_timeline(geo, 1.0)
            d_max = distance_range(geo)[1]
            part, probs, _ = solve(first_threshold(BUDGET, rat, d_max))
            lo, hi = rat_throughput(rat, part, tl, probs)
            assert lo <= prev_lo and hi <= prev_hi
            prev_lo, prev_hi = lo, hi


class TestRatPowerAndEe:
    def test_all_waiting(self):
        # two states, all mass in the bottom one: nothing is ever sent
        tl, rat, part = single_slot_setup(n_states=2, tx_power_w=500.0)
        probs = np.array([1.0, 0.0])
        with pytest.raises(ZeroPower):
            report(BUDGET, rat, part, tl, probs, TRAFFIC, 1.0)

    def test_always_transmitting(self, timeline):
        rat = RatConfig(tx_power_w=500.0, min_snr=1.0)
        part = partitions(FADING, np.array([first_threshold(BUDGET, rat, D_MAX)]), 2,
                          None)[0][0]
        probs = np.array([0.0, 1.0])
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, 1.0)
        assert rep.avg_power_lo_w == pytest.approx(500.0, rel=1e-12)

    def test_mixed_column(self):
        tl, rat, part = single_slot_setup(n_states=2, tx_power_w=500.0)
        probs = np.array([0.3, 0.7])
        rep = report(BUDGET, rat, part, tl, probs, TRAFFIC, 1.0)
        assert rep.avg_power_lo_w == pytest.approx(0.7 * 500.0, rel=1e-12)

    def test_zero_power_guard(self, timeline, rat_setup):
        rat, part, _, lam = rat_setup
        silent = np.zeros(part.n_states)
        silent[0] = 1.0
        with pytest.raises(ZeroPower):
            report(BUDGET, rat, part, timeline, silent, TRAFFIC, lam)

    @pytest.mark.parametrize("tx_power", [2.0, 0.8])
    def test_deep_tail_power_keeps_its_digits(self, tx_power):
        # at these powers the RAT reference transmits with probability about
        # 1e-72 and 1e-191, far below the resolution of 1 - pi_1: the power
        # is P_T times the tail mass above the first threshold
        text = (Path(__file__).resolve().parent.parent / "scenarios"
                / "reference_rat.scn").read_text()
        scn = apply_sweep_value(parse_scenario(text), "rat.tx_power", tx_power)
        parts = prepare(scn)
        rep = run_analyze(scn, parts)
        power = tx_power * tail_mass(scn.fading, parts.partition.thresholds[1:2] ** 2)[0]
        assert rep.avg_power_lo_w == pytest.approx(power, rel=1e-12, abs=0.0)
        assert rep.ee_lo_bpj == pytest.approx(rep.throughput_lo_bps / power, rel=1e-12)
        assert rep.ee_hi_bpj == pytest.approx(rep.throughput_hi_bps / power, rel=1e-12)

    def test_ee_recomposition(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, lam)
        assert rep.avg_power_lo_w == rep.avg_power_hi_w
        assert rep.ee_lo_bpj == rep.throughput_lo_bps / rep.avg_power_lo_w
        assert rep.ee_hi_bpj == rep.throughput_hi_bps / rep.avg_power_lo_w


class TestRatDor:
    def test_zero_threshold(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=0.0)
        assert rat_dor(rat, part, timeline, probs, traffic, lam) == 1.0

    def test_huge_threshold(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=1e9)
        assert rat_dor(rat, part, timeline, probs, traffic, lam) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_monotone_in_delay_budget(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        prev = 1.0
        for t_th in [0.0, 2e-4, 5e-4, 1e-3, 5e-3, 9e-3, 2e-2, 1e-1]:
            traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=t_th)
            val = rat_dor(rat, part, timeline, probs, traffic, lam)
            assert val <= prev + 1e-15
            prev = val

    @pytest.mark.parametrize("p_dbw", [30.0, 40.0, 50.0])
    @pytest.mark.parametrize("t_th", [2e-4, 5e-4, 1e-3, 8e-3, 1.2e-2])
    def test_closed_form_equals_time_integral(self, timeline, p_dbw, t_th):
        rat = RatConfig(tx_power_w=dbw(p_dbw), min_snr=1.0)
        part, probs, lam = solve(first_threshold(BUDGET, rat, D_MAX))
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=t_th)
        closed = rat_dor(rat, part, timeline, probs, traffic, lam)
        integral = dor_integral(BUDGET, rat, part, timeline, probs, traffic, lam)
        assert abs(closed - integral) < 1e-9

    def test_nontrivial_value_exercises_both_terms(self, timeline):
        # 50 dBW pushes top-state deliveries under 1 ms while a 12 ms budget
        # also arms the waiting-period branch
        rat = RatConfig(tx_power_w=dbw(50.0), min_snr=1.0)
        part, probs, lam = solve(first_threshold(BUDGET, rat, D_MAX))
        short = rat_dor(rat, part, timeline, probs, TrafficSpec(500e3, 1e-3), lam)
        assert 0.0 < short < 1.0

    def test_rejects_bad_lambda(self, timeline, rat_setup):
        rat, part, probs, _ = rat_setup
        with pytest.raises(ValueError):
            rat_dor(rat, part, timeline, probs, TRAFFIC, 0.0)

    @pytest.mark.parametrize("tx_power, lam, t_th", [
        (1e6, None, 1000.0), (1e3, 7.95e-3, 0.3), (1e3, 7.95e-3, 3.0),
    ], ids=["60dBW-1000s", "lam7.95ms-0.3s", "lam7.95ms-3s"])
    def test_deep_outage_keeps_its_digits(self, tx_power, lam, t_th):
        # every state above the first drains within the budget, so the DOR
        # is state 1's wait alone, pi_1 times the slot mean of
        # exp(-(T - D / r_2) / lam), at 1e-241 to 1e-165: far below the
        # resolution of 1 less the delivered mass
        text = (Path(__file__).resolve().parent.parent / "scenarios"
                / "reference_rat.scn").read_text()
        scn = apply_sweep_value(parse_scenario(text), "rat.tx_power", tx_power)
        parts = prepare(scn)
        lam = parts.lam_s if lam is None else lam
        pi, first = parts.probs.probs[:, 0], parts.partition.thresholds[1]
        budget, tl = scn.budget, parts.timeline
        r2 = budget.bandwidth_hz * np.log2(
            1.0 + tx_power * first**2
            / (budget.noise_power_w * np.asarray(tl.slot_dist_max) ** budget.path_loss_exp))
        want = pi[0] * np.mean(np.exp(-(t_th - 500e3 / r2) / lam))
        traffic = TrafficSpec(500e3, t_th)
        dor = report(budget, scn.rat, parts.partition, tl, pi, traffic, lam).dor
        assert 0.0 < want < 1e-17
        assert dor == pytest.approx(want, rel=1e-12, abs=0.0)


class TestRatReport:
    def test_composition(self, timeline, rat_setup):
        rat, part, probs, lam = rat_setup
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, lam)
        assert rep.throughput_lo_bps <= rep.throughput_hi_bps
        assert rep.avg_power_lo_w == rep.avg_power_hi_w
        assert rep.ee_lo_bpj <= rep.ee_hi_bpj
        assert 0.0 <= rep.dor <= 1.0
        assert rep.lam_s == lam

    def test_one_rate_grid_per_report(self, monkeypatch, timeline, rat_setup):
        # the report builds one grid and reads its throughput bounds from it
        rat, part, probs, lam = rat_setup
        grids, rat_grids = [], schemes._rat_grids

        def counted(pts):
            grids.append(rat_grids(pts))
            return grids[-1]

        monkeypatch.setattr(schemes, "_rat_grids", counted)
        rep = report(BUDGET, rat, part, timeline, probs, TRAFFIC, lam)
        assert len(grids) == 1
        rate_lo, rate_hi = grids[0][:, 0]
        assert (rate_lo.tolist(), rate_hi.tolist()) == tuple(
            grid.tolist() for grid in rate_grids(BUDGET, rat, part, timeline))
        n = timeline.n_slots
        assert rep.throughput_lo_bps == float(np.sum(probs[:, None] * rate_lo)) / n
        assert rep.throughput_hi_bps == float(np.sum(probs[:, None] * rate_hi)) / n

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            SchemeReport(
                throughput_lo_bps=2.0, throughput_hi_bps=1.0,
                avg_power_lo_w=1.0, avg_power_hi_w=1.0,
                ee_lo_bpj=1.0, ee_hi_bpj=1.0, dor=0.5, lam_s=1.0,
            )


class TestPatFirstThreshold:
    def test_unit_identity(self):
        # fixed rate equal to bandwidth needs SNR 1; P_max = sigma^2 d^rho
        pat = PatConfig(max_power_w=SIGMA2 * 1000.0**2, fixed_rate_bps=60e6)
        assert first_threshold(BUDGET, pat, 1000.0) == pytest.approx(1.0, rel=1e-12)

    def test_vanishes_with_large_cap(self):
        small = first_threshold(
            BUDGET, PatConfig(max_power_w=1e15, fixed_rate_bps=60e6), D_MAX
        )
        assert small < 1e-4

    def test_reference_value(self):
        pat = PatConfig(max_power_w=dbw(30.0), fixed_rate_bps=60e6)
        want = math.sqrt(SIGMA2 * 1.0 * D_MAX**2 / dbw(30.0))
        assert first_threshold(BUDGET, pat, D_MAX) == pytest.approx(want, rel=1e-12)


class TestPatPowerBounds:
    def test_bottom_state_is_silent(self, timeline, pat_setup):
        pat, part, _, _ = pat_setup
        power_lo, power_hi = power_grids(BUDGET, pat, part, timeline)
        assert not power_lo[0].any() and not power_hi[0].any()

    def test_ordering(self, timeline, pat_setup):
        pat, part, _, _ = pat_setup
        power_lo, power_hi = power_grids(BUDGET, pat, part, timeline)
        assert np.all((0.0 <= power_lo) & (power_lo <= power_hi)
                      & (power_hi <= pat.max_power_w))

    def test_cap_reached_exactly_at_worst_case(self):
        # single-slot pass: slot max distance equals the envelope d_max, so
        # substituting the first threshold gives the cap itself
        t_s = service_duration(GEO)
        tl = build_timeline(GEO, t_s)
        pat = PatConfig(max_power_w=dbw(30.0), fixed_rate_bps=60e6)
        u1 = first_threshold(BUDGET, pat, D_MAX)
        part = partitions(FADING, np.array([u1]), 4, None)[0][0]
        _, power_hi = power_grids(BUDGET, pat, part, tl)
        assert power_hi[1, 0] == pytest.approx(pat.max_power_w, rel=1e-12)

    def test_top_state_lower_bound_is_zero(self, timeline, pat_setup):
        pat, part, _, _ = pat_setup
        power_lo, power_hi = power_grids(BUDGET, pat, part, timeline)
        assert not power_lo[-1].any()
        assert np.all(power_hi[-1] > 0.0)

    def test_gains_are_squared_thresholds(self):
        # each state's gain edge is thresholds**2 bit for bit, as in
        # GainPartition.classify; at 17 states and 1000 km the PAT reference
        # has a threshold whose libm square is one ulp off
        text = (Path(__file__).resolve().parent.parent / "scenarios"
                / "reference_pat.scn").read_text()
        scn = apply_sweep_value(parse_scenario(text), "partition.n_states", 17)
        scn = apply_sweep_value(scn, "geometry.orbit_height", 1000e3)
        p = prepare(scn)
        gains = p.partition.thresholds**2
        assert any(g != float(t) ** 2 for g, t in zip(gains, p.partition.thresholds))
        snr_needed = 2.0 ** (scn.pat.fixed_rate_bps / scn.budget.bandwidth_hz) - 1.0
        base = scn.budget.noise_power_w * snr_needed * p.timeline.slot_dist_max**2.0
        cap = scn.pat.max_power_w
        power_lo, power_hi = power_grids(scn.budget, scn.pat, p.partition, p.timeline)
        for k in range(1, p.partition.n_states):
            assert np.array_equal(power_hi[k], np.minimum(base / gains[k], cap))
            if k + 1 < p.partition.n_states:
                assert np.array_equal(power_lo[k], np.minimum(base / gains[k + 1], cap))

    def test_index_errors(self, timeline, pat_setup):
        # one row per state and one column per slot, and no cell outside them
        pat, part, _, _ = pat_setup
        for grid in power_grids(BUDGET, pat, part, timeline):
            assert grid.shape == (part.n_states, timeline.n_slots)
            with pytest.raises(IndexError):
                grid[part.n_states, 0]
            with pytest.raises(IndexError):
                grid[0, timeline.n_slots]


class TestTwoStates:
    # One slot at the envelope distance, so the state-2 lower edge sits
    # exactly at the scheme's first threshold; 30% of the mass waits.
    PROBS = np.array([0.3, 0.7])
    TRAFFIC = TrafficSpec(packet_bits=500e3, delay_threshold_s=20e-3)
    LAM = 0.01

    def waited_outage(self, service_s):
        # only a packet that arrives in the bottom state and waits past the
        # budget less its service time misses it
        return 0.3 * math.exp(-(self.TRAFFIC.delay_threshold_s - service_s) / self.LAM)

    def test_rat_hand_values(self):
        tl, rat, part = single_slot_setup(n_states=2, tx_power_w=500.0)
        rep = report(BUDGET, rat, part, tl, self.PROBS, self.TRAFFIC, self.LAM)
        b = BUDGET.bandwidth_hz
        top_snr = rat.tx_power_w / SIGMA2 * part.top_mean_gain / GEO.orbit_height_m**2
        # min_snr = 1 at the lower edge: one bit per second per hertz
        assert rep.throughput_lo_bps == pytest.approx(0.7 * b, rel=1e-9)
        assert rep.throughput_hi_bps == pytest.approx(0.7 * b * math.log2(1.0 + top_snr),
                                                      rel=1e-9)
        assert rep.avg_power_lo_w == rep.avg_power_hi_w == pytest.approx(350.0, rel=1e-12)
        assert rep.ee_lo_bpj == pytest.approx(0.7 * b / 350.0, rel=1e-9)
        assert rep.dor == pytest.approx(self.waited_outage(500e3 / b), rel=1e-9)

    def test_pat_hand_values(self):
        tl = single_slot_setup()[0]
        pat = PatConfig(max_power_w=500.0, fixed_rate_bps=60e6)
        part = partitions(FADING, np.array([first_threshold(BUDGET, pat, D_MAX)]), 2,
                          None)[0][0]
        rep = report(BUDGET, pat, part, tl, self.PROBS, self.TRAFFIC, self.LAM)
        assert rep.throughput_lo_bps == rep.throughput_hi_bps == pytest.approx(0.7 * 60e6,
                                                                              rel=1e-12)
        # the top state is open-ended: no lower power bound, no upper EE bound
        assert rep.avg_power_lo_w == 0.0 and rep.ee_hi_bpj == math.inf
        # the first threshold needs the whole cap at the envelope distance
        assert rep.avg_power_hi_w == pytest.approx(0.7 * 500.0, rel=1e-9)
        assert rep.ee_lo_bpj == pytest.approx(60e6 / 500.0, rel=1e-9)
        assert rep.dor == pytest.approx(self.waited_outage(500e3 / 60e6), rel=1e-12)


class TestPatReport:
    def test_below_knee_is_certain_outage(self, timeline, pat_setup):
        pat, part, probs, lam = pat_setup
        # D / R_fix = 8.33 ms; a 5 ms budget cannot be met
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=5e-3)
        rep = report(BUDGET, pat, part, timeline, probs, traffic, lam)
        assert rep.dor == 1.0

    def test_at_knee_equals_bottom_state_mass(self, timeline, pat_setup):
        pat, part, probs, lam = pat_setup
        knee = 500e3 / pat.fixed_rate_bps
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=knee)
        rep = report(BUDGET, pat, part, timeline, probs, traffic, lam)
        assert rep.dor == pytest.approx(probs[0], rel=1e-12)

    def test_above_knee_decays(self, timeline, pat_setup):
        pat, part, probs, lam = pat_setup
        knee = 500e3 / pat.fixed_rate_bps
        prev = 1.0
        for t_th in [knee, knee * 1.5, knee * 4.0, knee * 20.0]:
            rep = report(
                BUDGET, pat, part, timeline, probs,
                TrafficSpec(500e3, t_th), lam,
            )
            assert rep.dor <= prev + 1e-15
            prev = rep.dor

    def test_closed_form_equals_time_integral(self, timeline, pat_setup):
        pat, part, probs, lam = pat_setup
        knee = 500e3 / pat.fixed_rate_bps
        for t_th in [0.0, knee * 0.7, knee, knee * 1.3, knee * 10.0]:
            traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=t_th)
            closed = pat_dor(pat, part, timeline, probs, traffic, lam)
            integral = dor_integral(BUDGET, pat, part, timeline, probs, traffic, lam)
            assert abs(closed - integral) < 1e-9

    def test_throughput_single_valued(self, timeline, pat_setup):
        pat, part, probs, lam = pat_setup
        rep = report(BUDGET, pat, part, timeline, probs, TRAFFIC, lam)
        want = pat.fixed_rate_bps * (1.0 - probs[0])
        assert rep.throughput_lo_bps == rep.throughput_hi_bps == pytest.approx(
            want, rel=1e-12
        )

    def test_zero_power_guard(self, timeline, pat_setup):
        pat, part, _, lam = pat_setup
        silent = np.zeros(part.n_states)
        silent[0] = 1.0
        with pytest.raises(ZeroPower):
            report(BUDGET, pat, part, timeline, silent, TRAFFIC, lam)

    def test_deep_tail_rate_still_reports(self, timeline):
        # 600 Mbit/s at a 30 dBW cap: the first threshold sits ~150 orders of
        # magnitude into the tail; the report must still assemble, with the
        # outage dominated by the waiting state
        pat = PatConfig(max_power_w=dbw(30.0), fixed_rate_bps=600e6)
        (part,), probs = partitions(FADING, np.array([first_threshold(BUDGET, pat, D_MAX)]),
                                    8, None)
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=1e-3)
        rep = report(BUDGET, pat, part, timeline, probs[0], traffic, lam_s=1e6)
        assert rep.dor == pytest.approx(1.0, abs=1e-6)
        assert rep.throughput_lo_bps < 1e-100


class TestMonotoneDorInPower:
    def test_rat_dor_nonincreasing_in_power(self, timeline):
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=1e-3)
        prev = 1.0 + 1e-12
        for p_dbw in [30.0, 36.0, 42.0, 48.0, 54.0]:
            rat = RatConfig(tx_power_w=dbw(p_dbw), min_snr=1.0)
            part, probs, lam = solve(first_threshold(BUDGET, rat, D_MAX))
            val = rat_dor(rat, part, timeline, probs, traffic, lam)
            assert val <= prev + 1e-12
            prev = val

    def test_pat_dor_nonincreasing_in_cap(self, timeline):
        traffic = TrafficSpec(packet_bits=500e3, delay_threshold_s=9e-3)
        prev = 1.0 + 1e-12
        for p_dbw in [24.0, 30.0, 36.0, 42.0, 48.0]:
            pat = PatConfig(max_power_w=dbw(p_dbw), fixed_rate_bps=60e6)
            part, probs, lam = solve(first_threshold(BUDGET, pat, D_MAX))
            val = pat_dor(pat, part, timeline, probs, traffic, lam)
            assert val <= prev + 1e-12
            prev = val


class TestPointsTogether:
    """schemes._reports answers points of different state and slot counts
    in one call, padded to the most of each."""

    @pytest.fixture(scope="class")
    def points(self):
        pat = PatConfig(max_power_w=dbw(30.0), fixed_rate_bps=60e6)
        rat = RatConfig(tx_power_w=dbw(30.0), min_snr=1.0)
        cases = []
        for k, height, slot in ((2, 500e3, 1.0), (8, 900e3, 0.5), (5, 700e3, 3.0)):
            geo = PassGeometry(earth_radius_m=6371e3, orbit_height_m=height,
                               coverage_radius_m=500e3, half_track_m=500e3,
                               sat_speed_ms=7600.0)
            tl = build_timeline(geo, slot)
            d_max = distance_range(geo)[1]
            firsts = (first_threshold(BUDGET, rat, d_max),
                      first_threshold(BUDGET, pat, d_max))
            rat_part, pat_part = (partitions(FADING, np.array([first]), k, None)[0][0]
                                  for first in firsts)
            cases.append((tl, (rat, rat_part), (pat, pat_part)))
        return cases

    @pytest.mark.parametrize("scheme", [0, 1], ids=["rat", "pat"])
    def test_grids_and_reports_match_each_point_alone(self, points, scheme):
        configs = [case[1 + scheme][0] for case in points]
        parts = [case[1 + scheme][1] for case in points]
        tls = [case[0] for case in points]
        pis = [state_probs(FADING, part) for part in parts]
        pts = schemes._Points.of([BUDGET] * 3, configs, parts, tls, pis, [TRAFFIC] * 3,
                                 [0.01] * 3)
        grids = (schemes._rat_grids, schemes._pat_grids)[scheme](pts)
        assert np.isfinite(grids).all()
        alone = (rate_grids, power_grids)[scheme]
        for config, part, tl, *blocks in zip(configs, parts, tls, *grids):
            # each point's own block is its grid alone, bit for bit
            for block, want in zip(blocks, alone(BUDGET, config, part, tl)):
                assert block[:part.n_states, :tl.n_slots].tolist() == want.tolist()
        want = [report(BUDGET, config, part, tl, pi, TRAFFIC, 0.01)
                for config, part, tl, pi in zip(configs, parts, tls, pis)]
        assert schemes._reports(pts) == want
