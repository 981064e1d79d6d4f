"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its measured margin. Tolerances are fixed here and must not
be loosened; runtime budgets are asserted too.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from leolink.channel import (
    DopplerSpec,
    SrFading,
    afd,
    partitions,
    sr_cdf,
    sr_cdf_quadrature,
)
from leolink.cli import main
from leolink.geometry import (
    PassGeometry,
    build_timeline,
    distance_at,
    distance_range,
    service_duration,
)
from leolink.montecarlo import (
    KS_CRIT_ALPHA01,
    SimConfig,
    ks_statistic,
    sample_sr_gain,
    simulate,
)
from leolink.schemes import (
    PatConfig,
    RatConfig,
    TrafficSpec,
    dor_integral,
    first_threshold,
    report,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FADING = SrFading(m=10.1, b0=0.126, omega=0.825)
DOPPLER = DopplerSpec(f_scatter_max_hz=100.0, mean_aoa_rad=1.55, aoa_width=24.2)
SIGMA2 = 10.0 ** ((-66.0 - 30.0) / 10.0)
TRAFFIC_BITS = 500e3


def dbw(x: float) -> float:
    return 10.0 ** (x / 10.0)


def make_geo(height_m: float = 500e3) -> PassGeometry:
    return PassGeometry(
        earth_radius_m=6371e3,
        orbit_height_m=height_m,
        coverage_radius_m=500e3,
        half_track_m=500e3,
        sat_speed_ms=7600.0,
        terminal_offset_m=0.0,
    )


def solve(first: float, n_states: int = 8):
    """The partition above first, its state probabilities and the mean wait
    at first, by the pipeline's route."""
    (part,), pi = partitions(FADING, np.array([first]), n_states, None)
    return part, pi[0], afd(FADING, DOPPLER, np.array([first]), pi[:, 0])[0]


def rat_stack(height_m: float, p_t_w: float, n_states: int = 8):
    from leolink.schemes import LinkBudget

    geo = make_geo(height_m)
    tl = build_timeline(geo, 1.0)
    budget = LinkBudget(bandwidth_hz=60e6, noise_power_w=SIGMA2, path_loss_exp=2.0)
    rat = RatConfig(tx_power_w=p_t_w, min_snr=1.0)
    d_max = distance_range(geo)[1]
    part, probs, lam = solve(first_threshold(budget, rat, d_max), n_states)
    return geo, tl, budget, rat, part, probs, lam


def pat_stack(p_max_w: float, rate_bps: float = 60e6):
    from leolink.schemes import LinkBudget

    geo = make_geo()
    tl = build_timeline(geo, 1.0)
    budget = LinkBudget(bandwidth_hz=60e6, noise_power_w=SIGMA2, path_loss_exp=2.0)
    pat = PatConfig(max_power_w=p_max_w, fixed_rate_bps=rate_bps)
    d_max = distance_range(geo)[1]
    part, probs, lam = solve(first_threshold(budget, pat, d_max))
    return geo, tl, budget, pat, part, probs, lam


def test_acceptance_1_sr_distribution_correctness():
    start = time.monotonic()
    worst = 0.0
    for m in (1, 2, 5):
        fading = SrFading(m=float(m), b0=0.126, omega=0.825)
        xs = np.linspace(0.01, 10.0, 100)
        diff = float(np.max(np.abs(sr_cdf(fading, xs) - sr_cdf_quadrature(fading, xs))))
        worst = max(worst, diff)
        assert diff < 1e-8

    rng = np.random.Generator(np.random.Philox(2026))
    gains = sample_sr_gain(FADING, rng, 100_000)
    d_stat = ks_statistic(FADING, gains)
    crit = KS_CRIT_ALPHA01 / math.sqrt(len(gains))
    assert d_stat < crit

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: closed-form vs quadrature CDF max diff "
          f"{worst:.2e} (< 1e-8); sampler KS D={d_stat:.5f} < {crit:.5f}; "
          f"{elapsed:.1f}s")


def test_acceptance_2_fsmc_consistency():
    start = time.monotonic()
    _, tl, _, _, part, pi, _ = rat_stack(500e3, dbw(30.0))
    sum_err = abs(float(pi.sum()) - 1.0)
    assert sum_err < 1e-9

    n = 1_000_000
    rng = np.random.Generator(np.random.Philox(77))
    gains = sample_sr_gain(FADING, rng, n)
    freq = np.bincount(part.classify(gains), minlength=part.n_states + 1)[1:] / n
    se = np.sqrt(pi * (1.0 - pi) / n)
    z = np.abs(freq - pi) / se
    assert float(z.max()) <= 3.0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: probability-sum error {sum_err:.1e} (< 1e-9); "
          f"max |z| over {part.n_states} states at 1e6 samples "
          f"{float(z.max()):.2f} (<= 3); {elapsed:.1f}s")


def test_acceptance_3_bracket_reproduction():
    start = time.monotonic()
    seed = 31_000
    checked = 0
    for p_dbw in (30.0, 36.0, 42.0):
        for h_km in (500.0, 800.0, 1100.0):
            geo, tl, budget, rat, part, probs, lam = rat_stack(h_km * 1e3, dbw(p_dbw))
            traffic = TrafficSpec(TRAFFIC_BITS, 1e-3)
            rep = report(budget, rat, part, tl, probs, traffic, lam)
            lo, hi = rep.throughput_lo_bps, rep.throughput_hi_bps
            ee_lo, ee_hi = rep.ee_lo_bpj, rep.ee_hi_bpj
            cfg = SimConfig(n_samples=100_000, seed=seed)
            seed += 1
            sim = simulate(geo, tl, FADING, part, budget, rat, traffic, lam, cfg)
            slack = 3.0 * sim.rate_se_bps
            assert lo - slack <= sim.mean_rate_bps <= hi + slack, (p_dbw, h_km)
            ee = sim.mean_rate_bps / sim.mean_power_w
            rel = math.sqrt(
                (sim.rate_se_bps / sim.mean_rate_bps) ** 2
                + (sim.power_se_w / sim.mean_power_w) ** 2
            )
            ee_slack = 3.0 * ee * rel
            assert ee_lo - ee_slack <= ee <= ee_hi + ee_slack, (p_dbw, h_km)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 PASS: Monte-Carlo rate and energy efficiency inside "
          f"analytic brackets at all {checked} (P_T, H) grid points; {elapsed:.1f}s")


def test_acceptance_4_waiting_time_outage_closed_form():
    start = time.monotonic()
    seed = 41_000
    worst_gap = 0.0
    for p_dbw in (30.0, 40.0):
        geo, tl, budget, rat, part, probs, lam = rat_stack(500e3, dbw(p_dbw))
        for t_th in (0.2e-3, 0.5e-3, 1.0e-3):
            traffic = TrafficSpec(packet_bits=TRAFFIC_BITS, delay_threshold_s=t_th)
            closed = report(budget, rat, part, tl, probs, traffic, lam).dor
            integral = dor_integral(budget, rat, part, tl, probs, traffic, lam)
            gap = abs(closed - integral)
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-9
            cfg = SimConfig(n_samples=100_000, seed=seed)
            seed += 1
            sim = simulate(geo, tl, FADING, part, budget, rat, traffic, lam, cfg)
            assert abs(sim.dor - closed) <= 3.0 * sim.dor_se + 1e-9, (p_dbw, t_th)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 PASS: outage closed form equals its definitional "
          f"complement (max gap {worst_gap:.1e} < 1e-9) and matches "
          f"simulation within 3 sigma on the (P_T, T_th) grid; {elapsed:.1f}s")


def test_acceptance_5_pat_outage_piecewise_law():
    start = time.monotonic()
    geo, tl, budget, pat, part, probs, lam = pat_stack(dbw(30.0))
    knee = TRAFFIC_BITS / pat.fixed_rate_bps

    def pat_dor(traffic):
        return report(budget, pat, part, tl, probs, traffic, lam).dor

    below = pat_dor(TrafficSpec(TRAFFIC_BITS, 0.9 * knee))
    assert below == 1.0

    at_knee = pat_dor(TrafficSpec(TRAFFIC_BITS, knee))
    assert at_knee == pytest.approx(probs[0], rel=1e-12)

    traffic = TrafficSpec(TRAFFIC_BITS, 1.2 * knee)
    closed = pat_dor(traffic)
    cfg = SimConfig(n_samples=100_000, seed=51_000)
    sim = simulate(geo, tl, FADING, part, budget, pat, traffic, lam, cfg)
    assert abs(sim.dor - closed) <= 3.0 * sim.dor_se + 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: outage is exactly 1 below the service-time "
          f"knee, equals the bottom-state mass {at_knee:.5f} at it, and joins "
          f"simulation ({sim.dor:.5f} vs {closed:.5f}) above it; {elapsed:.1f}s")


def test_acceptance_6_monotonicity_suite():
    start = time.monotonic()

    heights = [500e3, 600e3, 700e3, 800e3, 900e3, 1000e3, 1100e3]
    thr = []
    for h in heights:
        _, tl, budget, rat, part, probs, lam = rat_stack(h, dbw(36.0))
        rep = report(budget, rat, part, tl, probs, TrafficSpec(TRAFFIC_BITS, 1e-3), lam)
        thr.append((rep.throughput_lo_bps, rep.throughput_hi_bps))
    assert all(b[0] <= a[0] + 1e-9 and b[1] <= a[1] + 1e-9
               for a, b in zip(thr, thr[1:]))

    powers = [dbw(27.0 + 3.0 * i) for i in range(7)]
    thr_p, dor_p = [], []
    traffic = TrafficSpec(TRAFFIC_BITS, 1e-3)
    for p in powers:
        _, tl, budget, rat, part, probs, lam = rat_stack(500e3, p)
        rep = report(budget, rat, part, tl, probs, traffic, lam)
        thr_p.append((rep.throughput_lo_bps, rep.throughput_hi_bps))
        dor_p.append(rep.dor)
    assert all(a[0] <= b[0] + 1e-9 and a[1] <= b[1] + 1e-9
               for a, b in zip(thr_p, thr_p[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(dor_p, dor_p[1:]))

    _, tl, budget, rat, part, probs, lam = rat_stack(500e3, dbw(40.0))
    dor_t = [
        report(budget, rat, part, tl, probs, TrafficSpec(TRAFFIC_BITS, t), lam).dor
        for t in (0.0, 0.5e-3, 1e-3, 3e-3, 6e-3, 9e-3, 15e-3)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(dor_t, dor_t[1:]))

    knee_traffic = TrafficSpec(TRAFFIC_BITS, 9e-3)
    dor_cap = []
    for p in powers:
        _, tl, budget, pat, part, probs, lam = pat_stack(p)
        dor_cap.append(report(budget, pat, part, tl, probs, knee_traffic, lam).dor)
    assert all(b <= a + 1e-12 for a, b in zip(dor_cap, dor_cap[1:]))

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: throughput non-increasing over 7 heights and "
          f"non-decreasing over 7 powers; outage non-increasing over 7 delay "
          f"budgets, 7 powers, and 7 power caps; {elapsed:.1f}s")


def test_acceptance_7_geometry_identities():
    start = time.monotonic()
    geo = make_geo()
    t_s = service_duration(geo)
    assert distance_at(geo, np.array([t_s / 2.0]))[0] == geo.orbit_height_m
    assert distance_at(geo, np.array([0.0]))[0] == pytest.approx(
        distance_at(geo, np.array([t_s]))[0], rel=1e-12)
    lo, hi = distance_range(geo)
    assert lo == geo.orbit_height_m
    assert hi == math.hypot(geo.orbit_height_m, geo.coverage_radius_m)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 PASS: overhead range equals the orbit height at "
          f"mid-pass, entry and exit ranges agree, and the footprint envelope "
          f"is [H, sqrt(H^2+R^2)] exactly; {elapsed:.2f}s")


def test_acceptance_8_simulate_determinism(tmp_path, capsys):
    start = time.monotonic()
    scn_path = str(SCENARIO_DIR / "reference_rat.scn")
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["simulate", "--scenario", scn_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", scn_path, "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert len(b1) > 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: repeated simulate runs with one seed produce "
          f"byte-identical CSV ({len(b1)} bytes); {elapsed:.1f}s")
