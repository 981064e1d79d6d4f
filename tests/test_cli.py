import csv
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leolink import channel, montecarlo, pipeline, schemes
from leolink.cli import main
from leolink.geometry import distance_range
from leolink.scenario import apply_sweep_value, parse_scenario, parse_sweep
from leolink.schemes import first_threshold

import make_goldens
from block_schedule import BlockSchedule
from refusals import REFUSALS

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

RAT_SCN = str(SCENARIO_DIR / "reference_rat.scn")
PAT_SCN = str(SCENARIO_DIR / "reference_pat.scn")


def reduced_scenario(tmp_path, base: str, n_samples: int = 20_000, **overrides):
    """Reference scenario with a smaller replication count for fast tests."""
    text = (SCENARIO_DIR / base).read_text()
    text = text.replace("n_samples = 100000", f"n_samples = {n_samples}")
    for old, new in overrides.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / base
    path.write_text(text)
    return str(path)


def _validate_scenario(path: str):
    """Reference scenario at 20000 replications, parsed."""
    scn = parse_scenario(Path(path).read_text())
    return replace(scn, sim=replace(scn.sim, n_samples=20_000))


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_rat_zero_delay_budget_has_certain_outage(self, tmp_path, capsys):
        path = reduced_scenario(
            tmp_path, "reference_rat.scn",
            **{"delay_threshold = 1 ms": "delay_threshold = 0 s"},
        )
        assert main(["analyze", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "dor = 1.0" in out

    @pytest.mark.parametrize("width", ["800", "1000"])
    def test_wide_aoa_does_not_overflow(self, tmp_path, capsys, width):
        # I_n(width) alone overflows a double above about 709
        path = reduced_scenario(
            tmp_path, "reference_rat.scn", **{"aoa_width = 24.2": f"aoa_width = {width}"}
        )
        assert main(["analyze", "--scenario", path]) == 0
        assert "lambda_s = " in capsys.readouterr().out

    # A valid spectrum: today the b2 of doppler_moments falls below b1^2 / b0
    # here, and analyze exits 2 with "degenerate Doppler spectrum". With b2
    # fixed, bracket * q / 2 is 7.3 there, past the crossing-rate series'
    # radius, so it runs only once that series is replaced too.
    @pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 11")
    def test_pat_backward_aoa_runs(self, tmp_path, capsys):
        path = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"mean_aoa = 1.55": "mean_aoa = 3.0", "aoa_width = 24.2": "aoa_width = 5"},
        )
        assert main(["analyze", "--scenario", path]) == 0

    def test_pat_below_knee_has_certain_outage(self, tmp_path, capsys):
        # delivery takes 8.33 ms; a 2 ms budget cannot be met
        path = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"delay_threshold = 10 ms": "delay_threshold = 2 ms"},
        )
        assert main(["analyze", "--scenario", path]) == 0
        assert "dor = 1.0" in capsys.readouterr().out


class TestSweep:
    def test_height_sweep_monotone(self, capsys):
        assert main([
            "sweep", "--scenario", RAT_SCN,
            "--sweep", "geometry.orbit_height=500e3:1100e3:7",
        ]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[:6] == [
            "h_m", "throughput_lo_bps", "throughput_hi_bps",
            "ee_lo_bpj", "ee_hi_bpj", "dor",
        ]
        lo = [float(r[1]) for r in rows]
        hi = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(lo, lo[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(hi, hi[1:]))

    def test_delay_sweep_dor_monotone(self, capsys):
        assert main([
            "sweep", "--scenario", PAT_SCN,
            "--sweep", "traffic.delay_threshold=0:0.02:9",
        ]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[0] == "tth_s"
        dor = [float(r[5]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(dor, dor[1:]))
        assert dor[0] == 1.0

    def test_sweep_with_sim_brackets(self, tmp_path, capsys):
        path = reduced_scenario(tmp_path, "reference_rat.scn")
        assert main([
            "sweep", "--scenario", path,
            "--sweep", "rat.tx_power=1000,4000",
            "--with-sim",
        ]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[6:] == ["sim_rate_bps", "sim_rate_se", "sim_dor", "sim_dor_se"]
        for row in rows:
            lo, hi = float(row[1]), float(row[2])
            rate, se = float(row[6]), float(row[7])
            assert lo - 3.0 * se <= rate <= hi + 3.0 * se

    def test_pat_sweep_with_sim(self, tmp_path, capsys):
        path = reduced_scenario(tmp_path, "reference_pat.scn")
        assert main([
            "sweep", "--scenario", path,
            "--sweep", "pat.max_power=1000,4000",
            "--with-sim",
        ]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[0] == "pmax_w"
        for row in rows:
            # fixed-rate throughput is single-valued; simulation sits on it
            lo, hi = float(row[1]), float(row[2])
            assert lo == hi
            rate, se = float(row[6]), float(row[7])
            assert abs(rate - lo) <= 3.0 * se

    @pytest.mark.parametrize("base,spec,n_partitions", [
        # prepare() reads no traffic input: one partition for the sweep
        ("reference_pat.scn", "traffic.delay_threshold=0:0.02:6", 1),
        # noise and bandwidth move the first threshold: one per point
        ("reference_rat.scn", "link.noise_power=1e-10:4e-10:4", 4),
        ("reference_pat.scn", "link.bandwidth=40e6:80e6:3", 3),
        ("reference_rat.scn", "geometry.orbit_height=500e3:1100e3:4", 4),
        # points of different fading cannot share a solve
        ("reference_rat.scn", "fading.m=5,10.1,5,15", 3),
    ])
    def test_sweep_prepares_once_per_distinct_input(self, monkeypatch, base, spec,
                                                   n_partitions):
        # partitions built, and one solve for all points of equal fading
        built, solves = [], []
        build = channel.partitions

        def counted(fading, first, *args):
            built.extend(first)
            solves.append(fading)
            return build(fading, first, *args)

        monkeypatch.setattr(channel, "partitions", counted)
        scn = parse_scenario((SCENARIO_DIR / base).read_text())
        sweep = parse_sweep(spec)
        _, rows = pipeline.run_sweep(scn, sweep)
        assert len(built) == n_partitions
        assert sorted(map(repr, solves)) == sorted(
            {repr(apply_sweep_value(scn, sweep.path, v).fading) for v in sweep.values})
        # each row is byte-identical to the point analyzed on its own
        for value, row in zip(sweep.values, rows):
            report = pipeline.run_analyze(apply_sweep_value(scn, sweep.path, value))
            assert row[1:] == [repr(float(getattr(report, c)))
                               for c in pipeline.SWEEP_CSV_COLUMNS]

    def test_unbounded_wait_budget_sweep_warns_once(self, tmp_path, capsys):
        extreme = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"},
        )
        assert main(["sweep", "--scenario", extreme,
                     "--sweep", "traffic.delay_threshold=0.001:0.1:5"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("WARNING leolink.pipeline: lambda taken as infinite")

    def test_infinite_wait_warning_names_the_side_that_underflowed(self, capsys):
        # at exponent 2.5 the mass below the first threshold is about 1, so
        # it is the crossing rate there that underflowed
        assert main(["sweep", "--scenario", RAT_SCN,
                     "--sweep", "geometry.path_loss_exp=2,2.25,2.5"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 4  # the header and all three points
        assert err == ("WARNING leolink.pipeline: lambda taken as infinite at first threshold "
                       "10.27676090940344: the fade duration there is undefined or beyond "
                       "double precision; mass below it 0.9999999999999998, so the crossing "
                       "rate underflowed, or mass / rate overflowed\n")

    @pytest.mark.parametrize("spec", ["geometry.orbit_height=500e3:1100e3:5",
                                      "traffic.delay_threshold=0:0.02:5"])
    def test_sweep_holds_one_prepared_point_at_a_time(self, monkeypatch, spec):
        # the points' reports are formed together, and no point is
        # prepared for them; with simulation columns, each point's parts
        # are built from its key's timeline and solve when its row comes
        # up, and dropped once its row is done
        built, held = [], []
        parts_of = pipeline._parts

        def tracked(*args):
            parts = parts_of(*args)
            built.append(weakref.ref(parts))
            return parts

        def simulated(point, parts, cfg):
            held.append(sum(ref() is not None for ref in built))
            return montecarlo.SimResult(cfg.n_samples, "rng", 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(pipeline, "_parts", tracked)
        monkeypatch.setattr(pipeline, "_simulate", simulated)
        scn = parse_scenario(Path(RAT_SCN).read_text())
        pipeline.run_sweep(scn, parse_sweep(spec))
        assert built == []
        pipeline.run_sweep(scn, parse_sweep(spec), with_sim=True)
        assert held == [1] * 5

    def test_sweep_warns_only_for_points_it_reached(self, monkeypatch, caplog):
        # 600 and 650 Mbit/s wait forever; the report of the 60 Mbit/s point
        # between them fails, so only the first point's warning is logged,
        # as when the points run one at a time
        scn = parse_scenario(Path(PAT_SCN).read_text())
        sweep = parse_sweep("pat.fixed_rate=600e6,60e6,650e6")
        reports = schemes._reports

        def failing(pts):
            if any(pat.fixed_rate_bps == 60e6 for pat in pts.configs):
                raise ArithmeticError("report failed")
            return reports(pts)

        monkeypatch.setattr(schemes, "_reports", failing)
        with caplog.at_level(logging.WARNING, logger="leolink"):
            with pytest.raises(ArithmeticError, match="report failed"):
                pipeline.run_sweep(scn, sweep)
        first = apply_sweep_value(scn, sweep.path, sweep.values[0])
        threshold = first_threshold(first.budget, first.pat, distance_range(first.geometry)[1])
        records = [r for r in caplog.records if r.name == "leolink.pipeline"]
        assert len(records) == 1
        assert f"at first threshold {threshold!r}:" in records[0].getMessage()

    def test_sweep_raises_the_first_point_error_across_stages(self, monkeypatch, caplog):
        # the 600 Mbit/s point waits forever and fails in the reports; the
        # 1000 Mbit/s point after it fails in the partition solve, which the
        # batch reaches first. Run one at a time, the points stop at the
        # first one's report, with its warning and nothing of the second.
        scn = parse_scenario(Path(PAT_SCN).read_text())
        sweep = parse_sweep("pat.fixed_rate=600e6,1000e6")
        reports = schemes._reports

        def failing(pts):
            if any(pat.fixed_rate_bps == 600e6 for pat in pts.configs):
                raise ArithmeticError("report failed")
            return reports(pts)

        monkeypatch.setattr(schemes, "_reports", failing)
        points = [apply_sweep_value(scn, sweep.path, v) for v in sweep.values]
        with pytest.raises(ArithmeticError, match="no resolvable probability mass"):
            pipeline._sweep(points, points, [0, 1])
        with caplog.at_level(logging.WARNING, logger="leolink"):
            with pytest.raises(ArithmeticError, match="report failed"):
                pipeline.run_sweep(scn, sweep)
        first = points[0]
        threshold = first_threshold(first.budget, first.pat, distance_range(first.geometry)[1])
        records = [r for r in caplog.records if r.name == "leolink.pipeline"]
        assert len(records) == 1
        assert f"at first threshold {threshold!r}:" in records[0].getMessage()

    # Points that differ in their slot or state counts, and points whose
    # rate grids sit deep in the tail; a fixed-rate sweep moves the first
    # threshold and the power grid alike.
    @pytest.mark.parametrize("base,spec", [
        (RAT_SCN, "geometry.slot_len=0.5,1,2"),
        (PAT_SCN, "geometry.slot_len=0.5,1,2"),
        (RAT_SCN, "partition.n_states=2:17:16"),
        (PAT_SCN, "partition.n_states=2:17:16"),
        (RAT_SCN, "rat.tx_power=2,1,0.8"),
        (PAT_SCN, "pat.fixed_rate=20e6,60e6,100e6,600e6"),
        # each point's path loss is raised to its own exponent
        (RAT_SCN, "geometry.path_loss_exp=2,2.25,2.1,2"),
        (PAT_SCN, "geometry.path_loss_exp=2,2.25,2.1,2"),
    ])
    def test_rows_equal_points_analyzed_alone(self, monkeypatch, base, spec):
        # every row is byte-identical to its point analyzed on its own, also
        # when the reports go in blocks of one point
        scn = parse_scenario(Path(base).read_text())
        sweep = parse_sweep(spec)
        _, rows = pipeline.run_sweep(scn, sweep)
        want = []
        for value in sweep.values:
            report = pipeline.run_analyze(apply_sweep_value(scn, sweep.path, value))
            want.append([repr(float(getattr(report, c))) for c in pipeline.SWEEP_CSV_COLUMNS])
        assert [row[1:] for row in rows] == want
        monkeypatch.setattr(schemes, "_CELLS", 1)
        assert pipeline.run_sweep(scn, sweep)[1] == rows

    def test_swept_seed_seeds_the_simulation(self, tmp_path, capsys):
        # point i runs with its own sim.seed + i, or with --seed + i
        path = reduced_scenario(tmp_path, "reference_pat.scn", n_samples=2_000)

        def sim_columns(*args):
            assert main(["sweep", "--scenario", path, "--with-sim", *args]) == 0
            return [row[6:] for row in read_csv(capsys.readouterr().out)[1]]

        def simulated(seed):
            assert main(["simulate", "--scenario", path, "--seed", str(seed)]) == 0
            row = read_csv(capsys.readouterr().out)[1][0]
            return [row[0], row[1], row[4], row[5]]

        five_nine = sim_columns("--sweep", "sim.seed=5,9")
        assert five_nine == [simulated(5), simulated(10)]
        assert sim_columns("--sweep", "sim.seed=1,9")[0] != five_nine[0]
        assert sim_columns("--sweep", "sim.seed=1,9", "--seed", "5") == [
            simulated(5), simulated(6)]

    # on the PAT reference no column moves with the timeline; the RAT one
    # catches a point simulated on another point's timeline
    @pytest.mark.parametrize("base", ["reference_rat.scn", "reference_pat.scn"])
    def test_swept_slot_len_simulates_as_alone(self, tmp_path, capsys, base):
        # each point simulates on its own key's timeline from the sweep's
        # bracketing: its columns are those of the point alone at seed
        # sim.seed + i
        path = reduced_scenario(tmp_path, base, n_samples=2_000)
        assert main(["sweep", "--scenario", path, "--with-sim",
                     "--sweep", "geometry.slot_len=0.5,1,2"]) == 0
        rows = read_csv(capsys.readouterr().out)[1]
        seed = parse_scenario(Path(path).read_text()).sim.seed
        want = []
        for i, slot in enumerate(("0.5", "1", "2")):
            (tmp_path / slot).mkdir()
            alone = reduced_scenario(tmp_path / slot, base, n_samples=2_000,
                                     **{"slot_len = 1 s": f"slot_len = {slot} s"})
            assert main(["simulate", "--scenario", alone, "--seed", str(seed + i)]) == 0
            row = read_csv(capsys.readouterr().out)[1][0]
            want.append([row[0], row[1], row[4], row[5]])
        assert [row[6:] for row in rows] == want


class TestSimulate:
    def test_byte_identical_repeats(self, tmp_path):
        path = reduced_scenario(tmp_path, "reference_rat.scn", n_samples=30_000)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = reduced_scenario(tmp_path, "reference_rat.scn", n_samples=30_000)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out1)]) == 0
        assert main([
            "simulate", "--scenario", path, "--out", str(out2), "--seed", "777",
        ]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_header_contract(self, tmp_path, capsys):
        path = reduced_scenario(tmp_path, "reference_pat.scn", n_samples=5_000)
        assert main(["simulate", "--scenario", path]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == [
            "sim_rate_bps", "sim_rate_se", "sim_power_w", "sim_power_se",
            "sim_dor", "sim_dor_se", "n_samples", "rng",
        ]
        assert rows[0][6] == "5000"
        assert rows[0][7] == "philox4x64-10"

    @pytest.mark.parametrize("scheme", ["rat", "pat"])
    def test_one_replication_has_zero_standard_errors(self, tmp_path, capsys, scheme):
        path = reduced_scenario(tmp_path, f"reference_{scheme}.scn", n_samples=1)
        assert main(["simulate", "--scenario", path]) == 0
        header, (row,) = read_csv(capsys.readouterr().out)
        assert [row[i] for i, name in enumerate(header) if name.endswith("_se")] == ["0.0"] * 3
        assert row[6] == "1"


INTEGER_M_SCENARIO = """
[geometry]
earth_radius = 6371 km
orbit_height = 600 km
coverage_radius = 500 km
half_track = 450 km
sat_speed = 7600
slot_len = 1 s
[fading]
m = 2
b0 = 0.2
omega = 0.5
f_scatter_max = 120
mean_aoa = 0.8
aoa_width = 3.0
[partition]
n_states = 6
[link]
bandwidth = 20 MHz
noise_power = -66 dBm
[rat]
tx_power = 33 dBW
min_snr = 0 dB
[traffic]
packet_bits = 100 Kbits
delay_threshold = 2 ms
[sim]
n_samples = 40000
seed = 99
"""


class TestValidate:
    @pytest.mark.parametrize("base", ["reference_rat.scn", "reference_pat.scn"])
    def test_reference_scenarios_pass(self, tmp_path, capsys, base):
        path = reduced_scenario(tmp_path, base)
        assert main(["validate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in [
            "pdf_normalization", "cdf_routes_agree", "state_probs_sum",
            "state_frequencies", "sampler_ks", "rate_bracket", "ee_bracket",
            "dor_closed_vs_sim", "dor_integral", "determinism",
        ]:
            assert f"PASS {name}" in out

    def test_determinism_fails_with_unseeded_blocks(self, monkeypatch):
        # the repeat is one run of the scenario's own pass, capped at two
        # blocks, against the main pass's first two; with generators that
        # ignore the seed, they differ
        scn = parse_scenario(Path(RAT_SCN).read_text())
        scn = replace(scn, sim=replace(scn.sim, n_samples=20_000))
        seeded = montecarlo._block_rngs
        passes = []

        def unseeded(seed, n_samples):
            passes.append(n_samples)
            return [(np.random.default_rng(), count) for _, count in seeded(seed, n_samples)]

        monkeypatch.setattr(montecarlo, "_block_rngs", unseeded)
        checks = {c.name: c for c in pipeline.run_validate(scn)}
        assert not checks["determinism"].passed
        assert checks["determinism"].detail == "bit-identical repeat run"
        assert passes == [20_000, 20_000]

    def test_determinism_repeat_capped_at_two_blocks(self, monkeypatch):
        # a scenario of more than two blocks repeats two of them
        monkeypatch.setattr(montecarlo, "_BLOCK", 4096)
        scn = parse_scenario(Path(RAT_SCN).read_text())
        scn = replace(scn, sim=replace(scn.sim, n_samples=20_000))
        seeded = montecarlo._block_rngs
        passes = []

        def counted(seed, n_samples):
            passes.append(n_samples)
            return seeded(seed, n_samples)

        monkeypatch.setattr(montecarlo, "_block_rngs", counted)
        checks = {c.name: c for c in pipeline.run_validate(scn)}
        assert checks["determinism"].passed
        assert passes == [20_000, 8192]

    @pytest.mark.parametrize("k", [2, 3, 8, 17, 64])
    def test_sorted_state_counts_equal_classify(self, k):
        thresholds = np.concatenate([[0.0], np.geomspace(0.3, 2.0, k - 1)])
        part = channel.GainPartition(thresholds, top_mean_gain=10.0)
        sq = thresholds**2
        gains = np.concatenate([
            sq, sq, np.nextafter(sq, -np.inf), np.nextafter(sq, np.inf),
            [0.0, 0.0, 1.0, 1.0, np.inf, np.inf],
        ])
        np.random.default_rng(k).shuffle(gains)
        want = np.bincount(part.classify(gains), minlength=k + 1)[1:]
        assert pipeline._state_counts(part, np.sort(gains)).tolist() == want.tolist()

    @pytest.mark.parametrize("base", [RAT_SCN, PAT_SCN])
    def test_rows_do_not_depend_on_core_count(self, monkeypatch, base):
        # five blocks, shared by the side worker and the calling thread in
        # whichever split the two reach; no core count enters the runner
        monkeypatch.setattr(montecarlo, "_BLOCK", 4096)
        scn = _validate_scenario(base)
        rows = pipeline.run_validate(scn)
        assert pipeline.run_validate(scn) == rows

    def test_simulation_error_surfaces_unchanged(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArithmeticError("x")

        monkeypatch.setattr(montecarlo, "_block", fail)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            pipeline.run_validate(_validate_scenario(RAT_SCN))
        assert type(raised.value) is ArithmeticError
        assert str(raised.value) == "x"
        assert threading.active_count() == threads

    def test_simulation_error_comes_before_the_sampler(self, monkeypatch):
        # a NaN gain of the pass fails the KS check's CDF; the sampler rows
        # read the pass's gains once it has finished, so an error of the
        # pass wins over that of its gains
        drawn, block = montecarlo.sample_sr_gain, montecarlo._block

        def with_nan(fading, rng, size):
            gains = drawn(fading, rng, size)
            gains[size // 2] = np.nan
            return gains

        def fail(*args, **kwargs):
            block(*args, **kwargs)
            raise ArithmeticError("x")

        monkeypatch.setattr(montecarlo, "sample_sr_gain", with_nan)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^power gain must be >= 0, got nan$"):
            pipeline.run_validate(_validate_scenario(RAT_SCN))
        monkeypatch.setattr(montecarlo, "_block", fail)
        with pytest.raises(ArithmeticError, match="^x$"):
            pipeline.run_validate(_validate_scenario(RAT_SCN))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("block", [montecarlo._BLOCK, 4096])
    def test_each_gain_is_drawn_once(self, monkeypatch, block):
        # the pass's n gains serve the sampler rows too; only the repeat,
        # at most two blocks, draws again
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        drawn, sizes = montecarlo.sample_sr_gain, []

        def counted(fading, rng, size):
            sizes.append(size)
            return drawn(fading, rng, size)

        # every module that holds the sampler by name
        for module in (montecarlo, pipeline):
            if vars(module).get("sample_sr_gain") is drawn:
                monkeypatch.setattr(module, "sample_sr_gain", counted)
        pipeline.run_validate(_validate_scenario(RAT_SCN))
        assert sum(sizes) == 20_000 + min(20_000, 2 * block)

    @pytest.mark.parametrize("base", [RAT_SCN, PAT_SCN], ids=["rat", "pat"])
    def test_sampler_rows_read_the_pass_gains(self, base):
        # the gains of the pass at seed + 1, rebuilt block by block: each
        # block draws its arrival fractions and then its gains
        scn = _validate_scenario(base)
        n = scn.sim.n_samples
        gains = []
        for rng, count in montecarlo._block_rngs(scn.sim.seed + 1, n):
            rng.random(count)
            gains.append(montecarlo.sample_sr_gain(scn.fading, rng, count))
        gains = np.sort(np.concatenate(gains))
        parts = pipeline.prepare(scn, finite_wait=True)
        pi = parts.probs.probs[:, 0]
        freq = np.bincount(parts.partition.classify(gains), minlength=len(pi) + 1)[1:] / n
        worst_z = float(np.max(np.abs(freq - pi) / np.sqrt(pi * (1.0 - pi) / n)))
        d = montecarlo.ks_statistic(scn.fading, gains)
        crit = montecarlo.KS_CRIT_ALPHA01 / math.sqrt(n)
        checks = {c.name: c for c in pipeline.run_validate(scn)}
        assert checks["state_frequencies"].detail == f"max |z| = {worst_z:.2f} (limit 3)"
        assert checks["sampler_ks"].detail == f"D = {d:.5f}, crit(1%) = {crit:.5f}"
        assert checks["state_frequencies"].passed and checks["sampler_ks"].passed

    @pytest.mark.parametrize("name, failing", [
        ("sr_pdf", {"pdf_normalization", "cdf_routes_agree"}),
        ("tail_mass", {"cdf_routes_agree"}),
    ])
    def test_oracle_rows_fail_on_a_scaled_route(self, monkeypatch, tmp_path, capsys, name,
                                                failing):
        # a density 1e-5 too large fails both of its rows; a tail 1e-6 too
        # large fails only the comparison of the two CDF routes
        scale = {"sr_pdf": 1.0 + 1e-5, "tail_mass": 1.0 + 1e-6}[name]
        route = getattr(channel, name)
        monkeypatch.setattr(channel, name, lambda fading, x: route(fading, x) * scale)
        path = reduced_scenario(tmp_path, "reference_rat.scn")
        assert main(["validate", "--scenario", path]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert {row.split()[1].rstrip(":") for row in rows if row.startswith("FAIL ")} == failing
        assert len(rows) == 10

    def test_integer_severity_scenario_passes(self, tmp_path, capsys):
        # an integer severity end to end, with the outage strictly inside (0, 1)
        path = tmp_path / "integer_m.scn"
        path.write_text(INTEGER_M_SCENARIO)
        assert main(["validate", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


def run_scheduled(monkeypatch, base: str, schedule: str, fail=frozenset()):
    """run_validate of a reference at 20 000 replications in blocks of 4096:
    blocks 0-4 of the simulation pass, then blocks 5 and 6 of the repeat,
    under a BlockSchedule whose calling thread waits in the tail mass of
    its cdf_routes_agree check, before it finishes the pass. Returns the
    rows, whether the calling thread ran each block, and the most threads
    seen alive by any block.
    """
    plan = BlockSchedule(monkeypatch, schedule, 7, fail)
    tail_mass = channel.tail_mass

    def held_tail_mass(fading, x):
        plan.hold_caller()
        return tail_mass(fading, x)

    monkeypatch.setattr(channel, "tail_mass", held_tail_mass)
    rows = pipeline.run_validate(_validate_scenario(base))
    return rows, plan.ran, max(plan.alive)


class TestValidateSchedule:
    @pytest.mark.parametrize("schedule", ["none", "all", "some"])
    @pytest.mark.parametrize("base", [RAT_SCN, PAT_SCN], ids=["rat", "pat"])
    def test_rows_do_not_depend_on_which_thread_runs_a_block(self, monkeypatch, base,
                                                             schedule):
        monkeypatch.setattr(montecarlo, "_BLOCK", 4096)
        want = pipeline.run_validate(_validate_scenario(base))
        threads = threading.active_count()
        rows, ran, alive = run_scheduled(monkeypatch, base, schedule)
        assert rows == want
        assert sorted(ran) == list(range(7))
        here = {i for i, by_caller in ran.items() if by_caller}
        if schedule == "none":
            assert here == set()
        elif schedule == "all":
            assert here == set(range(7))
        else:
            # the worker holds block 0 until the calling thread has taken
            # the pass's last block
            assert 0 not in here and 4 in here
        # the calling thread and one side worker: no block starts a pool
        assert alive <= threads + 1
        assert threading.active_count() == threads

    def test_rows_under_fast_thread_switching(self, monkeypatch):
        # 20 blocks of the pass and 2 of the repeat, while the threads
        # switch every microsecond
        monkeypatch.setattr(montecarlo, "_BLOCK", 1024)
        scn = _validate_scenario(RAT_SCN)
        want = pipeline.run_validate(scn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert pipeline.run_validate(scn) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fail, first", [({0, 3}, 0), ({1, 3}, 1), ({4, 5}, 4), ({6}, 6)])
    @pytest.mark.parametrize("schedule", ["none", "all", "some"])
    def test_first_failing_block_surfaces(self, monkeypatch, schedule, fail, first):
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^block {first}$"):
            run_scheduled(monkeypatch, RAT_SCN, schedule, fail)
        assert threading.active_count() == threads


class TestErrorPaths:
    def test_analyze_takes_unbounded_wait_limit(self, tmp_path, capsys, caplog):
        # same configuration analytically: closed forms evaluate in the
        # infinite-wait limit, where the outage sticks at the bottom-state
        # mass (here ~1) above the knee; the fallback logs one warning that
        # names the first threshold, off stdout
        extreme = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"},
        )
        with caplog.at_level(logging.WARNING, logger="leolink"):
            assert main(["analyze", "--scenario", extreme]) == 0
        out, err = capsys.readouterr()
        assert "lambda_s = inf" in out
        dor = float(next(l for l in out.splitlines() if l.startswith("dor")).split("=")[1])
        assert dor == pytest.approx(1.0, abs=1e-9)

        scn = parse_scenario(Path(extreme).read_text())
        first = first_threshold(
            scn.budget, scn.pat, distance_range(scn.geometry)[1]
        )
        records = [r for r in caplog.records if r.name == "leolink.pipeline"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert repr(first) in records[0].getMessage()
        assert "infinite" not in out
        assert err == f"WARNING leolink.pipeline: {records[0].getMessage()}\n"

    def test_warning_printed_once_per_call(self, tmp_path, capsys):
        # main() attaches its stderr handler for the call only
        extreme = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"},
        )
        for _ in range(2):
            assert main(["analyze", "--scenario", extreme]) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("WARNING leolink.pipeline: lambda taken as infinite")

    def test_root_finder_nan_exits_3(self, monkeypatch, capsys):
        # NaN series sums: the tail mass at the first threshold, and so every
        # quantile target, is NaN, and it reaches the partition's root finder
        monkeypatch.setattr(channel, "_poisson_sum",
                            lambda *terms: [np.full(len(y), math.nan) for _, y in terms])
        assert main(["analyze", "--scenario", RAT_SCN]) == 3
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC NonConvergent")

    def test_tail_quantile_search_diverged_exits_3(self, monkeypatch, capsys):
        # a tail mass that never falls to its targets: the bracket's upper
        # end doubles past 1e12
        monkeypatch.setattr(channel, "_poisson_sum",
                            lambda *terms: [np.ones(len(y)) for _, y in terms])
        assert main(["analyze", "--scenario", RAT_SCN]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "E_NUMERIC ArithmeticError: tail quantile search diverged at targets [")


class TestRefusals:
    # every row of the table, in process, with every warning an error: the
    # exit status, no stdout, the one stderr line, and no file written
    @pytest.mark.parametrize("name", REFUSALS)
    def test_refusal(self, tmp_path, capsys, name):
        argv, edit, status, line = REFUSALS[name]
        assert re.match(r"E_[A-Z_]+ [A-Za-z]+: \S", line)
        argv = argv.replace("{tmp}", str(tmp_path)).split()
        copies = [i + 1 for i, arg in enumerate(argv[:-1])
                  if arg == "--scenario" and (SCENARIO_DIR / argv[i + 1]).is_file()]
        for i in copies:
            if isinstance(edit, bytes):
                (tmp_path / argv[i]).write_bytes(edit)
                argv[i] = str(tmp_path / argv[i])
            else:
                argv[i] = reduced_scenario(tmp_path, argv[i], 100_000, **(edit or {}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == status
        assert capsys.readouterr() == ("", line.replace("{tmp}", str(tmp_path)) + "\n")
        assert [str(path) for path in tmp_path.iterdir()] == [argv[i] for i in copies]

    def test_readme_lists_every_refusal(self):
        # each row's class and exit status are in its code's entry of
        # README's list, and README names no code that no row prints
        readme = (ROOT / "README.md").read_text()
        section = readme.split("### Exit codes\n")[1].split("\n#")[0]
        entries = dict(re.findall(r"^- `(E_[A-Z_]+)`(.*(?:\n  .*)*)", section, re.M))
        for *_, status, line in REFUSALS.values():
            code, cls = line.split(":")[0].split()
            assert f"exit {status}" in entries[code] and f"`{cls}`" in entries[code], line
        assert set(re.findall(r"\bE_[A-Z_]+", readme)) == {
            line.split()[0] for *_, line in REFUSALS.values()}


class TestSubprocess:
    @pytest.mark.parametrize("scn,golden", [
        (RAT_SCN, "reference_rat_analyze.txt"),
        (PAT_SCN, "reference_pat_analyze.txt"),
    ])
    def test_reference_analyze_writes_nothing_to_stderr(self, scn, golden):
        # the slot-remainder note is INFO, and the CLI prints WARNING and up
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-m", "leolink", "analyze", "--scenario", scn],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == (GOLDEN_DIR / golden).read_text()


class TestImports:
    @pytest.mark.parametrize("argv, oracle", [
        (["analyze", "--scenario", RAT_SCN], False),
        (["sweep", "--scenario", RAT_SCN, "--sweep", "geometry.orbit_height=500e3:1100e3:3"],
         False),
        (["simulate", "--scenario", PAT_SCN], False),
        (["validate", "--scenario", RAT_SCN], True),
    ], ids=["analyze", "sweep", "simulate", "validate"])
    def test_commands_load_neither_optimize_nor_integrate(self, argv, oracle):
        # In a fresh interpreter: no command imports scipy.optimize or
        # scipy.integrate, and only validate forms the quadrature nodes.
        script = textwrap.dedent(f"""
            import contextlib, io, json, sys
            from leolink import channel
            from leolink.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
            loaded = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
            print(json.dumps([code, loaded, channel._gauss_legendre.cache_info().currsize]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, loaded, nodes = json.loads(proc.stdout)
        assert code == 0
        assert loaded == []
        assert nodes == int(oracle)


class TestMakeGoldens:
    def test_names_every_golden(self):
        assert sorted(make_goldens.GOLDENS) == sorted(
            p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob("*") if p.is_file())

    # every output whose bytes are pinned, produced in process; a warning of
    # any category on its path fails it
    @pytest.mark.parametrize("name", make_goldens.GOLDENS)
    def test_golden_is_current(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = make_goldens.golden_text(name)
        assert text.encode() == (GOLDEN_DIR / name).read_bytes()

    def test_regenerate_restores_each_golden(self, tmp_path, monkeypatch):
        copy = shutil.copytree(GOLDEN_DIR, tmp_path / "golden")
        monkeypatch.setattr(make_goldens, "GOLDEN_DIR", copy)
        assert make_goldens.regenerate() == []
        analyze = copy / "reference_rat_analyze.txt"
        analyze.write_text(analyze.read_text().replace("dor = 1.0\n", "dor = 0.5\n"))
        (copy / make_goldens.BLOCK_GOLDEN).unlink()
        assert make_goldens.regenerate() == ["reference_rat_analyze.txt dor: 0.5 -> 1.0",
                                             f"{make_goldens.BLOCK_GOLDEN}: new file"]
        for name in make_goldens.GOLDENS:
            assert (copy / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_changes_name_each_moved_field(self):
        analyze = "dor = 1.0\nlambda_s = 80.8\n"
        assert make_goldens.changes("a.txt", analyze, analyze.replace("80.8", "0.00795")) == [
            "a.txt lambda_s: 80.8 -> 0.00795"]
        rows = "PASS sampler_ks: D = 0.1\nPASS determinism: bit-identical repeat run\n"
        assert make_goldens.changes("v.txt", rows, rows.replace("PASS sampler_ks: D = 0.1",
                                                                "FAIL sampler_ks: D = 0.2")) == [
            "v.txt sampler_ks: PASS sampler_ks: D = 0.1 -> FAIL sampler_ks: D = 0.2"]
        table = "h_m,dor\n500000.0,1.0\n800000.0,1.0\n"
        assert make_goldens.changes("s.csv", table, "h_m,dor\n500000.0,1.0\n800000.0,0.5\n"
                                    "900000.0,0.4\n") == [
            "s.csv row 2 dor: 1.0 -> 0.5",
            "s.csv row 3 h_m: (none) -> 900000.0",
            "s.csv row 3 dor: (none) -> 0.4",
        ]
