import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leolink import channel, montecarlo, pipeline
from leolink.cli import main
from leolink.geometry import distance_range
from leolink.scenario import apply_sweep_value, parse_scenario, parse_sweep
from leolink.schemes import pat_first_threshold

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


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_rat_matches_golden(self, capsys):
        assert main(["analyze", "--scenario", RAT_SCN]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "reference_rat_analyze.txt").read_text()

    def test_pat_matches_golden(self, capsys):
        assert main(["analyze", "--scenario", PAT_SCN]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "reference_pat_analyze.txt").read_text()

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

    def test_pat_below_knee_has_certain_outage(self, tmp_path, capsys):
        # delivery takes 8.33 ms; a 2 ms budget cannot be met
        path = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"delay_threshold = 10 ms": "delay_threshold = 2 ms"},
        )
        assert main(["analyze", "--scenario", path]) == 0
        assert "dor = 1.0" in capsys.readouterr().out


class TestSweep:
    @pytest.mark.parametrize("scheme", ["rat", "pat"])
    @pytest.mark.parametrize("sweep,golden", [
        ("geometry.orbit_height=500e3:1100e3:7", "sweep_height"),
        ("traffic.delay_threshold=0.001:0.3:6", "sweep_delay"),
    ])
    def test_matches_golden(self, capsys, scheme, sweep, golden):
        scn = str(SCENARIO_DIR / f"reference_{scheme}.scn")
        assert main(["sweep", "--scenario", scn, "--sweep", sweep]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"reference_{scheme}_{golden}.csv").read_text()

    @pytest.mark.parametrize("scheme", ["rat", "pat"])
    def test_with_sim_matches_golden(self, capsys, scheme):
        scn = str(SCENARIO_DIR / f"reference_{scheme}.scn")
        assert main(["sweep", "--scenario", scn, "--with-sim",
                     "--sweep", "geometry.orbit_height=500e3:1100e3:3"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"reference_{scheme}_sweep_height_sim.csv").read_text()

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
        build = pipeline.equal_probability_partition

        def counted(fading, first, *args):
            built.extend(np.atleast_1d(first))
            solves.append(fading)
            return build(fading, first, *args)

        monkeypatch.setattr(pipeline, "equal_probability_partition", counted)
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

    # A later point fails in the timeline, the partition or the crossing
    # rate; each expectation is the output of running the points one at a
    # time, which stops at the failing point with its own error.
    @pytest.mark.parametrize("spec,code,error", [
        ("geometry.slot_len=0.5,1,200", 2, "E_VALIDATION SlotTooLong: slot_len_s=200.0 "
         "exceeds service duration 141.90534411684524"),
        ("rat.tx_power=1000,0.3", 3, "E_NUMERIC ArithmeticError: no resolvable probability "
         "mass above threshold 20.46088313306467 (tail mass 0)"),
        ("fading.aoa_width=24.2,0", 3, "E_NUMERIC NonConvergent: crossing-rate series at "
         "r_th=0.3543928915419708 did not reach rel_tol=1e-12 within 10000 terms"),
    ])
    def test_failing_later_point_fails_as_alone(self, capsys, spec, code, error):
        assert main(["sweep", "--scenario", RAT_SCN, "--sweep", spec]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == error + "\n"

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

    @pytest.mark.parametrize("spec", ["geometry.orbit_height=500e3:1100e3:5",
                                      "traffic.delay_threshold=0:0.02:5"])
    def test_sweep_holds_one_prepared_point_at_a_time(self, monkeypatch, spec):
        # the points are solved together, but each point's timeline and
        # probability matrix are built when it comes up and dropped after
        # its last use
        built, held = [], []
        assemble, analyze = pipeline._assemble, pipeline.run_analyze

        def tracked(*args):
            parts = assemble(*args)
            built.append(weakref.ref(parts))
            return parts

        def counting(point, parts=None):
            held.append(sum(ref() is not None for ref in built))
            return analyze(point, parts)

        monkeypatch.setattr(pipeline, "_assemble", tracked)
        monkeypatch.setattr(pipeline, "run_analyze", counting)
        pipeline.run_sweep(parse_scenario(Path(RAT_SCN).read_text()), parse_sweep(spec))
        assert held == [1] * 5

    def test_sweep_warns_only_for_points_it_reached(self, monkeypatch, caplog):
        # 600 and 650 Mbit/s wait forever; the report of the 60 Mbit/s point
        # between them fails, so only the first point's warning is logged,
        # as when the points run one at a time
        scn = parse_scenario(Path(PAT_SCN).read_text())
        sweep = parse_sweep("pat.fixed_rate=600e6,60e6,650e6")
        analyze = pipeline.run_analyze

        def failing(point, parts=None):
            if point.pat.fixed_rate_bps == 60e6:
                raise ArithmeticError("report failed")
            return analyze(point, parts)

        monkeypatch.setattr(pipeline, "run_analyze", failing)
        with caplog.at_level(logging.WARNING, logger="leolink"):
            with pytest.raises(ArithmeticError, match="report failed"):
                pipeline.run_sweep(scn, sweep)
        first = apply_sweep_value(scn, sweep.path, sweep.values[0])
        threshold = pat_first_threshold(first.budget, first.pat,
                                        distance_range(first.geometry)[1])
        records = [r for r in caplog.records if r.name == "leolink.pipeline"]
        assert len(records) == 1
        assert f"at first threshold {threshold!r}:" in records[0].getMessage()

    def test_fractional_integer_sweep_exits_2(self, capsys):
        assert main([
            "sweep", "--scenario", RAT_SCN, "--sweep", "partition.n_states=2,2.9,3",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_VALIDATION")
        assert "partition.n_states" in captured.err and "2.9" in captured.err

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

    def test_bad_sweep_path_exits_2(self, capsys):
        assert main([
            "sweep", "--scenario", RAT_SCN, "--sweep", "nope.key=1:2:2",
        ]) == 2
        assert "E_UNKNOWN_KEY" in capsys.readouterr().err


class TestSimulate:
    @pytest.mark.parametrize("scheme", ["rat", "pat"])
    def test_matches_golden(self, capsys, scheme):
        scn = str(SCENARIO_DIR / f"reference_{scheme}.scn")
        assert main(["simulate", "--scenario", scn]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"reference_{scheme}_simulate.csv").read_text()

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
    @pytest.mark.parametrize("scheme", ["rat", "pat"])
    def test_matches_golden(self, capsys, scheme):
        scn = str(SCENARIO_DIR / f"reference_{scheme}.scn")
        assert main(["validate", "--scenario", scn]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"reference_{scheme}_validate.txt").read_text()

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
        # the repeat is two runs of the scenario's own pass, capped at two
        # blocks; with generators that ignore the seed, they differ
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
        assert passes == [20_000, 20_000, 20_000]

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
        assert passes == [20_000, 8192, 8192]

    def test_integer_severity_scenario_passes(self, tmp_path, capsys):
        # an integer severity end to end, with the outage strictly inside (0, 1)
        path = tmp_path / "integer_m.scn"
        path.write_text(INTEGER_M_SCENARIO)
        assert main(["validate", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestErrorPaths:
    def test_default_speed_of_bad_height_exits_2(self, tmp_path, capsys):
        bad = reduced_scenario(tmp_path, "reference_rat.scn", **{
            "sat_speed = 7600             # m/s\n": "",
            "orbit_height = 500 km": "orbit_height = -7000 km",
        })
        assert main(["analyze", "--scenario", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION: geometry.orbit_height (line 6): ")

    def test_integer_sweep_beyond_2_53_exits_2(self, capsys):
        # 2^53 + 1 has no float of its own, so a sweep refuses it as typed
        assert main(["sweep", "--scenario", RAT_SCN, "--with-sim",
                     "--sweep", "sim.seed=9007199254740993"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_VALIDATION: sweep sim.seed: ")
        assert captured.err == ("E_VALIDATION: sweep sim.seed: '9007199254740993' reaches 2^53, "
                                "where a float no longer holds every integer\n")

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "--scenario", "/nonexistent.scn"]) == 2
        assert "E_IO" in capsys.readouterr().err

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = reduced_scenario(tmp_path, "reference_rat.scn", **{"m = 10.1": "m = 0.2"})
        assert main(["analyze", "--scenario", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION")
        assert "fading.m" in err

    def test_simulation_of_unbounded_wait_exits_3(self, tmp_path, capsys):
        # 600 Mbit/s under a 30 dBW cap: the crossing rate at the first
        # threshold underflows, so the waiting time cannot be sampled
        extreme = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"},
        )
        assert main(["simulate", "--scenario", extreme]) == 3
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC")

    def test_simulation_of_unbounded_wait_prints_only_the_error(self, tmp_path, capsys):
        # simulate refuses the infinite-wait limit rather than taking it, so
        # stderr holds the one error line and no fallback warning
        extreme = reduced_scenario(
            tmp_path, "reference_pat.scn",
            **{"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"},
        )
        for command in ("simulate", "validate"):
            assert main([command, "--scenario", extreme]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("E_NUMERIC ZeroCrossingRate")

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
        first = pat_first_threshold(
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

    def test_window_too_wide_exits_3(self, tmp_path, capsys):
        # at 1e-9 W the first threshold lies so far in the tail (beta x about
        # 5e11) that its series window would hold 3.8e11 terms; it is refused
        # before any of it is formed
        far = reduced_scenario(tmp_path, "reference_rat.scn",
                               **{"tx_power = 30 dBW": "tx_power = 1e-9 W"})
        for argv in (["sweep", "--scenario", RAT_SCN, "--sweep", "rat.tx_power=1000,1e-9"],
                     ["analyze", "--scenario", far]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("E_NUMERIC ArithmeticError: series window too wide: "
                                    "3.764e+11 terms at beta*x = 4.9839e+11, more than "
                                    "16777216\n")

    def test_root_finder_nan_exits_3(self, monkeypatch, capsys):
        # a NaN tail mass reaches the partition's root finder
        monkeypatch.setattr(channel, "tail_mass", lambda fading, x: math.nan)
        assert main(["analyze", "--scenario", RAT_SCN]) == 3
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC NonConvergent")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.scn"
        path.write_text("[geometry\nearth_radius = 1")
        assert main(["analyze", "--scenario", str(path)]) == 2
        assert "E_PARSE" in capsys.readouterr().err


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
    def test_analyze_loads_neither_optimize_nor_integrate(self):
        # In a fresh interpreter: analyze must not import scipy.optimize or
        # scipy.integrate; validate imports scipy.integrate on first use.
        script = textwrap.dedent(f"""
            import json, sys
            from pathlib import Path
            from leolink.cli import main
            from leolink.pipeline import run_validate
            from leolink.scenario import parse_scenario
            code = main(["analyze", "--scenario", {RAT_SCN!r}])
            loaded = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
            checks = run_validate(parse_scenario(Path({RAT_SCN!r}).read_text()))
            failed = [c.name for c in checks if not c.passed]
            print(json.dumps([code, loaded, failed, "scipy.integrate" in sys.modules]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, loaded, failed, integrate_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert loaded == []
        assert failed == []
        assert integrate_loaded
