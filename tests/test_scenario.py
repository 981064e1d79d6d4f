import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.scenario import (
    ParseError,
    Scenario,
    UnknownKey,
    ValidationError,
    apply_sweep_value,
    parse_scenario,
    parse_sweep,
    render_scenario,
)

MINIMAL = """
[geometry]
earth_radius = 6371 km
orbit_height = 500 km
coverage_radius = 500 km
half_track = 500 km
sat_speed = 7600
slot_len = 1 s

[fading]
m = 2
b0 = 0.2
omega = 0.5
f_scatter_max = 50

[partition]
n_states = 4

[link]
bandwidth = 60 MHz
noise_power = -66 dBm

[rat]
tx_power = 30 dBW
min_snr = 0 dB

[traffic]
packet_bits = 500 Kbits
delay_threshold = 1 ms

[sim]
n_samples = 1000
seed = 7
"""


class TestReferenceFixtures:
    def test_rat_fixture_values(self, rat_scenario_text):
        scn = parse_scenario(rat_scenario_text)
        assert scn.fading.m == 10.1
        assert scn.fading.b0 == 0.126
        assert scn.fading.omega == 0.825
        assert scn.budget.bandwidth_hz == 60e6
        assert scn.budget.noise_power_w == pytest.approx(10.0 ** (-9.6), rel=1e-12)
        assert scn.rat.min_snr == 1.0
        assert scn.rat.tx_power_w == pytest.approx(1000.0, rel=1e-12)
        assert scn.doppler.mean_aoa_rad == 1.55
        assert scn.doppler.aoa_width == 24.2
        assert scn.doppler.f_scatter_max_hz == 100.0
        assert scn.traffic.packet_bits == 500e3
        assert scn.traffic.delay_threshold_s == pytest.approx(1e-3, rel=1e-12)
        assert scn.geometry.earth_radius_m == 6371e3
        assert scn.slot_len_s == 1.0
        assert scn.scheme == "rat"
        assert scn.n_states == 8

    def test_pat_fixture_values(self, pat_scenario_text):
        scn = parse_scenario(pat_scenario_text)
        assert scn.scheme == "pat"
        assert scn.pat.fixed_rate_bps == 60e6
        assert scn.pat.max_power_w == pytest.approx(1000.0, rel=1e-12)
        assert scn.traffic.delay_threshold_s == pytest.approx(10e-3, rel=1e-12)

    def test_round_trip(self, rat_scenario_text, pat_scenario_text):
        for text in (rat_scenario_text, pat_scenario_text, MINIMAL):
            scn = parse_scenario(text)
            assert parse_scenario(render_scenario(scn)) == scn


class TestUnits:
    def test_dbm_conversion(self):
        scn = parse_scenario(MINIMAL)
        assert scn.budget.noise_power_w == 10.0 ** ((-66.0 - 30.0) / 10.0)

    def test_dbw_conversion(self):
        scn = parse_scenario(MINIMAL)
        assert scn.rat.tx_power_w == pytest.approx(10.0 ** 3.0, rel=1e-12)

    def test_db_is_linear_ratio(self):
        text = MINIMAL.replace("min_snr = 0 dB", "min_snr = 3 dB")
        scn = parse_scenario(text)
        assert scn.rat.min_snr == pytest.approx(10.0 ** 0.3, rel=1e-12)

    def test_deg_suffix(self):
        text = MINIMAL.replace("f_scatter_max = 50", "f_scatter_max = 50\nmean_aoa = 45 deg")
        scn = parse_scenario(text)
        assert scn.doppler.mean_aoa_rad == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_rate_suffix(self):
        text = MINIMAL.replace("[rat]\ntx_power = 30 dBW\nmin_snr = 0 dB",
                               "[pat]\nmax_power = 30 dBW\nfixed_rate = 60 Mbit/s")
        scn = parse_scenario(text)
        assert scn.pat.fixed_rate_bps == 60e6

    def test_unknown_unit(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("7600", "7600 furlongs"))


class TestValidation:
    def test_small_m_names_key(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL.replace("m = 2", "m = 0.2"))
        assert "fading.m" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(UnknownKey) as err:
            parse_scenario(MINIMAL + "\n[geometry2]\nfoo = 1\n")
        assert "geometry2" in str(err.value)
        with pytest.raises(UnknownKey):
            parse_scenario(MINIMAL.replace("seed = 7", "seed = 7\nbogus = 1"))

    def test_missing_section(self):
        text = MINIMAL.replace("[traffic]\npacket_bits = 500 Kbits\ndelay_threshold = 1 ms\n", "")
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert "traffic" in str(err.value)

    def test_both_schemes_rejected(self):
        text = MINIMAL + "\n[pat]\nmax_power = 30 dBW\nfixed_rate = 60 Mbit/s\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert "scheme" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("seed = 7", "seed = 7\nseed = 8"))
        # keys are case-insensitive, so a case variant is the same key
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL.replace("m = 2", "m = 2\nM = 0.7"))
        assert "duplicate key fading.m" in str(err.value)

    @pytest.mark.parametrize("old,new", [
        ("omega = 0.5", "omega = nan"),
        ("orbit_height = 500 km", "orbit_height = inf"),
        ("n_states = 4", "n_states = inf"),
        ("b0 = 0.2", "b0 = inf"),
        ("noise_power = -66 dBm", "noise_power = 4000 dBm"),
        ("coverage_radius = 500 km", "coverage_radius = 1e306 km"),
    ])
    def test_non_finite_number_rejected(self, old, new):
        key = new.split(" = ")[0]
        lineno = MINIMAL.splitlines().index(old) + 1
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL.replace(old, new))
        assert f"line {lineno}: " in str(err.value)
        assert f".{key}: must be a finite number" in str(err.value)

    def test_path_loss_exp_error_names_geometry_key(self):
        text = MINIMAL.replace("slot_len = 1 s", "slot_len = 1 s\npath_loss_exp = 1.5")
        lineno = text.splitlines().index("path_loss_exp = 1.5") + 1
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert f"geometry.path_loss_exp (line {lineno})" in str(err.value)

    def test_garbage_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL.replace("seed = 7", "what is this"))
        assert "line" in str(err.value)

    def test_half_track_and_plane_exclusive(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("half_track = 500 km",
                                           "half_track = 500 km\nsats_per_plane = 40"))
        text = MINIMAL.replace("half_track = 500 km", "sats_per_plane = 40")
        scn = parse_scenario(text)
        assert scn.geometry.half_track_m == pytest.approx(
            math.pi * 6371e3 / 40.0, rel=1e-12
        )

    def test_default_sat_speed_is_circular_orbit(self):
        text = MINIMAL.replace("sat_speed = 7600\n", "")
        scn = parse_scenario(text)
        assert scn.geometry.sat_speed_ms == pytest.approx(
            math.sqrt(3.986004418e14 / 6871e3), rel=1e-12
        )

    def test_upper_threshold_count_checked(self):
        text = MINIMAL.replace("n_states = 4", "n_states = 4\nupper_thresholds = 0.8")
        with pytest.raises(ValidationError):
            parse_scenario(text)
        ok = MINIMAL.replace("n_states = 4", "n_states = 4\nupper_thresholds = 0.8, 1.2")
        scn = parse_scenario(ok)
        assert scn.upper_thresholds == (0.8, 1.2)

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("n_samples = 1000", "n_samples = 10.5"))


class TestSweep:
    def test_parse_range(self):
        sweep = parse_sweep("geometry.orbit_height=500e3:1100e3:7")
        assert sweep.path == "geometry.orbit_height"
        assert len(sweep.values) == 7
        assert sweep.values[0] == 500e3
        assert sweep.values[-1] == 1100e3

    def test_parse_list(self):
        sweep = parse_sweep("rat.tx_power=1000,2000,4000")
        assert sweep.values == (1000.0, 2000.0, 4000.0)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_sweep("no-equals")
        with pytest.raises(ParseError):
            parse_sweep("a.b=1:2")
        with pytest.raises(ParseError):
            parse_sweep("a.b=x,y")

    @pytest.mark.parametrize("arg", [
        "geometry.orbit_height=500e3:inf:3",
        "rat.tx_power=1000,nan",
        "rat.tx_power=-1e308:1e308:3",
    ])
    def test_non_finite_values_rejected(self, arg):
        with pytest.raises(ValidationError) as err:
            parse_sweep(arg)
        assert "must be finite" in str(err.value)

    def test_apply_revalidates(self):
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError):
            apply_sweep_value(scn, "geometry.orbit_height", -5.0)

    def test_apply_unknown_path(self):
        scn = parse_scenario(MINIMAL)
        with pytest.raises(UnknownKey):
            apply_sweep_value(scn, "geometry.nope", 1.0)
        with pytest.raises(UnknownKey):
            apply_sweep_value(scn, "orbit_height", 1.0)

    def test_apply_changes_value(self):
        scn = parse_scenario(MINIMAL)
        out = apply_sweep_value(scn, "geometry.orbit_height", 800e3)
        assert out.geometry.orbit_height_m == 800e3
        assert out.fading == scn.fading

    @pytest.mark.parametrize("path", ["partition.n_states", "sim.n_samples", "sim.seed"])
    def test_apply_rejects_fractional_integer(self, path):
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError) as err:
            apply_sweep_value(scn, path, 2.9)
        assert path in str(err.value) and "2.9" in str(err.value)

    def test_apply_takes_integral_range_values(self):
        scn = parse_scenario(MINIMAL)
        sweep = parse_sweep("partition.n_states=2:8:7")
        states = [apply_sweep_value(scn, sweep.path, v).n_states for v in sweep.values]
        assert states == [2, 3, 4, 5, 6, 7, 8]


class TestRoundTripProperty:
    @given(
        m=st.floats(min_value=0.5, max_value=20.0),
        b0=st.floats(min_value=1e-3, max_value=5.0),
        omega=st.floats(min_value=0.0, max_value=10.0),
        height=st.floats(min_value=200e3, max_value=2000e3),
        power=st.floats(min_value=1e-2, max_value=1e5),
        t_th=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_scenarios_round_trip(self, m, b0, omega, height, power, t_th):
        scn = parse_scenario(MINIMAL)
        for path, value in [
            ("fading.m", m),
            ("fading.b0", b0),
            ("fading.omega", omega),
            ("geometry.orbit_height", height),
            ("rat.tx_power", power),
            ("traffic.delay_threshold", t_th),
        ]:
            scn = apply_sweep_value(scn, path, value)
        assert parse_scenario(render_scenario(scn)) == scn
