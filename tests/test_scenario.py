import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.scenario import (
    _KEYS,
    ParseError,
    Scenario,
    SweepSpec,
    UnknownKey,
    ValidationError,
    _value,
    apply_sweep_value,
    parse_scenario,
    parse_sweep,
)


def render_scenario(scn: Scenario) -> str:
    """Canonical text form of scn, the parser's round-trip oracle:
    parse_scenario(render_scenario(s)) == s."""
    out = []
    for section, keys in _KEYS.items():
        entries = []
        for key, (field, sub, _, _) in keys.items():
            value = _value(scn, field, sub)
            if isinstance(value, tuple):
                entries.append(f"{key} = {', '.join(repr(v) for v in value)}")
            elif value is not None:
                entries.append(f"{key} = {value!r}")
        if entries:
            out += [f"[{section}]", *entries, ""]
    return "\n".join(out)


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

PAT_MINIMAL = MINIMAL.replace("[rat]\ntx_power = 30 dBW\nmin_snr = 0 dB",
                              "[pat]\nmax_power = 30 dBW\nfixed_rate = 60 Mbit/s")

UPPERS = MINIMAL.replace("n_states = 4", "n_states = 4\nupper_thresholds = 0.8, 1.2")

_POSITIVE = st.floats(min_value=1e-3, max_value=1e9)

# valid values for every numeric key a sweep can move; the scheme keys
# apply to the scenario of their own scheme
SWEEPABLE = {
    "geometry.earth_radius": st.floats(min_value=1e6, max_value=1e8),
    "geometry.orbit_height": st.floats(min_value=200e3, max_value=2000e3),
    "geometry.coverage_radius": _POSITIVE,
    "geometry.half_track": _POSITIVE,
    "geometry.sat_speed": _POSITIVE,
    "geometry.terminal_offset": st.floats(min_value=0.0, max_value=1e6),
    "geometry.path_loss_exp": st.floats(min_value=2.0, max_value=6.0),
    "geometry.slot_len": _POSITIVE,
    "fading.m": st.floats(min_value=0.5, max_value=20.0),
    "fading.b0": st.floats(min_value=1e-3, max_value=5.0),
    "fading.omega": st.floats(min_value=0.0, max_value=10.0),
    "fading.f_scatter_max": _POSITIVE,
    "fading.mean_aoa": st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
    "fading.aoa_width": st.floats(min_value=0.0, max_value=1e3),
    "partition.n_states": st.integers(min_value=2, max_value=64),
    "link.bandwidth": _POSITIVE,
    "link.noise_power": st.floats(min_value=1e-20, max_value=1.0),
    "traffic.packet_bits": _POSITIVE,
    "traffic.delay_threshold": st.floats(min_value=0.0, max_value=10.0),
    "sim.n_samples": st.integers(min_value=1, max_value=10**9),
    "sim.seed": st.integers(min_value=0, max_value=2**32),
}
SCHEME_SWEEPABLE = {
    "rat": {
        "rat.tx_power": st.floats(min_value=1e-2, max_value=1e5),
        "rat.min_snr": _POSITIVE,
    },
    "pat": {
        "pat.max_power": st.floats(min_value=1e-2, max_value=1e5),
        "pat.fixed_rate": _POSITIVE,
    },
}


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
        scn = parse_scenario(PAT_MINIMAL)
        assert scn.pat.fixed_rate_bps == 60e6

    def test_unknown_unit(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("7600", "7600 furlongs"))


class TestValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("slot_len_s", math.nan, "slot_len_s must be > 0, got nan"),
        ("n_states", math.nan, "n_states must be >= 2, got nan"),
        ("slot_len_s", 0.0, "slot_len_s must be > 0, got 0.0"),
        ("n_states", 1, "n_states must be >= 2, got 1"),
    ], ids=["slot_len", "n_states", "slot_len_bound", "n_states_bound"])
    def test_scenario_rejects_nan(self, field, value, message):
        # and each check's bound (> b) or the integer below it (>= b)
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(scn, **{field: value})

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

    @pytest.mark.parametrize("text,error,message", [
        (MINIMAL.replace("[partition]", "[ ]"), ParseError, "line 16: empty section name"),
        (MINIMAL + "\n[sim]\n", ParseError, "line 35: duplicate section [sim]"),
        ("seed = 7\n" + MINIMAL, ParseError, "line 1: key before any [section] header"),
        (MINIMAL.replace("seed = 7", "seed ="), ParseError,
         "line 33: expected 'key = value', got 'seed ='"),
        (MINIMAL.replace("m = 2", "m = 10.1 dB extra"), ParseError,
         "line 11: fading.m: cannot parse value '10.1 dB extra'"),
        (MINIMAL.replace("m = 2", "m = ten"), ParseError,
         "line 11: fading.m: cannot parse number 'ten'"),
        (MINIMAL.replace("omega = 0.5\n", ""), ValidationError,
         "missing required key fading.omega"),
    ], ids=["empty-section", "repeated-section", "key-before-header", "empty-value",
            "three-words", "not-a-number", "missing-key"])
    def test_refusal_message(self, text, error, message):
        with pytest.raises(error) as err:
            parse_scenario(text)
        assert str(err.value) == message

    def test_half_track_and_plane_exclusive(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("half_track = 500 km",
                                           "half_track = 500 km\nsats_per_plane = 40"))
        text = MINIMAL.replace("half_track = 500 km", "sats_per_plane = 40")
        scn = parse_scenario(text)
        assert scn.geometry.half_track_m == pytest.approx(
            math.pi * 6371e3 / 40.0, rel=1e-12
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text.replace("sats_per_plane = 40", "sats_per_plane = 0"))
        assert "geometry.sats_per_plane (line 6): " in str(err.value)

    def test_default_sat_speed_is_circular_orbit(self):
        text = MINIMAL.replace("sat_speed = 7600\n", "")
        scn = parse_scenario(text)
        assert scn.geometry.sat_speed_ms == pytest.approx(
            math.sqrt(3.986004418e14 / 6871e3), rel=1e-12
        )

    @pytest.mark.parametrize("old,new,key", [
        ("orbit_height = 500 km", "orbit_height = -7000 km", "geometry.orbit_height"),
        ("earth_radius = 6371 km", "earth_radius = -7000 km", "geometry.earth_radius"),
    ], ids=["orbit_height", "earth_radius"])
    def test_default_sat_speed_of_bad_height_names_key(self, old, new, key):
        # the default speed is computed before PassGeometry checks the heights
        text = MINIMAL.replace("sat_speed = 7600\n", "").replace(old, new)
        lineno = text.splitlines().index(new) + 1
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert f"{key} (line {lineno}): " in str(err.value)

    def test_upper_threshold_count_checked(self):
        text = MINIMAL.replace("n_states = 4", "n_states = 4\nupper_thresholds = 0.8")
        with pytest.raises(ValidationError):
            parse_scenario(text)
        ok = MINIMAL.replace("n_states = 4", "n_states = 4\nupper_thresholds = 0.8, 1.2")
        scn = parse_scenario(ok)
        assert scn.upper_thresholds == (0.8, 1.2)

    @pytest.mark.parametrize("uppers", ["0.9, 0.5", "0.8, 0.8"])
    def test_upper_threshold_order_checked(self, uppers):
        new = f"upper_thresholds = {uppers}"
        text = MINIMAL.replace("n_states = 4", f"n_states = 4\n{new}")
        lineno = text.splitlines().index(new) + 1
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert str(err.value) == (f"partition.upper_thresholds (line {lineno}): upper_thresholds "
                                  f"must be strictly increasing, got ({uppers})")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("n_samples = 1000", "n_samples = 10.5"))

    def test_integer_literal_read_exactly(self):
        # 2^53 + 1 has no float of its own
        scn = parse_scenario(MINIMAL.replace("seed = 7", "seed = 9007199254740993"))
        assert scn.sim.seed == 9007199254740993
        assert parse_scenario(MINIMAL.replace("seed = 7", "seed = 1e3")).sim.seed == 1000

    def test_negative_seed_rejected(self):
        text = MINIMAL.replace("seed = 7", "seed = -1")
        lineno = text.splitlines().index("seed = -1") + 1
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert str(err.value) == f"sim.seed (line {lineno}): seed must be >= 0, got -1"

    def test_integer_through_a_float_beyond_2_53_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL.replace("seed = 7", "seed = 9007199254740993.0"))
        assert "sim.seed" in str(err.value) and "2^53" in str(err.value)


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

    @pytest.mark.parametrize("arg,error,message", [
        ("x.y=a:2:3", ParseError, "cannot parse sweep range 'a:2:3'"),
        ("x.y=1:2:0", ValidationError, "sweep needs >= 1 steps, got 0"),
    ], ids=["range-not-a-number", "zero-steps"])
    def test_range_refusal_message(self, arg, error, message):
        with pytest.raises(error) as err:
            parse_sweep(arg)
        assert str(err.value) == message

    def test_one_step_range_is_its_start(self):
        assert parse_sweep("x.y=1:2:1") == SweepSpec("x.y", (1.0,))

    def test_spec_needs_a_value(self):
        with pytest.raises(ValidationError) as err:
            SweepSpec("x", ())
        assert str(err.value) == "sweep needs at least one value"

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

    @pytest.mark.parametrize("value", [2.0**53, -1e300], ids=["2^53", "-1e300"])
    def test_apply_rejects_integer_beyond_2_53(self, value):
        # 2^53 + 1 reaches the sweep as the float 2^53
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError) as err:
            apply_sweep_value(scn, "sim.seed", value)
        assert "sweep sim.seed" in str(err.value) and "2^53" in str(err.value)
        assert apply_sweep_value(scn, "sim.seed", 2.0**53 - 1).sim.seed == 2**53 - 1

    @pytest.mark.parametrize("text", [
        "9007199254740993", "-9007199254740993", "9.007199254740993e15", "9007199254740992",
    ])
    def test_integer_sweep_value_beyond_2_53_named_as_typed(self, text):
        with pytest.raises(ValidationError) as err:
            parse_sweep(f"sim.seed=7, {text}")
        assert str(err.value) == (f"sweep sim.seed: {text!r} reaches 2^53, "
                                  "where a float no longer holds every integer")

    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_integer_sweep_value_not_finite(self, text):
        with pytest.raises(ValidationError) as err:
            parse_sweep(f"sim.seed=7,{text}")
        assert str(err.value) == f"sweep sim.seed: values must be finite numbers, got '7,{text}'"

    def test_integer_sweep_values_read_exactly(self):
        assert parse_sweep("sim.seed=9007199254740991,1e3").values == (2.0**53 - 1, 1000.0)
        with pytest.raises(ValidationError) as err:
            parse_sweep("partition.n_states=4,4.5")
        assert str(err.value) == "sweep partition.n_states: expected an integer, got '4.5'"

    def test_apply_takes_integral_range_values(self):
        scn = parse_scenario(MINIMAL)
        sweep = parse_sweep("partition.n_states=2:8:7")
        states = [apply_sweep_value(scn, sweep.path, v).n_states for v in sweep.values]
        assert states == [2, 3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize("path,value", [
        ("fading.m", math.nan),
        ("rat.tx_power", math.nan),
        ("geometry.orbit_height", math.inf),
        ("sim.seed", math.nan),
        ("partition.n_states", -math.inf),
    ])
    def test_apply_rejects_non_finite_value(self, path, value):
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError) as err:
            apply_sweep_value(scn, path, value)
        assert f"sweep {path}: must be a finite number" in str(err.value)

    @pytest.mark.parametrize("text,path", [
        (MINIMAL.replace("half_track = 500 km", "sats_per_plane = 40"),
         "geometry.sats_per_plane"),
        (MINIMAL, "pat.max_power"),
        (PAT_MINIMAL, "rat.tx_power"),
        (MINIMAL, "partition.upper_thresholds"),
    ])
    def test_apply_rejects_keys_the_scenario_does_not_hold(self, text, path):
        with pytest.raises(UnknownKey):
            apply_sweep_value(parse_scenario(text), path, 1.0)

    def test_apply_rejects_list_key(self):
        scn = parse_scenario(UPPERS)
        with pytest.raises(ValidationError) as err:
            apply_sweep_value(scn, "partition.upper_thresholds", 1.0)
        assert "partition.upper_thresholds" in str(err.value)
        assert "not numeric" in str(err.value)

    @pytest.mark.parametrize("text,path,value,named", [
        (MINIMAL, "geometry.slot_len", 0.0, ["geometry.slot_len"]),
        (MINIMAL, "partition.n_states", 1.0, ["partition.n_states"]),
        (UPPERS, "partition.n_states", 5.0, ["partition.upper_thresholds", "n_states=5"]),
    ])
    def test_apply_checks_scenario_invariants(self, text, path, value, named):
        with pytest.raises(ValidationError) as err:
            apply_sweep_value(parse_scenario(text), path, value)
        assert all(part in str(err.value) for part in named)

    def test_path_loss_exp_sweep_moves_the_link_budget(self):
        scn = parse_scenario(MINIMAL)
        out = apply_sweep_value(scn, "geometry.path_loss_exp", 2.5)
        assert out.budget.path_loss_exp == 2.5
        assert scn.budget.path_loss_exp == 2.0
        assert out.geometry == scn.geometry


class TestRoundTripProperty:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_scenarios_round_trip(self, data):
        # every numeric key moved at once: each lands under its own key,
        # and the rendered text parses back to the same scenario
        for scheme, text in (("rat", MINIMAL), ("pat", PAT_MINIMAL)):
            scn = parse_scenario(text)
            drawn = {path: data.draw(strategy, label=path)
                     for path, strategy in {**SWEEPABLE, **SCHEME_SWEEPABLE[scheme]}.items()}
            for path, value in drawn.items():
                scn = apply_sweep_value(scn, path, value)
            rendered = render_scenario(scn)
            for path, value in drawn.items():
                assert f"\n{path.split('.')[1]} = {value!r}\n" in rendered
            assert parse_scenario(rendered) == scn
