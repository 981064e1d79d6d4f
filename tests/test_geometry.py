import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.geometry import (
    OutOfPass,
    PassGeometry,
    PassTimeline,
    SlotTooLong,
    build_timeline,
    circular_orbit_speed,
    distance_at,
    distance_range,
    half_track_from_plane,
    service_duration,
    build_timelines,
    sub_point_speed,
)


def make_geo(**kw) -> PassGeometry:
    base = dict(
        earth_radius_m=6371e3,
        orbit_height_m=500e3,
        coverage_radius_m=500e3,
        half_track_m=1000e3,
        sat_speed_ms=7600.0,
        terminal_offset_m=0.0,
    )
    base.update(kw)
    return PassGeometry(**base)


class TestSubPointSpeed:
    def test_vanishing_height_limit(self):
        geo = make_geo(orbit_height_m=1e-6)
        assert sub_point_speed(geo) == pytest.approx(7600.0, rel=1e-9)

    def test_reference_value(self):
        # 7600 * 6371e3 / 6871e3, evaluated directly
        assert sub_point_speed(make_geo()) == pytest.approx(
            7046.950953281909, rel=1e-12
        )

    def test_vanishing_speed_limit(self):
        geo = make_geo(sat_speed_ms=1e-12)
        assert sub_point_speed(geo) == pytest.approx(0.0, abs=1e-12)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            make_geo(sat_speed_ms=0.0)


class TestServiceDuration:
    def test_unit_duration_identity(self):
        geo = make_geo()
        v = sub_point_speed(geo)
        geo1 = make_geo(half_track_m=v / 2.0)
        assert service_duration(geo1) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        # 2e6 m / 7046.950953... m/s
        assert service_duration(make_geo()) == pytest.approx(
            283.8106882336905, rel=1e-12
        )

    def test_linear_in_half_track(self):
        t1 = service_duration(make_geo(half_track_m=700e3))
        t2 = service_duration(make_geo(half_track_m=1400e3))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_independent_of_terminal_offset(self):
        t0 = service_duration(make_geo(terminal_offset_m=0.0))
        t1 = service_duration(make_geo(terminal_offset_m=300e3))
        assert t0 == t1


class TestDistanceAt:
    def test_midpass_overhead(self):
        geo = make_geo(terminal_offset_m=0.0)
        t_s = service_duration(geo)
        assert distance_at(geo, np.array([t_s / 2.0]))[0] == geo.orbit_height_m

    def test_symmetric_endpoints(self):
        geo = make_geo(terminal_offset_m=120e3)
        t_s = service_duration(geo)
        assert distance_at(geo, np.array([0.0]))[0] == pytest.approx(
            distance_at(geo, np.array([t_s]))[0], rel=1e-12
        )

    def test_boundary_entry_distance(self):
        # pass begins exactly at the coverage edge when half_track = R, d_P = 0
        geo = make_geo(half_track_m=500e3, terminal_offset_m=0.0)
        want = math.hypot(geo.orbit_height_m, geo.coverage_radius_m)
        assert distance_at(geo, np.array([0.0]))[0] == pytest.approx(want, rel=1e-12)

    def test_quarter_pass_value(self):
        # |half_track - v (T_s/4)| = half_track/2 = 5e5; sqrt(5.1e11)
        geo = make_geo(terminal_offset_m=100e3)
        t_s = service_duration(geo)
        assert distance_at(geo, np.array([t_s / 4.0]))[0] == pytest.approx(
            714142.842854285, rel=1e-12
        )

    def test_out_of_pass(self):
        geo = make_geo()
        with pytest.raises(OutOfPass):
            distance_at(geo, np.array([-0.1]))
        with pytest.raises(OutOfPass):
            distance_at(geo, np.array([service_duration(geo) + 0.1]))
        with pytest.raises(OutOfPass):
            distance_at(geo, np.array([0.0, 1.0, service_duration(geo) + 0.1]))

    def test_array_matches_scalar(self):
        geo = make_geo(terminal_offset_m=100e3)
        ts = np.linspace(0.0, service_duration(geo), 41)
        assert distance_at(geo, ts).tolist() == [distance_at(geo, np.array([t]))[0] for t in ts]


class TestDistanceRange:
    def test_all_terminal_envelope(self):
        geo = make_geo()
        lo, hi = distance_range(geo)
        assert lo == geo.orbit_height_m
        assert hi == math.hypot(geo.orbit_height_m, geo.coverage_radius_m)

    def test_all_terminal_reference_value(self):
        geo = make_geo(orbit_height_m=500e3, coverage_radius_m=500e3)
        assert distance_range(geo)[1] == pytest.approx(
            707106.7811865475, rel=1e-12
        )


class TestBuildTimeline:
    def test_single_slot_extremes(self):
        geo = make_geo(terminal_offset_m=150e3)
        t_s = service_duration(geo)
        tl = build_timeline(geo, t_s)
        assert tl.n_slots == 1
        assert tl.slot_dist_min[0] == pytest.approx(
            math.hypot(150e3, 500e3), rel=1e-12
        )
        assert tl.slot_dist_max[0] == pytest.approx(
            math.sqrt(1000e3**2 + 150e3**2 + 500e3**2), rel=1e-12
        )

    def test_symmetric_slots(self):
        # half_track chosen so the pass is exactly 30 slots long
        geo0 = make_geo()
        v = sub_point_speed(geo0)
        geo = make_geo(half_track_m=15.0 * v)
        tl = build_timeline(geo, 1.0)
        assert tl.n_slots == 30
        for n in range(tl.n_slots):
            mirror = tl.n_slots - 1 - n
            assert tl.slot_dist_min[n] == pytest.approx(
                tl.slot_dist_min[mirror], rel=1e-9
            )
            assert tl.slot_dist_max[n] == pytest.approx(
                tl.slot_dist_max[mirror], rel=1e-9
            )

    def test_dense_grid_bracketing(self):
        geo = make_geo(terminal_offset_m=0.0)
        tl = build_timeline(geo, 1.0)
        assert np.all(tl.slot_dist_min >= geo.orbit_height_m)
        for n in [0, 1, 70, 140, tl.n_slots - 1]:
            ts = np.linspace(n * tl.slot_len_s, (n + 1) * tl.slot_len_s, 1000)
            ds = distance_at(geo, ts)
            assert ds.min() >= tl.slot_dist_min[n] * (1 - 1e-12)
            assert ds.max() <= tl.slot_dist_max[n] * (1 + 1e-12)

    @pytest.mark.parametrize("slot_len", [0.1, 1.0, 7.3, 60.0])
    @pytest.mark.parametrize("height", [300e3, 550e3, 1200e3])
    @pytest.mark.parametrize("offset", [0.0, 150e3])
    def test_matches_scalar_slot_loop(self, slot_len, height, offset):
        # the slot-by-slot bracketing from scalar distances, bit for bit
        geo = make_geo(orbit_height_m=height, terminal_offset_m=offset,
                       sat_speed_ms=circular_orbit_speed(6371e3, height))
        tl = build_timeline(geo, slot_len)
        t_s = service_duration(geo)
        t_mid = geo.half_track_m / sub_point_speed(geo)
        for i in range(tl.n_slots):
            t0, t1 = i * slot_len, min((i + 1) * slot_len, t_s)
            ds = [distance_at(geo, np.array([t0]))[0], distance_at(geo, np.array([t1]))[0]]
            if t0 < t_mid < t1:
                ds.append(distance_at(geo, np.array([t_mid]))[0])
            assert (tl.slot_dist_min[i], tl.slot_dist_max[i]) == (min(ds), max(ds))

    def test_slot_too_long(self):
        geo = make_geo()
        with pytest.raises(SlotTooLong):
            build_timeline(geo, service_duration(geo) + 1.0)

    def test_invalid_slot_len(self):
        with pytest.raises(ValueError):
            build_timeline(make_geo(), 0.0)

    def test_remainder_dropped(self):
        geo = make_geo()
        tl = build_timeline(geo, 1.0)
        t_s = service_duration(geo)
        assert tl.n_slots == int(t_s)
        assert tl.n_slots * tl.slot_len_s <= t_s < (tl.n_slots + 1) * tl.slot_len_s
        assert tl.span_s == tl.n_slots * tl.slot_len_s

    def test_slot_brackets_rows_match_each_pass_alone(self):
        # passes of different slot counts in one call: each timeline is the
        # pass's timeline alone, bit for bit
        geos = [make_geo(orbit_height_m=h, terminal_offset_m=o)
                for h, o in ((300e3, 0.0), (550e3, 150e3), (1200e3, 0.0))]
        slots = [0.5, 7.3, 1.0]
        tls = build_timelines(geos, slots)
        assert len({tl.n_slots for tl in tls}) == 3
        for geo, slot, tl in zip(geos, slots, tls):
            alone = build_timeline(geo, slot)
            assert ((tl.service_time_s, tl.slot_len_s, tl.n_slots)
                    == (alone.service_time_s, alone.slot_len_s, alone.n_slots))
            assert tl.slot_dist_min.tolist() == alone.slot_dist_min.tolist()
            assert tl.slot_dist_max.tolist() == alone.slot_dist_max.tolist()

    def test_slot_brackets_raise_for_the_first_failing_pass(self):
        geo = make_geo()
        too_long = service_duration(geo) + 1.0
        with pytest.raises(SlotTooLong, match=f"slot_len_s={too_long}"):
            build_timelines([geo, geo, geo], [1.0, too_long, 0.0])

    @given(
        height=st.floats(min_value=300e3, max_value=2000e3),
        half_track=st.floats(min_value=50e3, max_value=3000e3),
        offset=st.floats(min_value=0.0, max_value=400e3),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=25, deadline=None)
    def test_slots_bracket_sampled_distances(self, height, half_track, offset, frac):
        geo = make_geo(
            orbit_height_m=height, half_track_m=half_track, terminal_offset_m=offset
        )
        t_s = service_duration(geo)
        tl = build_timeline(geo, t_s * frac)
        for n in range(tl.n_slots):
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                t = (n + u) * tl.slot_len_s
                d = distance_at(geo, np.array([min(t, t_s)]))[0]
                assert tl.slot_dist_min[n] * (1 - 1e-12) <= d
                assert d <= tl.slot_dist_max[n] * (1 + 1e-12)


class TestTimelineInvariants:
    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            PassTimeline(
                service_time_s=10.0,
                slot_len_s=1.0,
                n_slots=20,
                slot_dist_min=np.ones(20),
                slot_dist_max=np.ones(20),
            )

    @pytest.mark.parametrize("n_min,n_max", [(1, 2), (2, 3)], ids=["min_short", "max_long"])
    def test_rejects_slot_arrays_of_another_length(self, n_min, n_max):
        with pytest.raises(ValueError, match="^slot distance arrays must have length n_slots$"):
            PassTimeline(service_time_s=2.0, slot_len_s=1.0, n_slots=2,
                         slot_dist_min=np.ones(n_min), slot_dist_max=np.ones(n_max))

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            PassTimeline(
                service_time_s=2.0,
                slot_len_s=1.0,
                n_slots=2,
                slot_dist_min=np.array([2.0, 2.0]),
                slot_dist_max=np.array([1.0, 1.0]),
            )


class TestValueChecks:
    """Every value check rejects NaN, with the message it gives a value out
    of range, and rejects its bound (> b) or the value just below it
    (>= b)."""

    @pytest.mark.parametrize("field, value, message", [
        ("earth_radius_m", math.nan, "earth_radius_m must be > 0, got nan"),
        ("orbit_height_m", math.nan, "orbit_height_m must be > 0, got nan"),
        ("coverage_radius_m", math.nan, "coverage_radius_m must be > 0, got nan"),
        ("half_track_m", math.nan, "half_track_m must be > 0, got nan"),
        ("sat_speed_ms", math.nan, "sat_speed_ms must be > 0, got nan"),
        ("terminal_offset_m", math.nan, "terminal_offset_m must be >= 0, got nan"),
        ("earth_radius_m", 0.0, "earth_radius_m must be > 0, got 0.0"),
        ("orbit_height_m", 0.0, "orbit_height_m must be > 0, got 0.0"),
        ("coverage_radius_m", 0.0, "coverage_radius_m must be > 0, got 0.0"),
        ("half_track_m", 0.0, "half_track_m must be > 0, got 0.0"),
        ("sat_speed_ms", 0.0, "sat_speed_ms must be > 0, got 0.0"),
        ("terminal_offset_m", -5e-324, "terminal_offset_m must be >= 0, got -5e-324"),
    ], ids=["earth_radius", "orbit_height", "coverage_radius", "half_track", "sat_speed",
            "terminal_offset", "earth_radius_bound", "orbit_height_bound",
            "coverage_radius_bound", "half_track_bound", "sat_speed_bound",
            "terminal_offset_bound"])
    def test_pass_geometry_rejects_nan(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_geo(**{field: value})

    @pytest.mark.parametrize("make, message", [
        (lambda: build_timeline(make_geo(), math.nan), "slot_len_s must be > 0, got nan"),
        (lambda: build_timelines([make_geo(), make_geo()], [1.0, math.nan]),
         "slot_len_s must be > 0, got nan"),
        (lambda: PassTimeline(service_time_s=2.0, slot_len_s=1.0, n_slots=math.nan,
                              slot_dist_min=np.ones(2), slot_dist_max=np.ones(2)),
         "n_slots must be >= 1, got nan"),
        (lambda: PassTimeline(service_time_s=2.0, slot_len_s=1.0, n_slots=2,
                              slot_dist_min=np.array([math.nan, 1.0]),
                              slot_dist_max=np.ones(2)),
         "slot_dist_min must not exceed slot_dist_max"),
        (lambda: half_track_from_plane(6371e3, math.nan), "sats_per_plane must be >= 1, got nan"),
        (lambda: circular_orbit_speed(math.nan, 500e3), "earth_radius_m must be > 0, got nan"),
        (lambda: circular_orbit_speed(6371e3, math.nan), "orbit_height_m must be > 0, got nan"),
        (lambda: build_timeline(make_geo(), 0.0), "slot_len_s must be > 0, got 0.0"),
        (lambda: build_timelines([make_geo(), make_geo()], [1.0, 0.0]),
         "slot_len_s must be > 0, got 0.0"),
        (lambda: PassTimeline(service_time_s=2.0, slot_len_s=1.0, n_slots=0,
                              slot_dist_min=np.ones(2), slot_dist_max=np.ones(2)),
         "n_slots must be >= 1, got 0"),
        (lambda: half_track_from_plane(6371e3, 0), "sats_per_plane must be >= 1, got 0"),
        (lambda: circular_orbit_speed(0.0, 500e3), "earth_radius_m must be > 0, got 0.0"),
        (lambda: circular_orbit_speed(6371e3, 0.0), "orbit_height_m must be > 0, got 0.0"),
    ], ids=["build_timeline", "slot_brackets", "timeline_slots", "timeline_distances",
            "sats_per_plane", "orbit_earth_radius", "orbit_height", "build_timeline_bound",
            "slot_brackets_bound", "timeline_slots_bound", "sats_per_plane_bound",
            "orbit_earth_radius_bound", "orbit_height_bound"])
    def test_functions_reject_nan(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestHelpers:
    def test_half_track_from_plane(self):
        assert half_track_from_plane(6371e3, 40) == pytest.approx(
            math.pi * 6371e3 / 40, rel=1e-12
        )

    def test_circular_orbit_speed(self):
        v = circular_orbit_speed(6371e3, 500e3)
        assert v == pytest.approx(math.sqrt(3.986004418e14 / 6871e3), rel=1e-12)
        assert 7500.0 < v < 7700.0
