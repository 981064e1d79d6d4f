"""Pass geometry: time-varying satellite-terminal distance and its
per-slot discretization.

The ground track is treated as a straight chord at the sub-satellite-point
speed; the slant range at elapsed time t is
sqrt(|d_half - v t|^2 + d_offset^2 + H^2), symmetric about mid-pass.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PassGeometry",
    "PassTimeline",
    "OutOfPass",
    "SlotTooLong",
    "sub_point_speed",
    "service_duration",
    "distance_at",
    "distance_range",
    "build_timeline",
    "build_timelines",
    "half_track_from_plane",
    "circular_orbit_speed",
]

log = logging.getLogger(__name__)

# Standard gravitational parameter of Earth, m^3/s^2.
MU_EARTH = 3.986004418e14


@dataclass(frozen=True)
class PassGeometry:
    """Constants of a single overhead pass.

    earth_radius_m / orbit_height_m: Earth radius and orbital altitude.
    coverage_radius_m: ground radius of the beam footprint.
    half_track_m: half the sub-satellite ground track served per pass.
    sat_speed_ms: orbital speed of the satellite.
    terminal_offset_m: cross-track distance of the terminal from the track.
    """

    earth_radius_m: float
    orbit_height_m: float
    coverage_radius_m: float
    half_track_m: float
    sat_speed_ms: float
    terminal_offset_m: float = 0.0

    def __post_init__(self):
        if not self.earth_radius_m > 0:
            raise ValueError(f"earth_radius_m must be > 0, got {self.earth_radius_m}")
        if not self.orbit_height_m > 0:
            raise ValueError(f"orbit_height_m must be > 0, got {self.orbit_height_m}")
        if not self.coverage_radius_m > 0:
            raise ValueError(f"coverage_radius_m must be > 0, got {self.coverage_radius_m}")
        if not self.half_track_m > 0:
            raise ValueError(f"half_track_m must be > 0, got {self.half_track_m}")
        if not self.sat_speed_ms > 0:
            raise ValueError(f"sat_speed_ms must be > 0, got {self.sat_speed_ms}")
        if not self.terminal_offset_m >= 0:
            raise ValueError(f"terminal_offset_m must be >= 0, got {self.terminal_offset_m}")


@dataclass(frozen=True)
class PassTimeline:
    """Discretized pass: per-slot bracketing of the slant range.

    Slot n (1-based) covers [(n-1)*slot_len_s, n*slot_len_s]; slot_dist_min/max
    bracket the distance over that interval. Any remainder of the pass past
    n_slots * slot_len_s is dropped.
    """

    service_time_s: float
    slot_len_s: float
    n_slots: int
    slot_dist_min: np.ndarray
    slot_dist_max: np.ndarray

    def __post_init__(self):
        if not self.n_slots >= 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        tol = 1e-9 * max(self.service_time_s, self.slot_len_s)
        if not (self.n_slots * self.slot_len_s <= self.service_time_s + tol
                and self.service_time_s < (self.n_slots + 1) * self.slot_len_s + tol):
            raise ValueError(
                f"n_slots={self.n_slots} inconsistent with service_time_s="
                f"{self.service_time_s}, slot_len_s={self.slot_len_s}"
            )
        if len(self.slot_dist_min) != self.n_slots or len(self.slot_dist_max) != self.n_slots:
            raise ValueError("slot distance arrays must have length n_slots")
        if not np.all(self.slot_dist_min <= self.slot_dist_max):
            raise ValueError("slot_dist_min must not exceed slot_dist_max")

    @property
    def span_s(self) -> float:
        """Length of the discretized portion of the pass."""
        return self.n_slots * self.slot_len_s


class OutOfPass(ValueError):
    """Requested time lies outside [0, service duration]."""


class SlotTooLong(ValueError):
    """Slot length exceeds the whole service duration."""


def sub_point_speed(geo: PassGeometry) -> float:
    """Ground speed of the sub-satellite point, v_sat * Re / (Re + H)."""
    return geo.sat_speed_ms * geo.earth_radius_m / (geo.earth_radius_m + geo.orbit_height_m)


def service_duration(geo: PassGeometry) -> float:
    """Time the terminal spends inside one satellite's service arc.

    Equals 2 * half_track / sub-point speed; independent of the terminal's
    cross-track offset.
    """
    return 2.0 * geo.half_track_m / sub_point_speed(geo)


def distance_at(geo: PassGeometry, t) -> np.ndarray:
    """Slant range at a 1-D array of elapsed pass times t in [0, T_s]."""
    t_s = service_duration(geo)
    arr = np.array(t, dtype=float)  # a copy, for _slant_range to overwrite
    if arr.ndim != 1:
        raise ValueError("pass times must be a 1-D array")
    if not np.all((0.0 <= arr) & (arr <= t_s)):
        raise OutOfPass(f"t={t} outside [0, {t_s}]")
    return _slant_range(arr, geo.half_track_m, sub_point_speed(geo),
                        geo.terminal_offset_m**2, geo.orbit_height_m**2)


def _slant_range(t: np.ndarray, half, speed, offset2, height2) -> np.ndarray:
    """sqrt((half - speed t)^2 + offset2 + height2), in the memory of t, a
    fresh float array."""
    t *= speed
    np.subtract(half, t, out=t)
    t *= t
    t += offset2
    t += height2
    return np.sqrt(t, out=t)


def distance_range(geo: PassGeometry) -> tuple[float, float]:
    """(min, max) slant range over the whole footprint: (H, sqrt(H^2 + R^2))."""
    return geo.orbit_height_m, math.hypot(geo.orbit_height_m, geo.coverage_radius_m)


def build_timeline(geo: PassGeometry, slot_len_s: float) -> PassTimeline:
    """Split the pass into slots and bracket the slant range in each: the
    one-pass case of build_timelines."""
    return build_timelines([geo], [slot_len_s])[0]


def build_timelines(geos: list[PassGeometry], slot_lens: list[float]
                    ) -> list[PassTimeline]:
    """The timeline of each of P passes, all bracketed at once.

    The range falls to its single minimum at mid-pass and rises after it,
    so a slot's largest range is at one of its edges and its least at the
    slot's point nearest mid-pass. The passes' slots are bracketed as the
    rows of two P x N arrays, N the most slots of any pass, and each
    timeline holds its own row's first slots. Each equals the pass's
    timeline alone, bit for bit: every value is formed from its own pass's
    constants by the same operations. Raises the error of the first pass
    that fails.
    """
    times, counts, consts = [], [], []
    for geo, slot_len_s in zip(geos, slot_lens):
        if not slot_len_s > 0:
            raise ValueError(f"slot_len_s must be > 0, got {slot_len_s}")
        t_s = service_duration(geo)
        if slot_len_s > t_s:
            raise SlotTooLong(f"slot_len_s={slot_len_s} exceeds service duration {t_s}")
        ratio = t_s / slot_len_s
        n = int(math.floor(ratio))
        if ratio - n > 1.0 - 1e-9:  # t_s is a whole number of slots up to rounding
            n += 1
        remainder = t_s - n * slot_len_s
        if remainder > 1e-9 * t_s:
            log.info(
                "pass duration %.6g s is not a multiple of the %.6g s slot; "
                "dropping the trailing %.6g s", t_s, slot_len_s, remainder,
            )
        speed = sub_point_speed(geo)
        times.append(t_s)
        counts.append(n)
        # _slant_range's constants, and the mid-pass time
        consts.append((geo.half_track_m, speed, geo.terminal_offset_m**2,
                       geo.orbit_height_m**2, slot_len_s, t_s,
                       geo.half_track_m / speed))
    half, speed, offset2, height2, slot, t_s, t_mid = np.array(consts).T[:, :, None]
    j = np.arange(max(counts))
    t0 = j * slot
    t1 = (j + 1) * slot
    np.minimum(t1, t_s, out=t1)  # last edge can round past T_s
    d_min = _slant_range(np.clip(t_mid, t0, t1), half, speed, offset2, height2)
    d_max = np.maximum(_slant_range(t0, half, speed, offset2, height2),
                       _slant_range(t1, half, speed, offset2, height2), out=t1)
    return [PassTimeline(service_time_s=t, slot_len_s=s, n_slots=n,
                         slot_dist_min=lo[:n], slot_dist_max=hi[:n])
            for t, s, n, lo, hi in zip(times, slot_lens, counts, d_min, d_max)]


def half_track_from_plane(earth_radius_m: float, sats_per_plane: int) -> float:
    """Half the sub-satellite arc spacing for evenly spaced satellites."""
    if not sats_per_plane >= 1:
        raise ValueError(f"sats_per_plane must be >= 1, got {sats_per_plane}")
    return math.pi * earth_radius_m / sats_per_plane


def circular_orbit_speed(earth_radius_m: float, orbit_height_m: float) -> float:
    """Orbital speed of a circular orbit at the given altitude."""
    if not earth_radius_m > 0:
        raise ValueError(f"earth_radius_m must be > 0, got {earth_radius_m}")
    if not orbit_height_m > 0:
        raise ValueError(f"orbit_height_m must be > 0, got {orbit_height_m}")
    return math.sqrt(MU_EARTH / (earth_radius_m + orbit_height_m))
