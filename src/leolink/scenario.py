"""Scenario files: sectioned key = value text with unit suffixes.

A scenario collects every input of one analysis run: pass geometry, fading
and Doppler statistics, the gain partition size, link budget, one scheme
section ([rat] or [pat]), traffic, and simulation control. Values accept
unit suffixes (dB, dBm, dBW, km, MHz, ms, Kbits, Mbit/s, deg, ...) and are
stored in SI / linear form.
"""

import math
from dataclasses import dataclass, replace

from .channel import DopplerSpec, SrFading
from .geometry import PassGeometry, circular_orbit_speed, half_track_from_plane
from .montecarlo import SimConfig
from .schemes import LinkBudget, PatConfig, RatConfig, TrafficSpec

__all__ = [
    "Scenario",
    "SweepSpec",
    "ScenarioError",
    "ParseError",
    "ValidationError",
    "UnknownKey",
    "parse_scenario",
    "parse_sweep",
    "apply_sweep_value",
]


class ScenarioError(Exception):
    """Base for scenario-file problems; .code drives the CLI exit status."""

    code = "E_SCENARIO"


class ParseError(ScenarioError):
    code = "E_PARSE"


class ValidationError(ScenarioError):
    code = "E_VALIDATION"


class UnknownKey(ScenarioError):
    code = "E_UNKNOWN_KEY"


def _db(v: float) -> float:
    return 10.0 ** (v / 10.0)


# suffix -> multiplier or converter to SI / linear units
_UNITS = {
    "db": _db,
    "dbm": lambda v: 10.0 ** ((v - 30.0) / 10.0),
    "dbw": _db,
    "m": 1.0,
    "km": 1e3,
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "bits": 1.0,
    "kbits": 1e3,
    "mbits": 1e6,
    "bit/s": 1.0,
    "kbit/s": 1e3,
    "mbit/s": 1e6,
    "gbit/s": 1e9,
    "bps": 1.0,
    "w": 1.0,
    "mw": 1e-3,
    "deg": lambda v: math.radians(v),
    "rad": 1.0,
    "m/s": 1.0,
}


def _parse_number(text: str, where: str) -> float:
    parts = text.split()
    if len(parts) not in (1, 2):
        raise ParseError(f"{where}: cannot parse value {text!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ParseError(f"{where}: cannot parse number {parts[0]!r}") from None
    if len(parts) == 2:
        conv = _UNITS.get(parts[1].lower())
        if conv is None:
            raise ParseError(f"{where}: unknown unit {parts[1]!r}")
        try:
            value = conv(value) if callable(conv) else value * conv
        except OverflowError:  # e.g. 10 ** (v / 10) of a huge dB value
            value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{where}: must be a finite number, got {text!r}")
    return value


@dataclass(frozen=True)
class Scenario:
    """Fully validated inputs of one analysis or simulation run."""

    geometry: PassGeometry
    slot_len_s: float
    fading: SrFading
    doppler: DopplerSpec
    n_states: int
    upper_thresholds: tuple[float, ...] | None
    budget: LinkBudget
    scheme: str
    rat: RatConfig | None
    pat: PatConfig | None
    traffic: TrafficSpec
    sim: SimConfig

    def __post_init__(self):
        if not self.slot_len_s > 0:
            raise ValueError(f"slot_len_s must be > 0, got {self.slot_len_s}")
        if not self.n_states >= 2:
            raise ValueError(f"n_states must be >= 2, got {self.n_states}")
        uppers = self.upper_thresholds
        if uppers is not None and len(uppers) != self.n_states - 2:
            raise ValueError(
                f"upper_thresholds must hold {self.n_states - 2} values for "
                f"n_states={self.n_states}, got {len(uppers)}"
            )
        if uppers is not None and any(b <= a for a, b in zip(uppers, uppers[1:])):
            raise ValueError(f"upper_thresholds must be strictly increasing, got {uppers}")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: dotted section.key path plus the SI values."""

    path: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("sweep needs at least one value")


# section -> key -> (Scenario field, field of that object or None, kind,
# required); kind: f float, i int, list float list. sats_per_plane has no
# Scenario field: the parser turns it into half_track. Sections render in
# this order.
_KEYS = {
    "geometry": {
        "earth_radius": ("geometry", "earth_radius_m", "f", True),
        "orbit_height": ("geometry", "orbit_height_m", "f", True),
        "coverage_radius": ("geometry", "coverage_radius_m", "f", True),
        "half_track": ("geometry", "half_track_m", "f", False),
        "sats_per_plane": (None, None, "i", False),
        "sat_speed": ("geometry", "sat_speed_ms", "f", False),
        "terminal_offset": ("geometry", "terminal_offset_m", "f", False),
        "path_loss_exp": ("budget", "path_loss_exp", "f", False),
        "slot_len": ("slot_len_s", None, "f", True),
    },
    "fading": {
        "m": ("fading", "m", "f", True),
        "b0": ("fading", "b0", "f", True),
        "omega": ("fading", "omega", "f", True),
        "f_scatter_max": ("doppler", "f_scatter_max_hz", "f", True),
        "mean_aoa": ("doppler", "mean_aoa_rad", "f", False),
        "aoa_width": ("doppler", "aoa_width", "f", False),
    },
    "partition": {
        "n_states": ("n_states", None, "i", True),
        "upper_thresholds": ("upper_thresholds", None, "list", False),
    },
    "link": {
        "bandwidth": ("budget", "bandwidth_hz", "f", True),
        "noise_power": ("budget", "noise_power_w", "f", True),
    },
    "traffic": {
        "packet_bits": ("traffic", "packet_bits", "f", True),
        "delay_threshold": ("traffic", "delay_threshold_s", "f", True),
    },
    "sim": {
        "n_samples": ("sim", "n_samples", "i", True),
        "seed": ("sim", "seed", "i", True),
    },
    "rat": {
        "tx_power": ("rat", "tx_power_w", "f", True),
        "min_snr": ("rat", "min_snr", "f", True),
    },
    "pat": {
        "max_power": ("pat", "max_power_w", "f", True),
        "fixed_rate": ("pat", "fixed_rate_bps", "f", True),
    },
}

# Scenario field -> class of the object it holds, built in this order
_CLASSES = {
    "geometry": PassGeometry,
    "fading": SrFading,
    "doppler": DopplerSpec,
    "budget": LinkBudget,
    "rat": RatConfig,
    "pat": PatConfig,
    "traffic": TrafficSpec,
    "sim": SimConfig,
}

# dataclass field (or parse-time input) -> (section, key), to name the key
# of a rejected value
_KEY_OF = {
    sub or field or key: (section, key)
    for section, keys in _KEYS.items()
    for key, (field, sub, _, _) in keys.items()
}


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw sections: section -> key -> (value text, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name:
                raise ParseError(f"line {lineno}: empty section name")
            if name in sections:
                raise ParseError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key before any [section] header")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.lower()
        if key in sections[current]:
            raise ParseError(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = (value, lineno)
    return sections


def _convert_sections(raw: dict[str, dict[str, tuple[str, int]]]):
    """Typed values, plus (section, key) -> line number, checked against _KEYS."""
    values: dict[str, dict[str, object]] = {}
    lines: dict[tuple[str, str], int] = {}
    for section, entries in raw.items():
        keys = _KEYS.get(section)
        if keys is None:
            first_line = min(line for _, line in entries.values()) if entries else 0
            raise UnknownKey(f"line {first_line}: unknown section [{section}]")
        values[section] = {}
        for key, (text, lineno) in entries.items():
            if key not in keys:
                raise UnknownKey(f"line {lineno}: unknown key {section}.{key}")
            kind = keys[key][2]
            where = f"line {lineno}: {section}.{key}"
            if kind == "f":
                values[section][key] = _parse_number(text, where)
            elif kind == "i":
                try:
                    values[section][key] = int(text)
                except ValueError:  # a unit, an exponent or a fraction
                    values[section][key] = _exact_int(_parse_number(text, where), where, text)
            else:
                values[section][key] = tuple(
                    _parse_number(part.strip(), where) for part in text.split(",")
                )
            lines[section, key] = lineno
    return values, lines


def _exact_int(value: float, where: str, shown: str) -> int:
    """An integer key's value that is, or will be, held in a float. From
    2^53 on, a float can stand for more than one integer, so it is refused."""
    if value != int(value):
        raise ValidationError(f"{where}: expected an integer, got {shown!r}")
    if abs(value) >= 2.0**53:
        raise ValidationError(
            f"{where}: {shown!r} reaches 2^53, where a float no longer holds every integer"
        )
    return int(value)


def _build(make, lines: dict, *args, **kwargs):
    """make(*args, **kwargs), naming the section.key of a rejected field."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        section, key = _KEY_OF[str(exc).split(" ", 1)[0]]
        lineno = lines.get((section, key))
        at = f" (line {lineno})" if lineno is not None else ""
        raise ValidationError(f"{section}.{key}{at}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioError subclasses."""
    values, lines = _convert_sections(_read_sections(text))
    schemes = [section for section in ("rat", "pat") if section in values]
    for section, keys in _KEYS.items():
        if section in ("rat", "pat"):
            if len(schemes) != 1:
                raise ValidationError("exactly one scheme section ([rat] or [pat]) is required")
            if section != schemes[0]:
                continue
        elif section not in values:
            raise ValidationError(f"missing required section [{section}]")
        for key, (*_, required) in keys.items():
            if required and key not in values[section]:
                raise ValidationError(f"missing required key {section}.{key}")

    g = values["geometry"]
    if ("half_track" in g) == ("sats_per_plane" in g):
        raise ValidationError(
            "geometry: give exactly one of half_track or sats_per_plane"
        )
    if "sats_per_plane" in g:
        g["half_track"] = _build(
            half_track_from_plane, lines, g["earth_radius"], g["sats_per_plane"]
        )
    if "sat_speed" not in g:
        g["sat_speed"] = _build(
            circular_orbit_speed, lines, g["earth_radius"], g["orbit_height"]
        )

    # absent optional keys take the dataclass defaults
    fields = {"scheme": schemes[0], "upper_thresholds": None, "rat": None, "pat": None}
    kwargs: dict[str, dict[str, object]] = {}
    for section, entries in values.items():
        for key, value in entries.items():
            field, sub, _, _ = _KEYS[section][key]
            if sub:
                kwargs.setdefault(field, {})[sub] = value
            elif field:
                fields[field] = value
    for field, cls in _CLASSES.items():
        if field in kwargs:
            fields[field] = _build(cls, lines, **kwargs[field])
    return _build(Scenario, lines, **fields)


def _value(scn: Scenario, field: str | None, sub: str | None):
    """What scn holds under one key of _KEYS, or None if it holds nothing."""
    obj = getattr(scn, field) if field else None
    return getattr(obj, sub) if sub and obj is not None else obj


def parse_sweep(arg: str) -> SweepSpec:
    """--sweep argument: KEY=START:STOP:STEPS or KEY=v1,v2,... (SI values)."""
    if "=" not in arg:
        raise ParseError(f"sweep must look like KEY=START:STOP:STEPS, got {arg!r}")
    path, spec = (s.strip() for s in arg.split("=", 1))
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError(f"sweep range must be START:STOP:STEPS, got {spec!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
        except ValueError:
            raise ParseError(f"cannot parse sweep range {spec!r}") from None
        if steps < 1:
            raise ValidationError(f"sweep needs >= 1 steps, got {steps}")
        if steps == 1:
            values = (start,)
        else:
            step = (stop - start) / (steps - 1)
            values = tuple(start + i * step for i in range(steps))
    else:
        texts = spec.split(",")
        try:
            values = tuple(float(s) for s in texts)
        except ValueError:
            raise ParseError(f"cannot parse sweep values {spec!r}") from None
        section, _, key = path.partition(".")
        entry = _KEYS.get(section, {}).get(key)
        if entry is not None and entry[2] == "i":
            # a sweep value is a float, so an integer is refused from 2^53
            # on, named as typed
            for value, text in zip(values, texts):
                if math.isfinite(value):
                    _exact_int(value, f"sweep {path}", text.strip())
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"sweep {path}: values must be finite numbers, got {spec!r}")
    return SweepSpec(path=path, values=values)


def apply_sweep_value(scn: Scenario, path: str, value: float) -> Scenario:
    """Scenario with one dotted-path parameter replaced (and revalidated)."""
    if "." not in path:
        raise UnknownKey(f"sweep path must be section.key, got {path!r}")
    section, key = path.split(".", 1)
    entry = _KEYS.get(section, {}).get(key)
    if entry is None or _value(scn, *entry[:2]) is None:
        raise UnknownKey(f"sweep path {path!r} does not name a scenario parameter")
    field, sub, kind, _ = entry
    if kind == "list":
        raise ValidationError(f"sweep path {path!r} is not numeric")
    if not math.isfinite(value):
        raise ValidationError(f"sweep {path}: must be a finite number, got {value!r}")
    if kind == "i":
        value = _exact_int(value, f"sweep {path}", value)
    if sub:
        value = _build(replace, {}, getattr(scn, field), **{sub: value})
    return _build(replace, {}, scn, **{field: value})
