"""Scenario files: sectioned key = value text with unit suffixes.

A scenario collects every input of one analysis run: pass geometry, fading
and Doppler statistics, the gain partition size, link budget, one scheme
section ([rat] or [pat]), traffic, and simulation control. Values accept
unit suffixes (dB, dBm, dBW, km, MHz, ms, Kbits, Mbit/s, deg, ...) and are
stored in SI / linear form.
"""

import math
from dataclasses import dataclass

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
    "render_scenario",
    "scenario_to_sections",
    "scenario_from_sections",
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


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: dotted section.key path plus the SI values."""

    path: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("sweep needs at least one value")


# section -> key -> (required, kind); kind: f float, i int, list float list
_SCHEMA = {
    "geometry": {
        "earth_radius": (True, "f"),
        "orbit_height": (True, "f"),
        "coverage_radius": (True, "f"),
        "half_track": (False, "f"),
        "sats_per_plane": (False, "i"),
        "sat_speed": (False, "f"),
        "terminal_offset": (False, "f"),
        "path_loss_exp": (False, "f"),
        "slot_len": (True, "f"),
    },
    "fading": {
        "m": (True, "f"),
        "b0": (True, "f"),
        "omega": (True, "f"),
        "f_scatter_max": (True, "f"),
        "mean_aoa": (False, "f"),
        "aoa_width": (False, "f"),
    },
    "partition": {
        "n_states": (True, "i"),
        "upper_thresholds": (False, "list"),
    },
    "link": {
        "bandwidth": (True, "f"),
        "noise_power": (True, "f"),
    },
    "rat": {
        "tx_power": (True, "f"),
        "min_snr": (True, "f"),
    },
    "pat": {
        "max_power": (True, "f"),
        "fixed_rate": (True, "f"),
    },
    "traffic": {
        "packet_bits": (True, "f"),
        "delay_threshold": (True, "f"),
    },
    "sim": {
        "n_samples": (True, "i"),
        "seed": (True, "i"),
    },
}

# dataclass field name -> scenario key, for invariant error reporting
_FIELD_TO_KEY = {
    "earth_radius_m": "earth_radius",
    "orbit_height_m": "orbit_height",
    "coverage_radius_m": "coverage_radius",
    "half_track_m": "half_track",
    "sat_speed_ms": "sat_speed",
    "terminal_offset_m": "terminal_offset",
    "path_loss_exp": "path_loss_exp",
    "m": "m",
    "b0": "b0",
    "omega": "omega",
    "f_scatter_max_hz": "f_scatter_max",
    "mean_aoa_rad": "mean_aoa",
    "aoa_width": "aoa_width",
    "bandwidth_hz": "bandwidth",
    "noise_power_w": "noise_power",
    "tx_power_w": "tx_power",
    "min_snr": "min_snr",
    "max_power_w": "max_power",
    "fixed_rate_bps": "fixed_rate",
    "packet_bits": "packet_bits",
    "delay_threshold_s": "delay_threshold",
    "n_samples": "n_samples",
    "seed": "seed",
}

# keys that one section's object takes from another section
_KEY_SECTION = {"path_loss_exp": "geometry"}


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
    """Typed values plus line numbers, checked against the schema."""
    values: dict[str, dict[str, object]] = {}
    lines: dict[str, dict[str, int]] = {}
    for section, entries in raw.items():
        schema = _SCHEMA.get(section)
        if schema is None:
            first_line = min(line for _, line in entries.values()) if entries else 0
            raise UnknownKey(f"line {first_line}: unknown section [{section}]")
        values[section] = {}
        lines[section] = {}
        for key, (text, lineno) in entries.items():
            if key not in schema:
                raise UnknownKey(f"line {lineno}: unknown key {section}.{key}")
            kind = schema[key][1]
            where = f"line {lineno}: {section}.{key}"
            if kind == "f":
                values[section][key] = _parse_number(text, where)
            elif kind == "i":
                num = _parse_number(text, where)
                if num != int(num):
                    raise ValidationError(f"{where}: expected an integer, got {text!r}")
                values[section][key] = int(num)
            else:
                values[section][key] = tuple(
                    _parse_number(part.strip(), where) for part in text.split(",")
                )
            lines[section][key] = lineno
    return values, lines


def _require(values, lines, section: str, keys_schema) -> None:
    if section not in values:
        raise ValidationError(f"missing required section [{section}]")
    for key, (required, _) in keys_schema.items():
        if required and key not in values[section]:
            raise ValidationError(f"missing required key {section}.{key}")


def _build(section: str, cls, kwargs: dict, lines) -> object:
    try:
        return cls(**kwargs)
    except ValueError as exc:
        msg = str(exc)
        field = msg.split(" ", 1)[0]
        key = _FIELD_TO_KEY.get(field, field)
        section = _KEY_SECTION.get(key, section)
        lineno = lines.get(section, {}).get(key)
        at = f" (line {lineno})" if lineno is not None else ""
        raise ValidationError(f"{section}.{key}{at}: {msg}") from None


def scenario_from_sections(values: dict, lines: dict | None = None) -> Scenario:
    """Assemble and validate a Scenario from typed section values."""
    lines = lines or {}
    for section in ("geometry", "fading", "partition", "link", "traffic", "sim"):
        _require(values, lines, section, _SCHEMA[section])
    has_rat = "rat" in values
    has_pat = "pat" in values
    if has_rat == has_pat:
        raise ValidationError("exactly one scheme section ([rat] or [pat]) is required")
    scheme = "rat" if has_rat else "pat"
    _require(values, lines, scheme, _SCHEMA[scheme])

    g = values["geometry"]
    if ("half_track" in g) == ("sats_per_plane" in g):
        raise ValidationError(
            "geometry: give exactly one of half_track or sats_per_plane"
        )
    half_track = g.get("half_track")
    if half_track is None:
        half_track = half_track_from_plane(g["earth_radius"], g["sats_per_plane"])
    sat_speed = g.get("sat_speed")
    if sat_speed is None:
        sat_speed = circular_orbit_speed(g["earth_radius"], g["orbit_height"])
    geometry = _build("geometry", PassGeometry, dict(
        earth_radius_m=g["earth_radius"],
        orbit_height_m=g["orbit_height"],
        coverage_radius_m=g["coverage_radius"],
        half_track_m=half_track,
        sat_speed_ms=sat_speed,
        terminal_offset_m=g.get("terminal_offset", 0.0),
    ), lines)
    slot_len = g["slot_len"]
    if slot_len <= 0:
        raise ValidationError(f"geometry.slot_len: must be > 0, got {slot_len}")

    f = values["fading"]
    fading = _build("fading", SrFading, dict(m=f["m"], b0=f["b0"], omega=f["omega"]), lines)
    doppler = _build("fading", DopplerSpec, dict(
        f_scatter_max_hz=f["f_scatter_max"],
        mean_aoa_rad=f.get("mean_aoa", 0.0),
        aoa_width=f.get("aoa_width", 0.0),
    ), lines)

    p = values["partition"]
    n_states = p["n_states"]
    if n_states < 2:
        raise ValidationError(f"partition.n_states: must be >= 2, got {n_states}")
    uppers = p.get("upper_thresholds")
    if uppers is not None and len(uppers) != n_states - 2:
        raise ValidationError(
            f"partition.upper_thresholds: need {n_states - 2} values for "
            f"n_states={n_states}, got {len(uppers)}"
        )

    budget = _build("link", LinkBudget, dict(
        bandwidth_hz=values["link"]["bandwidth"],
        noise_power_w=values["link"]["noise_power"],
        path_loss_exp=g.get("path_loss_exp", 2.0),
    ), lines)

    rat = pat = None
    if scheme == "rat":
        rat = _build("rat", RatConfig, dict(
            tx_power_w=values["rat"]["tx_power"],
            min_snr=values["rat"]["min_snr"],
        ), lines)
    else:
        pat = _build("pat", PatConfig, dict(
            max_power_w=values["pat"]["max_power"],
            fixed_rate_bps=values["pat"]["fixed_rate"],
        ), lines)

    traffic = _build("traffic", TrafficSpec, dict(
        packet_bits=values["traffic"]["packet_bits"],
        delay_threshold_s=values["traffic"]["delay_threshold"],
    ), lines)
    sim = _build("sim", SimConfig, dict(
        n_samples=values["sim"]["n_samples"],
        seed=values["sim"]["seed"],
    ), lines)

    return Scenario(
        geometry=geometry,
        slot_len_s=slot_len,
        fading=fading,
        doppler=doppler,
        n_states=n_states,
        upper_thresholds=tuple(uppers) if uppers is not None else None,
        budget=budget,
        scheme=scheme,
        rat=rat,
        pat=pat,
        traffic=traffic,
        sim=sim,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioError subclasses."""
    values, lines = _convert_sections(_read_sections(text))
    return scenario_from_sections(values, lines)


def scenario_to_sections(scn: Scenario) -> dict[str, dict[str, object]]:
    """Canonical SI-valued section mapping of a Scenario (render/sweep form)."""
    geo = scn.geometry
    sections: dict[str, dict[str, object]] = {
        "geometry": {
            "earth_radius": geo.earth_radius_m,
            "orbit_height": geo.orbit_height_m,
            "coverage_radius": geo.coverage_radius_m,
            "half_track": geo.half_track_m,
            "sat_speed": geo.sat_speed_ms,
            "terminal_offset": geo.terminal_offset_m,
            "path_loss_exp": scn.budget.path_loss_exp,
            "slot_len": scn.slot_len_s,
        },
        "fading": {
            "m": scn.fading.m,
            "b0": scn.fading.b0,
            "omega": scn.fading.omega,
            "f_scatter_max": scn.doppler.f_scatter_max_hz,
            "mean_aoa": scn.doppler.mean_aoa_rad,
            "aoa_width": scn.doppler.aoa_width,
        },
        "partition": {"n_states": scn.n_states},
        "link": {
            "bandwidth": scn.budget.bandwidth_hz,
            "noise_power": scn.budget.noise_power_w,
        },
        "traffic": {
            "packet_bits": scn.traffic.packet_bits,
            "delay_threshold": scn.traffic.delay_threshold_s,
        },
        "sim": {"n_samples": scn.sim.n_samples, "seed": scn.sim.seed},
    }
    if scn.upper_thresholds is not None:
        sections["partition"]["upper_thresholds"] = scn.upper_thresholds
    if scn.scheme == "rat":
        sections["rat"] = {
            "tx_power": scn.rat.tx_power_w,
            "min_snr": scn.rat.min_snr,
        }
    else:
        sections["pat"] = {
            "max_power": scn.pat.max_power_w,
            "fixed_rate": scn.pat.fixed_rate_bps,
        }
    return sections


def render_scenario(scn: Scenario) -> str:
    """Canonical text form; parse_scenario(render_scenario(s)) == s."""
    out = []
    for section, entries in scenario_to_sections(scn).items():
        out.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, tuple):
                out.append(f"{key} = {', '.join(repr(v) for v in value)}")
            else:
                out.append(f"{key} = {value!r}")
        out.append("")
    return "\n".join(out)


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
        try:
            values = tuple(float(s) for s in spec.split(","))
        except ValueError:
            raise ParseError(f"cannot parse sweep values {spec!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"sweep {path}: values must be finite numbers, got {spec!r}")
    return SweepSpec(path=path, values=values)


def apply_sweep_value(scn: Scenario, path: str, value: float) -> Scenario:
    """Scenario with one dotted-path parameter replaced (and revalidated)."""
    if "." not in path:
        raise UnknownKey(f"sweep path must be section.key, got {path!r}")
    section, key = path.split(".", 1)
    sections = scenario_to_sections(scn)
    if section not in sections or key not in sections[section]:
        raise UnknownKey(f"sweep path {path!r} does not name a scenario parameter")
    if not isinstance(sections[section][key], (int, float)):
        raise ValidationError(f"sweep path {path!r} is not numeric")
    if isinstance(sections[section][key], int):
        if value != int(value):
            raise ValidationError(f"sweep {path}: expected an integer, got {value!r}")
        value = int(value)
    sections[section][key] = value
    return scenario_from_sections(sections)
