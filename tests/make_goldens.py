"""The one list of goldens under tests/golden/ and what writes each: the
analyze, sweep, simulate and validate output of both reference scenarios,
the CSVs of scripts/figures.py (under figures/), and the simulate rows of
the cases that reach every branch of the Monte-Carlo block. The test
test_golden_is_current in tests/test_cli.py checks every file against
golden_text. Run as a script, it prints old -> new for each field that
changed, one line each, and rewrites the goldens that changed.

    PYTHONPATH=src python tests/make_goldens.py
"""

import contextlib
import csv
import io
import runpy
import tempfile
from dataclasses import replace
from pathlib import Path

from leolink.cli import main
from leolink.pipeline import run_simulate
from leolink.scenario import Scenario, apply_sweep_value, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _commands() -> dict[str, list[str]]:
    """CLI arguments per golden file name."""
    commands = {}
    for scheme in ("rat", "pat"):
        scn = ["--scenario", str(ROOT / "scenarios" / f"reference_{scheme}.scn")]
        name = f"reference_{scheme}"
        commands[f"{name}_analyze.txt"] = ["analyze", *scn]
        commands[f"{name}_sweep_height.csv"] = [
            "sweep", *scn, "--sweep", "geometry.orbit_height=500e3:1100e3:7"]
        commands[f"{name}_sweep_delay.csv"] = [
            "sweep", *scn, "--sweep", "traffic.delay_threshold=0.001:0.3:6"]
        commands[f"{name}_sweep_height_sim.csv"] = [
            "sweep", *scn, "--with-sim", "--sweep", "geometry.orbit_height=500e3:1100e3:3"]
        commands[f"{name}_simulate.csv"] = ["simulate", *scn]
        commands[f"{name}_validate.txt"] = ["validate", *scn]
    return commands


COMMANDS = _commands()

FIGURES_PY = runpy.run_path(str(ROOT / "scripts" / "figures.py"))
# golden name -> the figure of scripts/figures.py that writes it
FIGURE_OF = {f"figures/{fig.csv_name.format(level)}": key
             for key, fig in FIGURES_PY["FIGURES"].items() for level in fig.levels_dbw}


def figure_text(name: str) -> str:
    """One CSV of scripts/figures.py at its defaults."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        FIGURES_PY["main"]([FIGURE_OF[name], "--out-dir", tmp])
        return (Path(tmp) / Path(name).name).read_text(encoding="utf-8")


# The Monte-Carlo branch golden: per case of _cases, which together reach
# every branch of both schemes' blocks, one simulate row at N_SAMPLES
# replications and the scenario's seed.
BLOCK_GOLDEN = "block_branches_simulate.csv"
N_SAMPLES = 20_000
# the line-of-sight copy of a reference: a mean wait of 1.8e26 s, so the
# completion slots of the fixed-power scheme pass 2^63 before they wrap
LOS = (("fading.m", 0.5), ("fading.b0", 1e-3), ("fading.omega", 10.0))
# a terminal 200 km off the track: the edge slots lie beyond the coverage
# radius whose range sets the first threshold, so there the cap refuses
# gains above it
CAP_ABOVE_STATE_1 = (("geometry.terminal_offset", 200e3), ("pat.max_power", 100.0))


def _cases() -> list[tuple[str, str, tuple]]:
    """(name, reference scheme, (sweep path, value) overrides) per case."""
    cases = []
    for scheme in ("rat", "pat"):
        power = "rat.tx_power" if scheme == "rat" else "pat.max_power"
        for ms in (3, 20, 300):
            cases.append((f"{scheme}-budget-{ms}ms", scheme,
                          (("traffic.delay_threshold", ms * 1e-3),)))
        # at 3 ms the drain at each state's lower edge decides the
        # fixed-power outage; the fixed-rate drain alone takes 8.3 ms
        budget = 3e-3 if scheme == "rat" else 20e-3
        for k in (2, 17):
            cases.append((f"{scheme}-states-{k}", scheme,
                          (("partition.n_states", k), ("traffic.delay_threshold", budget))))
        # at 2.5 the reference power leaves a first-threshold mass that
        # underflows; 60 dBW keeps the wait finite
        cases.append((f"{scheme}-path-loss-2.5", scheme,
                      (("geometry.path_loss_exp", 2.5), (power, 1e6),
                       ("traffic.delay_threshold", 20e-3))))
        cases.append((f"{scheme}-slot-0.5s", scheme,
                      (("geometry.slot_len", 0.5), ("traffic.delay_threshold", 20e-3))))
        cases.append((f"{scheme}-los-m0.5", scheme, LOS))
        cases.append((f"{scheme}-integer-values", scheme, (("traffic.delay_threshold", 20e-3),)))
    cases.append(("pat-cap-above-state-1", "pat", CAP_ABOVE_STATE_1))
    return cases


def case_scenario(scheme: str, overrides: tuple, integer_values: bool = False) -> Scenario:
    """The reference scenario of the scheme with the overrides applied, at
    N_SAMPLES replications; integer_values gives the scheme's values as
    Python ints."""
    scn = parse_scenario((ROOT / "scenarios" / f"reference_{scheme}.scn").read_text())
    for path, value in overrides:
        scn = apply_sweep_value(scn, path, value)
    if integer_values:
        config = scn.rat if scheme == "rat" else scn.pat
        names = ("tx_power_w",) if scheme == "rat" else ("max_power_w", "fixed_rate_bps")
        as_int = {f: int(getattr(config, f)) for f in names}
        assert all(v == getattr(config, f) for f, v in as_int.items())
        scn = replace(scn, **{scheme: replace(config, **as_int)})
    return replace(scn, sim=replace(scn.sim, n_samples=N_SAMPLES))


def block_text() -> str:
    """The branch golden: one simulate row per case, led by its name."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, (name, scheme, overrides) in enumerate(_cases()):
        scn = case_scenario(scheme, overrides, name.endswith("-integer-values"))
        header, row = run_simulate(scn)
        if i == 0:
            writer.writerow(["case"] + header)
        writer.writerow([name] + row)
    return buf.getvalue()


GOLDENS = [*COMMANDS, *FIGURE_OF, BLOCK_GOLDEN]


def golden_text(name: str) -> str:
    """The golden file name as the program writes it now."""
    if name == BLOCK_GOLDEN:
        return block_text()
    if name in FIGURE_OF:
        return figure_text(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[name])
    if code != 0:
        raise SystemExit(f"{name}: leolink {' '.join(COMMANDS[name])} exited {code}")
    return out.getvalue()


def fields(name: str, text: str) -> dict[str, str]:
    """A golden's values by field: a CSV's cells by row and column, an
    analyze line by its key, and a validate row by its check name."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        cells = {f"row {i} {column}": value
                 for i, row in enumerate(rows, 1) for column, value in zip(header, row)}
        return {"header": ",".join(header), **cells}
    out = {}
    for line in text.splitlines():
        status, _, row = line.partition(" ")
        if status in ("PASS", "FAIL"):
            out[row.partition(":")[0]] = line
        else:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def changes(name: str, old: str, new: str) -> list[str]:
    """'name field: old -> new' for each field that differs; a field only
    one side holds reads '(none)' on the other."""
    before, after = fields(name, old), fields(name, new)
    return [f"{name} {key}: {before.get(key, '(none)')} -> {after.get(key, '(none)')}"
            for key in dict.fromkeys([*before, *after])
            if before.get(key) != after.get(key)]


def regenerate() -> list[str]:
    """Rewrite every golden that changed; returns the changed fields."""
    lines = []
    for name in GOLDENS:
        path = GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = golden_text(name)
        if new != old:
            lines += changes(name, old, new) if old else [f"{name}: new file"]
            path.parent.mkdir(exist_ok=True)
            path.write_text(new, encoding="utf-8")
    return lines


if __name__ == "__main__":
    changed = regenerate()
    print("\n".join(changed) if changed else "no golden changed")
