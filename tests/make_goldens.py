"""Every golden under tests/golden/, regenerated from the commands that
tests/test_cli.py runs, the CSVs of scripts/figures.py (under figures/)
and the Monte-Carlo branch golden of tests/make_block_golden.py. Prints
old -> new for each field that changed, one line each, and rewrites the
goldens that changed.

    PYTHONPATH=src python tests/make_goldens.py
"""

import contextlib
import csv
import functools
import io
import runpy
import tempfile
from pathlib import Path

from leolink.cli import main

from make_block_golden import GOLDEN as BLOCK_GOLDEN, block_golden_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _commands() -> dict[str, list[str]]:
    """CLI arguments per golden file name, as tests/test_cli.py passes them."""
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
FIGURE_GOLDENS = [f"figures/{fig.csv_name.format(level)}"
                  for fig in FIGURES_PY["FIGURES"].values() for level in fig.levels_dbw]


@functools.cache
def figure_texts() -> dict[str, str]:
    """Every CSV of scripts/figures.py at its defaults, by golden name."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        FIGURES_PY["main"](["--out-dir", tmp])
        return {f"figures/{p.name}": p.read_text(encoding="utf-8") for p in Path(tmp).iterdir()}


def golden_text(name: str) -> str:
    """The golden file name as the program writes it now."""
    if name == BLOCK_GOLDEN.name:
        return block_golden_text()
    if name in FIGURE_GOLDENS:
        return figure_texts()[name]
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
    for name in [*COMMANDS, *FIGURE_GOLDENS, BLOCK_GOLDEN.name]:
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
