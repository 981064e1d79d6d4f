"""The paper's figures, one CSV per power level:

  height      RAT throughput and energy-efficiency bounds versus orbit height
  budget-rat  delay outage rate versus the delay budget, rate-adaptive
  budget-pat  the same, power-adaptive
  fixed-rate  PAT throughput and energy efficiency versus the fixed data rate
"""

import argparse
import csv
from pathlib import Path
from typing import NamedTuple

from leolink.pipeline import run_sweep
from leolink.scenario import SweepSpec, apply_sweep_value, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class Figure(NamedTuple):
    scenario: str  # file under scenarios/
    level_key: str  # rat.tx_power or pat.max_power
    levels_dbw: tuple[float, ...]
    sweep: SweepSpec
    csv_name: str  # formatted with the level in dBW


# Both knees lie within 20 ms: at 30 dBW the RAT reference's mean rate bounds,
# 191-221 Mbit/s, drain a 500 kbit packet in 2.3-2.6 ms, and PAT's fixed rate
# in packet_bits / fixed_rate (8.33 ms here)
BUDGET = SweepSpec("traffic.delay_threshold", tuple(20e-3 * i / 14.0 for i in range(15)))

FIGURES = {
    "height": Figure(
        "reference_rat.scn", "rat.tx_power", (30.0, 36.0, 42.0),
        SweepSpec("geometry.orbit_height", tuple(500e3 + 100e3 * i for i in range(7))),
        "throughput_vs_height_pt{:g}dbw.csv"),
    "budget-rat": Figure("reference_rat.scn", "rat.tx_power", (30.0, 40.0), BUDGET,
                         "dor_vs_budget_rat_{:g}dbw.csv"),
    "budget-pat": Figure("reference_pat.scn", "pat.max_power", (30.0, 40.0), BUDGET,
                         "dor_vs_budget_pat_{:g}dbw.csv"),
    # 480 Mbit/s is the highest rate every cap can still resolve; beyond it
    # the 27 dBW partition has no representable mass above the first
    # threshold and the sweep point fails (exit 3 via the CLI)
    "fixed-rate": Figure(
        "reference_pat.scn", "pat.max_power", (27.0, 33.0, 39.0),
        SweepSpec("pat.fixed_rate", tuple(60e6 * (i + 1) for i in range(8))),
        "throughput_vs_rate_cap{:g}dbw.csv"),
}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("figures", nargs="*", metavar="FIGURE", help="default: all four")
    ap.add_argument("--with-sim", action="store_true")
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args(argv)
    for name in args.figures:
        if name not in FIGURES:
            ap.error(f"unknown figure {name!r} (choose from {', '.join(FIGURES)})")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for fig in (FIGURES[name] for name in args.figures or FIGURES):
        scn = parse_scenario((SCENARIOS / fig.scenario).read_text())
        for level in fig.levels_dbw:
            point = apply_sweep_value(scn, fig.level_key, 10.0 ** (level / 10.0))
            header, rows = run_sweep(point, fig.sweep, with_sim=args.with_sim)
            out = args.out_dir / fig.csv_name.format(level)
            with out.open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
            print(f"wrote {out}")


if __name__ == "__main__":
    main()
