"""Simulate rows for the cases that reach every branch of the Monte-Carlo
block, written to tests/golden/block_branches_simulate.csv.

Both references at three delay budgets, at two and seventeen states, at a
path-loss exponent of 2.5 and a half-second slot; the fixed-rate scheme
with its cap binding above state 1; the line-of-sight copies whose
completion slots wrap past 2^63; and integer-valued scheme values. Each
row is one 20000-replication simulate pass at the scenario's seed.

    PYTHONPATH=src python tests/make_block_golden.py
"""

import csv
import io
from dataclasses import replace
from pathlib import Path

from leolink.pipeline import run_simulate
from leolink.scenario import Scenario, apply_sweep_value, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "block_branches_simulate.csv"
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
        fields = ("tx_power_w",) if scheme == "rat" else ("max_power_w", "fixed_rate_bps")
        as_int = {f: int(getattr(config, f)) for f in fields}
        assert all(v == getattr(config, f) for f, v in as_int.items())
        scn = replace(scn, **{scheme: replace(config, **as_int)})
    return replace(scn, sim=replace(scn.sim, n_samples=N_SAMPLES))


def block_golden_text() -> str:
    """The golden CSV: one simulate row per case, led by its name."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, (name, scheme, overrides) in enumerate(_cases()):
        scn = case_scenario(scheme, overrides, name.endswith("-integer-values"))
        header, row = run_simulate(scn)
        if i == 0:
            writer.writerow(["case"] + header)
        writer.writerow([name] + row)
    return buf.getvalue()


if __name__ == "__main__":
    GOLDEN.write_text(block_golden_text(), encoding="utf-8")
