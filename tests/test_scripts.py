"""Smoke tests of the experiment scripts: each main() writes its CSVs."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

COLUMNS = ["throughput_lo_bps", "throughput_hi_bps", "ee_lo_bpj", "ee_hi_bpj", "dor"]


@pytest.mark.parametrize("script,args,names,first_column", [
    ("sweep_height.py", [],
     ["throughput_vs_height_pt30dbw.csv", "throughput_vs_height_pt36dbw.csv",
      "throughput_vs_height_pt42dbw.csv"], "h_m"),
    ("sweep_delay_budget.py", ["--scheme", "rat"],
     ["dor_vs_budget_rat_30dbw.csv", "dor_vs_budget_rat_40dbw.csv"], "tth_s"),
    ("sweep_delay_budget.py", ["--scheme", "pat"],
     ["dor_vs_budget_pat_30dbw.csv", "dor_vs_budget_pat_40dbw.csv"], "tth_s"),
    ("sweep_fixed_rate.py", [],
     ["throughput_vs_rate_cap27dbw.csv", "throughput_vs_rate_cap33dbw.csv",
      "throughput_vs_rate_cap39dbw.csv"], "rfix_bps"),
], ids=["height", "budget-rat", "budget-pat", "fixed-rate"])
def test_script_writes_one_csv_per_power(tmp_path, monkeypatch, capsys, script, args,
                                         names, first_column):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, "--out-dir", str(tmp_path), *args])
    main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        with (tmp_path / name).open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [first_column, *COLUMNS]
        assert len(rows) > 1
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / n}" for n in names]
