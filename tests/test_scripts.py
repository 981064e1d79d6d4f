"""scripts/figures.py: each figure writes one CSV per power level; the
goldens under tests/golden/figures/ hold their bytes (tests/make_goldens.py)."""

import math
import runpy
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "figures"
HEIGHT = ["throughput_vs_height_pt30dbw.csv", "throughput_vs_height_pt36dbw.csv",
          "throughput_vs_height_pt42dbw.csv"]

main = runpy.run_path(str(ROOT / "scripts" / "figures.py"))["main"]


@pytest.mark.parametrize("figure,names", [
    ("height", HEIGHT),
    ("budget-rat", ["dor_vs_budget_rat_30dbw.csv", "dor_vs_budget_rat_40dbw.csv"]),
    ("budget-pat", ["dor_vs_budget_pat_30dbw.csv", "dor_vs_budget_pat_40dbw.csv"]),
    ("fixed-rate", ["throughput_vs_rate_cap27dbw.csv", "throughput_vs_rate_cap33dbw.csv",
                    "throughput_vs_rate_cap39dbw.csv"]),
], ids=["height", "budget-rat", "budget-pat", "fixed-rate"])
def test_script_writes_one_csv_per_power(tmp_path, capsys, figure, names):
    main([figure, "--out-dir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / n}" for n in names]


def test_height_with_sim_appends_the_sim_columns(tmp_path, capsys):
    # the analytic columns are those of the golden, byte for byte
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["height", "--with-sim", "--out-dir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == HEIGHT
    for name in HEIGHT:
        rows = [line.split(b",") for line in (tmp_path / name).read_bytes().splitlines()]
        golden = (GOLDEN_DIR / name).read_bytes().splitlines()
        assert [b",".join(row[:6]) for row in rows] == golden
        assert rows[0][6:] == [b"sim_rate_bps", b"sim_rate_se", b"sim_dor", b"sim_dor_se"]
        assert {len(row) for row in rows} == {10}
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[6:])


def test_unknown_figure_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "budget", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: unknown figure 'budget' (choose from height, budget-rat, budget-pat, fixed-rate)")
    assert not any(tmp_path.iterdir())
