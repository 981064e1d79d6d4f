"""scripts/figures.py: each figure writes its CSVs, byte for byte as the
goldens under tests/golden/figures/ (regenerated by tests/make_goldens.py)."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "figures"

main = runpy.run_path(str(ROOT / "scripts" / "figures.py"))["main"]


@pytest.mark.parametrize("figure,names", [
    ("height", ["throughput_vs_height_pt30dbw.csv", "throughput_vs_height_pt36dbw.csv",
                "throughput_vs_height_pt42dbw.csv"]),
    ("budget-rat", ["dor_vs_budget_rat_30dbw.csv", "dor_vs_budget_rat_40dbw.csv"]),
    ("budget-pat", ["dor_vs_budget_pat_30dbw.csv", "dor_vs_budget_pat_40dbw.csv"]),
    ("fixed-rate", ["throughput_vs_rate_cap27dbw.csv", "throughput_vs_rate_cap33dbw.csv",
                    "throughput_vs_rate_cap39dbw.csv"]),
], ids=["height", "budget-rat", "budget-pat", "fixed-rate"])
def test_script_writes_one_csv_per_power(tmp_path, capsys, figure, names):
    main([figure, "--out-dir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / n}" for n in names]


def test_unknown_figure_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "budget", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: unknown figure 'budget' (choose from height, budget-rat, budget-pat, fixed-rate)")
    assert not any(tmp_path.iterdir())
