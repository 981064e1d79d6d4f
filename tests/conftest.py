from pathlib import Path

import numpy as np
import pytest

from leolink import channel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_APPROX_ABS = 1e-12  # pytest.approx's default absolute tolerance
_approx = pytest.approx


def _guarded_approx(expected, rel=None, abs=None, nan_ok=False):
    """pytest.approx, refusing a nonzero expected value below its default
    absolute tolerance unless abs= is given: against that tolerance any
    actual value near such an expected one passes, 0 included."""
    if abs is None:
        values = list(expected.values()) if isinstance(expected, dict) else expected
        try:
            mags = np.abs(np.asarray(values, dtype=float))
        except (TypeError, ValueError):  # not numbers: approx judges them itself
            mags = np.zeros(0)
        tiny = mags[(mags > 0.0) & (mags < _APPROX_ABS)]
        if tiny.size:
            raise ValueError(
                f"pytest.approx of {tiny[0].item()!r} needs abs=: below its default absolute "
                f"tolerance of {_APPROX_ABS}, any value near it passes")
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


# conftest is imported before any test module, so every pytest.approx in the
# suite is the guarded one
pytest.approx = _guarded_approx


@pytest.fixture(scope="session")
def rat_scenario_text() -> str:
    return (SCENARIO_DIR / "reference_rat.scn").read_text()


@pytest.fixture(scope="session")
def pat_scenario_text() -> str:
    return (SCENARIO_DIR / "reference_pat.scn").read_text()


@pytest.fixture
def cold_store():
    """Empties the running thread's store of series (channel._stored) now
    and on each call, so that the next call forms its series afresh."""
    def clear():
        vars(channel._STORE).clear()

    clear()
    return clear
