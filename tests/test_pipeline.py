"""The partition solve behind prepare() and run_sweep: what it evaluates,
and that the values it shares are the public functions' own."""

import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leolink import channel, pipeline
from leolink.channel import SrFading, afd, state_probs, tail_mean_gain
from leolink.scenario import parse_scenario, parse_sweep

from fading_sets import ABDI_SETS, LOS_SETS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCES = ["reference_rat.scn", "reference_pat.scn"]


def reference(name: str):
    return parse_scenario((SCENARIO_DIR / name).read_text())


class TestCallBudget:
    """A solve evaluates each series at each gain once outside its root
    finder: the tail at the first thresholds, the bracket ends hi and 2 hi,
    the tail at the other thresholds, the two series of the top mean gain,
    and the CDF at the first thresholds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # (inside the root finder, series, gains) of each _poisson_sum call
        calls, inside = [], []
        poisson_sum, find_root = channel._poisson_sum, channel._find_root

        def counted_sum(y, log_coef, window):
            fn = getattr(log_coef, "log_coef", log_coef)  # a kept series wraps it
            series = (fn.__qualname__, inspect.getclosurevars(fn).nonlocals.get("s"))
            calls.append((bool(inside), series, y.tolist()))
            return poisson_sum(y, log_coef, window)

        def counted_root(*args):
            inside.append(True)
            try:
                return find_root(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(channel, "_poisson_sum", counted_sum)
        monkeypatch.setattr(channel, "_find_root", counted_root)
        return calls

    @staticmethod
    def check_outside_root(calls):
        outside = [(series, ys) for inside, series, ys in calls if not inside]
        tail, cdf = "_upper_sum.<locals>.log_survival", "sr_cdf.<locals>.log_below"
        assert [series for series, _ in outside] == [
            (tail, 0), (tail, 0), (tail, 0), (tail, 1), (tail, 2), (cdf, None)]
        # the bracket's entries of one partition share its ends within one
        # call; no (series, gain) is evaluated by two calls
        pairs = [(series, y) for series, ys in outside for y in set(ys)]
        assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("name", REFERENCES)
    def test_prepare(self, calls, name):
        pipeline.prepare(reference(name))
        assert len(calls) == 16
        self.check_outside_root(calls)

    @pytest.mark.parametrize("name", REFERENCES)
    def test_height_sweep(self, calls, name):
        pipeline.run_sweep(reference(name), parse_sweep("geometry.orbit_height=500e3:1100e3:4"))
        assert len(calls) == 17
        assert sum(inside for inside, _, _ in calls) == 11
        self.check_outside_root(calls)


SETS = {**ABDI_SETS, "reference": (10.1, 0.126, 0.825), **LOS_SETS}


class TestSharedValues:
    """prepare() takes the state probabilities, the top mean gain and the
    fade duration from values its solve shares; each equals the public
    function's own, bit for bit."""

    @pytest.mark.parametrize("pinned", [False, True], ids=["equal-mass", "pinned"])
    @pytest.mark.parametrize("params", list(SETS.values()), ids=list(SETS))
    def test_equal_public_functions(self, params, pinned):
        scn = replace(reference("reference_rat.scn"), fading=SrFading(*params))
        first = pipeline.prepare(scn).first_threshold
        if pinned:
            uppers = first * np.linspace(1.1, 1.6, scn.n_states - 2)
            scn = replace(scn, upper_thresholds=tuple(uppers.tolist()))
        parts = pipeline.prepare(scn)
        part = parts.partition
        if pinned:
            assert part.thresholds[2:].tolist() == list(scn.upper_thresholds)
        assert parts.probs.probs[:, 0].tolist() == state_probs(scn.fading, part).tolist()
        assert part.top_mean_gain == tail_mean_gain(scn.fading, part.thresholds[-1] ** 2)
        # the crossing-rate series runs at this first threshold on every set
        # (on line-of-sight sets it underflows to 0 there, and lambda is inf)
        assert parts.lam_s == afd(scn.fading, scn.doppler, parts.first_threshold)
