"""The partition solve behind prepare() and run_sweep: what it evaluates,
and that the values it shares are the public functions' own."""

import logging
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leolink import channel, pipeline, schemes
from leolink.channel import SrFading, afd, partitions, sr_cdf, state_probs
from leolink.scenario import apply_sweep_value, parse_scenario, parse_sweep

from fading_sets import ABDI_SETS, LOS_SETS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCES = ["reference_rat.scn", "reference_pat.scn"]


def reference(name: str):
    return parse_scenario((SCENARIO_DIR / name).read_text())


class TestCallBudget:
    """A solve makes one series pass before its Newton solve, one for each
    step and one after. The pass before holds the tail at the first
    thresholds and at three more knots each, the density at the four
    knots, and the CDF at the first thresholds; each step, the tail and
    the density at the same gains; the pass after, the tail at the other
    thresholds and the two series of the top mean gain. Outside the steps,
    each series is evaluated at each gain once."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # [(series, gains) of each term] of each pass; a series is
        # ("tail", s), ("cdf", None) or ("density", None)
        passes = []
        poisson_sum = channel._poisson_sum

        def name(series):
            kind = series.key[0]
            return kind, series.key[2] if kind == "tail" else None

        def counted_sum(*terms):
            passes.append([(name(series), y.tolist()) for series, y in terms])
            return poisson_sum(*terms)

        monkeypatch.setattr(channel, "_poisson_sum", counted_sum)
        return passes

    @staticmethod
    def steps(passes):
        """The passes of the Newton solve's steps: those holding the
        density and not the CDF."""
        return [terms for terms in passes
                if ("density", None) in dict(terms) and ("cdf", None) not in dict(terms)]

    @classmethod
    def check_passes(cls, passes):
        tail, cdf, top1, top2 = ("tail", 0), ("cdf", None), ("tail", 1), ("tail", 2)
        density = ("density", None)
        steps = cls.steps(passes)
        outside = [terms for terms in passes if terms not in steps]
        assert [[series for series, _ in terms] for terms in outside] == [
            [tail, tail, density, cdf], [tail, top1, top2]]
        # the knots of one partition share no gain within one pass; no
        # (series, gain) is evaluated by two passes
        pairs = [(series, y) for terms in outside for series, ys in terms for y in set(ys)]
        assert len(pairs) == len(set(pairs))
        # four knots a partition: the first threshold and three more
        (_, firsts), (_, knots), (_, at_knots), _ = outside[0]
        assert len(knots) == 3 * len(firsts) and len(at_knots) == 4 * len(firsts)
        assert sorted(firsts + knots) == sorted(at_knots)
        # each step is one pass of the tail and the density at the same gains
        for terms in steps:
            assert [series for series, _ in terms] == [tail, density]
            assert terms[0][1] == terms[1][1]

    @pytest.mark.parametrize("name", REFERENCES)
    def test_prepare(self, passes, name):
        pipeline.prepare(reference(name))
        assert len(passes) <= 4
        assert len(self.steps(passes)) <= 2
        self.check_passes(passes)

    @pytest.mark.parametrize("name", REFERENCES)
    def test_height_sweep(self, passes, name):
        pipeline.run_sweep(reference(name), parse_sweep("geometry.orbit_height=500e3:1100e3:4"))
        assert len(passes) <= 4
        assert len(self.steps(passes)) <= 2
        self.check_passes(passes)

    @pytest.mark.parametrize("name", REFERENCES)
    def test_first_threshold_solved_once(self, passes, name):
        # the Doppler spectrum moves no first threshold: the 40 points share
        # one, and the solve takes its 4 knots and 6 equal-mass thresholds
        # once
        scn = reference(name)
        sweep = parse_sweep("fading.aoa_width=1:30:40")
        _, rows = pipeline.run_sweep(scn, sweep)
        self.check_passes(passes)
        assert [len(ys) for _, ys in passes[0]] == [1, 3, 4, 1]
        assert max(len(ys) for terms in self.steps(passes) for _, ys in terms) == 6
        # each row is byte-identical to the point analyzed on its own
        for value, row in zip(sweep.values, rows):
            report = pipeline.run_analyze(apply_sweep_value(scn, sweep.path, value))
            assert row[1:] == [repr(float(getattr(report, c)))
                               for c in pipeline.SWEEP_CSV_COLUMNS]


SETS = {**ABDI_SETS, "reference": (10.1, 0.126, 0.825), **LOS_SETS}


class TestSharedValues:
    """prepare() takes the state probabilities, the top mean gain and the
    fade duration from values its solve shares; each equals the value of
    its own public call, bit for bit: state_probs of the partition, the top
    mean gain of a two-state partition pinned at the top threshold, and
    afd with the mass from sr_cdf."""

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
        (top,), _ = partitions(scn.fading, part.thresholds[-1:], 2, [])
        assert part.top_mean_gain == top.top_mean_gain
        # the crossing-rate series runs at this first threshold on every set
        # (on line-of-sight sets it underflows to 0 there, and lambda is inf)
        first = np.array([parts.first_threshold])
        assert parts.lam_s == afd(scn.fading, scn.doppler, first,
                                  sr_cdf(scn.fading, first * first))[0]


def test_line_of_sight_validate_warns_nothing():
    # the mean wait is about 1.8e26 s on this line-of-sight copy of the RAT
    # reference: completion slots pass 2^63 before they wrap onto the pass
    scn = replace(reference("reference_rat.scn"), fading=SrFading(0.5, 1e-3, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = pipeline.run_validate(scn)
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("name, budget", [("reference_rat.scn", 0.02),
                                          ("reference_pat.scn", None)])
def test_dor_integral_row_fails_without_the_wait_term(monkeypatch, name, budget):
    # at these budgets 0 < DOR < 1, and state 1's wait sets all of it: a
    # closed form that drops state 1 from its masses must fail the row
    scn = reference(name)
    if budget is not None:
        scn = apply_sweep_value(scn, "traffic.delay_threshold", budget)
    scn = replace(scn, sim=replace(scn.sim, n_samples=1000))
    assert 0.0 < pipeline.run_analyze(scn).dor < 1.0
    dor = schemes._dor

    def no_wait(pts, rates, every, *rest):
        every = every.copy()
        every[:, 0] = 0.0
        return dor(pts, rates, every, *rest)

    for mutant, passed in ((dor, True), (no_wait, False)):
        monkeypatch.setattr(schemes, "_dor", mutant)
        (row,) = [c for c in pipeline.run_validate(scn) if c.name == "dor_integral"]
        assert row.passed is passed, row.detail


def test_infinite_wait_warning_names_an_underflowed_mass(caplog):
    # a mass of 0 below the first threshold, not the crossing rate, left
    # lambda infinite (the CLI tests cover a positive mass)
    scn = reference("reference_rat.scn")
    solved = pipeline._solve([scn])[0]
    pi = np.zeros_like(solved.pi)
    pi[1] = 1.0
    solved = replace(solved, pi=pi, lam_s=math.inf)
    with caplog.at_level(logging.WARNING, logger="leolink"):
        pipeline._check_wait(solved, False)
    (record,) = caplog.records
    assert record.getMessage().endswith("; mass below it 0.0, so the mass underflowed")


def test_seed_is_refused_before_the_partition_solve(monkeypatch):
    # a negative seed, or a sweep's seed without simulation columns
    def unreached(*args):
        raise AssertionError("the partition solve ran")

    monkeypatch.setattr(channel, "partitions", unreached)
    scn, sweep = reference("reference_rat.scn"), parse_sweep("geometry.orbit_height=5e5,6e5")
    # the messages are pinned by rows of tests/refusals.py
    for run in (lambda: pipeline.run_simulate(scn, seed=-1),
                lambda: pipeline.run_validate(scn, seed=-1),
                lambda: pipeline.run_sweep(scn, sweep, with_sim=True, seed=-3),
                lambda: pipeline.run_sweep(scn, sweep, seed=3)):
        with pytest.raises(ValueError, match="^seed "):
            run()
