"""Each thread's store of series (channel._stored): what it keeps moves no
output, on any thread."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from leolink import channel, pipeline
from leolink.channel import SrFading, partitions, sr_cdf, state_probs, tail_mass
from leolink.scenario import parse_scenario, parse_sweep

from fading_sets import ABDI_SETS, LOS_SETS

# Every set of fading_sets.py, and the reference scenarios' own.
STORE_SETS = {**ABDI_SETS, "reference": (10.1, 0.126, 0.825), **LOS_SETS}


def solved(fading, firsts):
    """The partitions above firsts and their state probabilities, as lists."""
    parts, pi = partitions(fading, np.asarray(firsts), 8, None)
    return [(p.thresholds.tolist(), p.top_mean_gain) for p in parts], pi.tolist()


def calls(fading):
    """Calls of every public route through the series, each returning its
    result as lists: partitions at several first thresholds, together and
    alone, and sr_cdf, tail_mass and state_probs on a grid of gains."""
    root = math.sqrt(fading.mean_gain)
    firsts = [0.3 * root, 0.6 * root, 0.9 * root]
    grid = fading.mean_gain * np.array([0.0, 1e-6, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf])
    part = partitions(fading, np.array([0.75 * root]), 8, None)[0][0]
    return [
        lambda: solved(fading, firsts),
        *(lambda first=first: solved(fading, [first]) for first in firsts),
        lambda: sr_cdf(fading, grid).tolist(),
        lambda: tail_mass(fading, grid).tolist(),
        lambda: state_probs(fading, part).tolist(),
    ]


@pytest.mark.parametrize("params", list(STORE_SETS.values()), ids=list(STORE_SETS))
def test_warm_store_changes_no_bit(params, cold_store):
    # one partition fills the store; every call after it, which reads the
    # kept coefficients and rows, equals the same call on a cold store
    fading = SrFading(*params)
    todo = calls(fading)
    cold = []
    for call in todo:
        cold_store()
        cold.append(call())
    cold_store()
    solved(fading, [0.45 * math.sqrt(fading.mean_gain)])
    assert all(s.rows for s in channel._STORE.series.values())
    assert [call() for call in todo] == cold


def test_sweep_after_the_other_scheme_changes_no_bit(cold_store, rat_scenario_text,
                                                     pat_scenario_text):
    # both references share one fading: a PAT sweep after a RAT sweep reads
    # the RAT sweep's series, and gives the rows of the PAT sweep alone
    rat, pat = parse_scenario(rat_scenario_text), parse_scenario(pat_scenario_text)
    assert rat.fading == pat.fading
    sweep = parse_sweep("geometry.orbit_height=500e3:1100e3:4")
    alone = pipeline.run_sweep(pat, sweep)
    cold_store()
    pipeline.run_sweep(rat, sweep)
    assert channel._STORE.series
    assert pipeline.run_sweep(pat, sweep) == alone


def test_threads_alternating_fadings_change_no_bit(cold_store):
    # more threads than cores, each asking for two fadings in turn, twice
    # each, with the interpreter switching threads as often as it can:
    # every result equals its serial bits; after each call a thread keeps
    # the series of that call's fading alone, and a call of the fading
    # before keeps the very series that call kept, whatever other threads
    # asked for in between
    fadings = [SrFading(*STORE_SETS["reference"]), SrFading(*ABDI_SETS["average"])]

    def work(fading):
        root = math.sqrt(fading.mean_gain)
        grid = fading.mean_gain * np.array([0.05, 0.5, 1.0, 3.0])
        return (solved(fading, [0.4 * root, 0.7 * root]), sr_cdf(fading, grid).tolist(),
                tail_mass(fading, grid).tolist())

    serial = []
    for fading in fadings:
        cold_store()
        serial.append(work(fading))
    n_threads = (os.cpu_count() or 1) + 2
    rounds = 3
    results = [[] for _ in range(n_threads)]
    stray, lost = [], []
    start = threading.Barrier(n_threads, timeout=60)

    def worker(k):
        start.wait()
        before = {}
        for i in range(2 * rounds):
            j = (i // 2 + k) % 2
            results[k].append((j, work(fadings[j])))
            held = dict(channel._STORE.series)
            if channel._STORE.fading != fadings[j] or any(f != fadings[j] for _, f, *_ in held):
                stray.append((k, i))
            if i % 2 and held != before:
                lost.append((k, i))
            before = held

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert stray == [] and lost == []
    assert all(len(r) == 2 * rounds for r in results)
    assert all(got == serial[j] for r in results for j, got in r)
