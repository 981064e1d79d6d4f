"""Scenario-level pipelines: analytic reports, parameter sweeps with
optional simulation columns, simulation runs, and the oracle cross-check
suite behind the `validate` subcommand.
"""

import concurrent.futures
import functools
import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel, montecarlo, schemes
from .channel import GainPartition, StateProbMatrix
from .geometry import PassTimeline, build_timeline, build_timelines, distance_range
from .montecarlo import KS_CRIT_ALPHA01, ks_statistic, sample_sr_gain
from .scenario import Scenario, SweepSpec, apply_sweep_value
from .schemes import SchemeReport

__all__ = [
    "ScenarioParts",
    "prepare",
    "run_analyze",
    "report_lines",
    "SWEEP_CSV_COLUMNS",
    "sweep_column_name",
    "run_sweep",
    "run_simulate",
    "SIMULATE_CSV_HEADER",
    "run_validate",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioParts:
    """Derived objects shared by every pipeline for one scenario."""

    timeline: PassTimeline
    d_max_m: float
    first_threshold: float
    partition: GainPartition
    probs: StateProbMatrix
    lam_s: float


def prepare(scn: Scenario, finite_wait: bool = False) -> ScenarioParts:
    """Timeline, partition, state probabilities, and waiting-time mean.

    When the crossing rate or the mass below the first threshold underflows
    double precision, afd returns an infinite waiting-time mean; the closed
    forms are evaluated in that exact infinite-wait limit (lam_s = inf),
    and a warning naming the first threshold is logged. With finite_wait,
    as for the simulation entry points, that limit raises ZeroCrossingRate
    instead of being sampled. This is a sweep's route with one point.
    """
    timeline = build_timeline(scn.geometry, scn.slot_len_s)
    solved = _solve([scn])[0]
    _check_wait(solved, finite_wait)
    return _parts(timeline, solved)


@dataclass(frozen=True)
class _Solved:
    """What prepare() solves for a scenario, apart from its timeline."""

    d_max_m: float
    first_threshold: float
    partition: GainPartition
    pi: np.ndarray
    lam_s: float


def _solve(scns: list[Scenario]) -> list[_Solved]:
    """_Solved of each scenario, each equal to that of the scenario alone.

    Scenarios with equal fading, state count and pinned thresholds share
    one partition solve, which solves each distinct first threshold once.
    It gives the state probabilities, whose first, the CDF at the first
    threshold, is also the mass of the fade duration. Those with equal
    fading and Doppler spectrum share one fade-duration call.
    """
    d_max = [distance_range(s.geometry)[1] for s in scns]
    firsts = [schemes.first_threshold(s.budget, getattr(s, s.scheme), d)
              for s, d in zip(scns, d_max)]
    first = np.array(firsts)
    partitions, pi, lams = [None] * len(scns), [None] * len(scns), [None] * len(scns)
    for fading, idx in _groups(scns, range(len(scns)), lambda s: s.fading).items():
        for (n_states, uppers), sub in _groups(
                scns, idx, lambda s: (s.n_states, s.upper_thresholds)).items():
            distinct = list(dict.fromkeys(firsts[i] for i in sub))
            parts, probs = channel.partitions(fading, np.array(distinct), n_states, uppers)
            solved = dict(zip(distinct, zip(parts, probs)))
            for i in sub:
                partitions[i], pi[i] = solved[firsts[i]]
        for dop, sub in _groups(scns, idx, lambda s: s.doppler).items():
            lam = channel.afd(fading, dop, first[sub], np.array([pi[i][0] for i in sub]))
            for i, lam_s in zip(sub, lam.tolist()):
                lams[i] = lam_s
    return [_Solved(*fields) for fields in zip(d_max, firsts, partitions, pi, lams)]


def _groups(scns: list[Scenario], idx, key) -> dict[object, list[int]]:
    """The indices idx of scns, grouped by key of their scenario."""
    groups: dict[object, list[int]] = {}
    for i in idx:
        groups.setdefault(key(scns[i]), []).append(i)
    return groups


def _check_wait(solved: _Solved, finite_wait: bool) -> None:
    """Raises ZeroCrossingRate, with finite_wait, or logs a warning where
    the waiting-time mean is infinite."""
    if finite_wait:
        _require_finite_wait(solved.lam_s)
    elif math.isinf(solved.lam_s):
        mass = float(solved.pi[0])
        log.warning("lambda taken as infinite at first threshold %r: the fade "
                    "duration there is undefined or beyond double precision; "
                    "mass below it %r, so %s", solved.first_threshold, mass,
                    "the mass underflowed" if mass == 0.0 else
                    "the crossing rate underflowed, or mass / rate overflowed")


def _parts(timeline: PassTimeline, solved: _Solved) -> ScenarioParts:
    return ScenarioParts(
        timeline=timeline,
        d_max_m=solved.d_max_m,
        first_threshold=solved.first_threshold,
        partition=solved.partition,
        probs=StateProbMatrix.constant(solved.pi, timeline.n_slots),
        lam_s=solved.lam_s,
    )


def run_analyze(scn: Scenario, parts: ScenarioParts | None = None) -> SchemeReport:
    """Closed-form report for the scenario's scheme: the P = 1 case of a
    sweep's reports (_sweep)."""
    p = parts or prepare(scn)
    return schemes.report(scn.budget, getattr(scn, scn.scheme), p.partition, p.timeline,
                          p.probs.probs[:, 0], scn.traffic, p.lam_s)


def _sweep(points: list[Scenario], distinct: list[Scenario], which: list[int]
           ) -> tuple[list[PassTimeline], list[_Solved], list[SchemeReport]]:
    """The timelines and solves of a sweep's keys, and its points' reports,
    all formed together.

    prepare() reads neither the traffic nor the sim section, so points
    equal apart from those share a key: point i has key which[i], and
    distinct holds a point of each key. Each key has its timeline
    (geometry.build_timelines) and its _Solved (_solve), and the points'
    reports come from one schemes._reports call, with their keys'
    timelines and solves: no swept key changes the scheme. Each report,
    solve and timeline equals its point's alone, bit for bit. Raises the
    first error of any step; no warning is logged here.
    """
    timelines = build_timelines([key.geometry for key in distinct],
                                [key.slot_len_s for key in distinct])
    solved = _solve(distinct)
    own = [solved[j] for j in which]
    reports = schemes._reports(schemes._Points.of(
        [point.budget for point in points], [getattr(point, point.scheme) for point in points],
        [s.partition for s in own], [timelines[j] for j in which], [s.pi for s in own],
        [point.traffic for point in points], [s.lam_s for s in own]))
    return timelines, solved, reports


def _fmt(x) -> str:
    return repr(float(x))


def _require_finite_wait(lam_s: float) -> None:
    if not math.isfinite(lam_s):
        raise channel.ZeroCrossingRate(
            "waiting-time mean overflowed double precision; simulation is "
            "unavailable for this configuration"
        )


def report_lines(scn: Scenario, report: SchemeReport) -> list[str]:
    """Stable key = value rendering of a report (the `analyze` output)."""
    return [
        f"scheme = {scn.scheme}",
        f"throughput_lo_bps = {_fmt(report.throughput_lo_bps)}",
        f"throughput_hi_bps = {_fmt(report.throughput_hi_bps)}",
        f"avg_power_lo_w = {_fmt(report.avg_power_lo_w)}",
        f"avg_power_hi_w = {_fmt(report.avg_power_hi_w)}",
        f"ee_lo_bpj = {_fmt(report.ee_lo_bpj)}",
        f"ee_hi_bpj = {_fmt(report.ee_hi_bpj)}",
        f"dor = {_fmt(report.dor)}",
        f"lambda_s = {_fmt(report.lam_s)}",
    ]


SWEEP_CSV_COLUMNS = [
    "throughput_lo_bps",
    "throughput_hi_bps",
    "ee_lo_bpj",
    "ee_hi_bpj",
    "dor",
]

_SIM_COLUMNS = ["sim_rate_bps", "sim_rate_se", "sim_dor", "sim_dor_se"]

# Stable first-column names for commonly swept parameters.
_SWEEP_COLUMN_NAMES = {
    "geometry.orbit_height": "h_m",
    "rat.tx_power": "pt_w",
    "rat.min_snr": "gamma_min",
    "pat.max_power": "pmax_w",
    "pat.fixed_rate": "rfix_bps",
    "traffic.delay_threshold": "tth_s",
    "traffic.packet_bits": "d_bits",
    "link.bandwidth": "b_hz",
}


def sweep_column_name(path: str) -> str:
    return _SWEEP_COLUMN_NAMES.get(path, path.replace(".", "_"))


# The fields of a scenario that prepare() reads: all but traffic and sim.
_PREPARED_FIELDS = tuple(f.name for f in fields(Scenario) if f.name not in ("traffic", "sim"))


def run_sweep(
    scn: Scenario,
    sweep: SweepSpec,
    with_sim: bool = False,
    seed: int | None = None,
) -> tuple[list[str], list[list[str]]]:
    """One CSV row per sweep value, in input order.

    Simulation columns (when requested) use the point's replication count,
    and point i is seeded with i plus its own sim.seed (or plus seed, when
    given), so a swept sim.seed takes effect.
    The points' reports are formed together (_sweep), and each row equals
    its point run alone. Each key's wait check runs once, in key order,
    before the first row; the loop over the points then formats each row
    and, with simulation columns, simulates the point from parts built out
    of the sweep's own values when its row comes up. If the reports fail,
    the distinct points are prepared and analyzed alone, in order, so the
    sweep stops at its first failing point with that point's own error and
    the warnings of the points before it.
    """
    header = [sweep_column_name(sweep.path)] + list(SWEEP_CSV_COLUMNS)
    if with_sim:
        header += _SIM_COLUMNS
    points = [apply_sweep_value(scn, sweep.path, value) for value in sweep.values]
    # point i has key which[i]; each key's first point stands for it
    index: dict[tuple, int] = {}
    distinct, which = [], []
    for point in points:
        j = index.setdefault(tuple(getattr(point, f) for f in _PREPARED_FIELDS), len(index))
        if j == len(distinct):
            distinct.append(point)
        which.append(j)
    try:
        timelines, solved, reports = _sweep(points, distinct, which)
    except (ArithmeticError, ValueError):
        for point in distinct:
            run_analyze(point, prepare(point, with_sim))
        raise
    for s in solved:
        _check_wait(s, with_sim)
    # Points that share a key repeat most columns; equal cells share one
    # string, so a long budget sweep keeps a fraction of the text.
    cells: dict[str, str] = {}
    rows = []
    for i, (value, point, j, report) in enumerate(zip(sweep.values, points, which, reports)):
        row = [
            _fmt(value),
            _fmt(report.throughput_lo_bps),
            _fmt(report.throughput_hi_bps),
            _fmt(report.ee_lo_bpj),
            _fmt(report.ee_hi_bpj),
            _fmt(report.dor),
        ]
        if with_sim:
            base_seed = point.sim.seed if seed is None else seed
            sim = _simulate(point, _parts(timelines[j], solved[j]),
                            replace(point.sim, seed=base_seed + i))
            row += [
                _fmt(sim.mean_rate_bps),
                _fmt(sim.rate_se_bps),
                _fmt(sim.dor),
                _fmt(sim.dor_se),
            ]
        rows.append([cells.setdefault(c, c) for c in row])
    return header, rows


SIMULATE_CSV_HEADER = [
    "sim_rate_bps",
    "sim_rate_se",
    "sim_power_w",
    "sim_power_se",
    "sim_dor",
    "sim_dor_se",
    "n_samples",
    "rng",
]


def _sim_args(scn: Scenario, parts: ScenarioParts, cfg: montecarlo.SimConfig) -> tuple:
    return (scn.geometry, parts.timeline, scn.fading, parts.partition, scn.budget,
            getattr(scn, scn.scheme), scn.traffic, parts.lam_s, cfg)


def _simulate(scn: Scenario, parts: ScenarioParts, cfg: montecarlo.SimConfig):
    return montecarlo.simulate(*_sim_args(scn, parts, cfg))


def run_simulate(scn: Scenario, seed: int | None = None) -> tuple[list[str], list[str]]:
    """Monte-Carlo rate, power and outage estimates for the scenario itself
    (header, one row), all from one simulation pass."""
    parts = prepare(scn, finite_wait=True)
    cfg = scn.sim if seed is None else replace(scn.sim, seed=seed)
    sim = _simulate(scn, parts, cfg)
    row = [
        _fmt(sim.mean_rate_bps),
        _fmt(sim.rate_se_bps),
        _fmt(sim.mean_power_w),
        _fmt(sim.power_se_w),
        _fmt(sim.dor),
        _fmt(sim.dor_se),
        str(cfg.n_samples),
        sim.rng,
    ]
    return SIMULATE_CSV_HEADER, row


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _state_counts(part: GainPartition, sorted_gains: np.ndarray) -> np.ndarray:
    """Samples in each of the K states, from gains sorted ascending.

    Equals np.bincount(part.classify(gains), minlength=K + 1)[1:]: classify
    puts a gain at or above a threshold's square in the state above it, and
    a search from the left counts the gains strictly below each square.
    """
    below = np.searchsorted(sorted_gains, part.thresholds**2, side="left")
    return np.diff(np.append(below, len(sorted_gains)))


def run_validate(scn: Scenario, seed: int | None = None) -> list[CheckResult]:
    """Oracle cross-check suite on one scenario.

    Exercises the density normalization, the two CDF evaluation routes,
    state probabilities against sampled frequencies, the sampler against
    the analytic CDF, the rate, EE and outage closed forms against one
    simulation pass, the outage closed form against its definitional
    complement, the slot mean of 1 - F_DT(T), and a bit-identical repeat
    of the pass's first two blocks.

    The blocks of the simulation pass and then those of the repeat go, in
    block order, to one side worker, while the calling thread runs the
    quadrature and sampler checks; numpy's draws and array operations
    release the interpreter lock, so the two overlap on two cores. Then the
    calling thread finishes the pass with montecarlo's one block runner,
    _finish, running the blocks the worker has not reached from the last
    down, and does the same for the repeat once the rows of the pass are
    formed. At most two threads compute. Every check and block draws from
    its own seeded stream, and block partials reduce in block order, so the
    rows are bit-identical whichever thread ran which block, at any core
    count.
    Errors surface in row order: a quadrature or sampler error first, then
    the first in block order of the simulation pass, then one of the rows
    after it, then the first of the repeat.
    """
    checks: list[CheckResult] = []
    parts = prepare(scn, finite_wait=True)
    report = run_analyze(scn, parts)
    pi = parts.probs.probs[:, 0]
    fading = scn.fading
    base_seed = scn.sim.seed if seed is None else seed
    n_samples = scn.sim.n_samples
    cfg = replace(scn.sim, seed=base_seed + 1)
    # Determinism of the simulation pipeline: rate, power and outage. A
    # pass of two blocks, where the scenario asks for that many, repeats
    # the seeding of the main pass's first two, whose block partials it
    # must reproduce bit for bit.
    short = replace(cfg, n_samples=min(n_samples, 2 * montecarlo._BLOCK))

    side = concurrent.futures.ThreadPoolExecutor(1)
    try:
        sim_blocks = montecarlo._blocks(*_sim_args(scn, parts, cfg))
        repeat_blocks = montecarlo._blocks(*_sim_args(scn, parts, short))
        pending_sim = [side.submit(block) for block in sim_blocks]
        pending_repeat = [side.submit(block) for block in repeat_blocks]

        # Density normalization.
        mass = channel.quadrature(
            functools.partial(channel.sr_pdf, fading),
            [0.0, fading.mean_gain, channel._tail_cutoff(fading)], 1e-12, 1e-12,
        )
        err = abs(mass - 1.0)
        checks.append(CheckResult("pdf_normalization", err < 1e-6, f"|integral-1| = {err:.3e}"))

        # Two independent CDF routes agree.
        grid = np.linspace(0.05, 4.0, 25) * fading.mean_gain
        diff = (1.0 - channel.sr_cdf_quadrature(fading, grid)) - channel.tail_mass(fading, grid)
        worst = float(np.max(np.abs(diff)))
        checks.append(CheckResult("cdf_routes_agree", worst < 1e-8, f"max diff = {worst:.3e}"))

        # State probabilities: normalization and sampled frequencies.
        sum_err = abs(float(pi.sum()) - 1.0)
        checks.append(CheckResult("state_probs_sum", sum_err < 1e-9, f"|sum-1| = {sum_err:.3e}"))

        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(base_seed)))
        gains = sample_sr_gain(fading, rng, n_samples)
        gains.sort()
        freq = _state_counts(parts.partition, gains) / n_samples
        se = np.sqrt(np.maximum(pi * (1.0 - pi), 1e-300) / n_samples)
        worst_z = float(np.max(np.abs(freq - pi) / np.maximum(se, 1e-15)))
        checks.append(CheckResult(
            "state_frequencies", worst_z <= 3.0, f"max |z| = {worst_z:.2f} (limit 3)"
        ))

        # Sampler against the analytic CDF.
        ks = ks_statistic(fading, gains)
        crit = KS_CRIT_ALPHA01 / math.sqrt(len(gains))
        checks.append(CheckResult(
            "sampler_ks", ks < crit, f"D = {ks:.5f}, crit(1%) = {crit:.5f}"
        ))

        # Closed forms against simulation, from one pass.
        partials = montecarlo._finish(sim_blocks, pending_sim)
        sim = montecarlo._reduce(partials, n_samples)
        slack = 3.0 * sim.rate_se_bps
        in_rate = (report.throughput_lo_bps - slack <= sim.mean_rate_bps
                   <= report.throughput_hi_bps + slack)
        checks.append(CheckResult(
            "rate_bracket", in_rate,
            f"sim {sim.mean_rate_bps:.6g} vs [{report.throughput_lo_bps:.6g}, "
            f"{report.throughput_hi_bps:.6g}] (3se = {slack:.3g})",
        ))
        if sim.mean_power_w > 0:
            ee = sim.mean_rate_bps / sim.mean_power_w
            rel = math.sqrt(
                (sim.rate_se_bps / max(sim.mean_rate_bps, 1e-300)) ** 2
                + (sim.power_se_w / sim.mean_power_w) ** 2
            )
            ee_slack = 3.0 * ee * rel
            in_ee = report.ee_lo_bpj - ee_slack <= ee <= report.ee_hi_bpj + ee_slack
            checks.append(CheckResult(
                "ee_bracket", in_ee,
                f"sim {ee:.6g} vs [{report.ee_lo_bpj:.6g}, {report.ee_hi_bpj:.6g}]",
            ))

        tol = 3.0 * sim.dor_se + 1e-9
        dor_ok = abs(sim.dor - report.dor) <= tol
        checks.append(CheckResult(
            "dor_closed_vs_sim", dor_ok,
            f"sim {sim.dor:.6g} vs closed {report.dor:.6g} (tol {tol:.3g})",
        ))

        # Outage closed form against its definitional complement.
        integral = schemes.dor_integral(scn.budget, getattr(scn, scn.scheme),
                                        parts.partition, parts.timeline, pi, scn.traffic,
                                        parts.lam_s)
        diff = abs(integral - report.dor)
        checks.append(CheckResult(
            "dor_integral", diff < 1e-9, f"|integral - closed| = {diff:.3e}"
        ))

        repeat = montecarlo._finish(repeat_blocks, pending_repeat)
        checks.append(CheckResult(
            "determinism", repeat == partials[:len(repeat)], "bit-identical repeat run"
        ))
    finally:
        # after an error, drop the blocks the worker has not started; a
        # block already running runs to its end
        side.shutdown(cancel_futures=True)
    return checks

