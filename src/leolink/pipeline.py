"""Scenario-level pipelines: analytic reports, parameter sweeps with
optional simulation columns, simulation runs, and the oracle cross-check
suite behind the `validate` subcommand.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel, montecarlo, schemes
from .channel import GainPartition, StateProbMatrix, equal_probability_partition
from .geometry import PassTimeline, build_timeline, distance_range
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
    return _assemble(timeline, _solve([scn])[0], finite_wait)


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
    one partition solve and one evaluation of their state probabilities;
    those with equal fading and Doppler spectrum share one afd call.
    """
    d_max = [distance_range(s.geometry)[1] for s in scns]
    firsts = [schemes.rat_first_threshold(s.budget, s.rat, d) if s.scheme == "rat"
              else schemes.pat_first_threshold(s.budget, s.pat, d)
              for s, d in zip(scns, d_max)]
    partitions, pi, lams = [None] * len(scns), [None] * len(scns), [None] * len(scns)
    for (fading, n_states, uppers), idx in _groups(
            scns, lambda s: (s.fading, s.n_states, s.upper_thresholds)).items():
        parts = equal_probability_partition(fading, np.array([firsts[i] for i in idx]),
                                            n_states, uppers)
        for i, part, p in zip(idx, parts, channel.state_probs(fading, parts)):
            partitions[i], pi[i] = part, p
    for (fading, dop), idx in _groups(scns, lambda s: (s.fading, s.doppler)).items():
        lam = channel.afd(fading, dop, np.array([firsts[i] for i in idx]))
        for i, lam_s in zip(idx, lam.tolist()):
            lams[i] = lam_s
    return [_Solved(*fields) for fields in zip(d_max, firsts, partitions, pi, lams)]


def _groups(scns: list[Scenario], key) -> dict[tuple, list[int]]:
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scns):
        groups.setdefault(key(s), []).append(i)
    return groups


def _assemble(timeline: PassTimeline, solved: _Solved, finite_wait: bool) -> ScenarioParts:
    if finite_wait:
        _require_finite_wait(solved.lam_s)
    elif math.isinf(solved.lam_s):
        log.warning("lambda taken as infinite at first threshold %r: the fade "
                    "duration there is undefined or beyond double precision",
                    solved.first_threshold)
    return ScenarioParts(
        timeline=timeline,
        d_max_m=solved.d_max_m,
        first_threshold=solved.first_threshold,
        partition=solved.partition,
        probs=StateProbMatrix.constant(solved.pi, timeline.n_slots),
        lam_s=solved.lam_s,
    )


def run_analyze(scn: Scenario, parts: ScenarioParts | None = None) -> SchemeReport:
    """Closed-form report for the scenario's scheme."""
    p = parts or prepare(scn)
    if scn.scheme == "rat":
        return schemes.rat_report(
            scn.budget, scn.rat, p.partition, p.timeline, p.probs, scn.traffic, p.lam_s
        )
    return schemes.pat_report(
        scn.budget, scn.pat, p.partition, p.timeline, p.probs, scn.traffic, p.lam_s
    )


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
    prepare() reads neither the traffic nor the sim section, so points that
    differ only there share one prepare(), kept until its last use. The
    distinct points are solved together (see _solve), and each row equals
    its point run alone; if that fails, each point is solved alone when it
    comes up, so the sweep stops at its first failing point with that
    point's own error.
    """
    header = [sweep_column_name(sweep.path)] + list(SWEEP_CSV_COLUMNS)
    if with_sim:
        header += _SIM_COLUMNS
    points = [apply_sweep_value(scn, sweep.path, value) for value in sweep.values]
    keys = [replace(point, traffic=None, sim=None) for point in points]
    last_use = {key: i for i, key in enumerate(keys)}
    distinct = list(dict.fromkeys(keys))
    try:
        solved = dict(zip(distinct, _solve(distinct)))
    except (ArithmeticError, ValueError):
        solved = {}
    prepared: dict[Scenario, ScenarioParts] = {}
    # Points that share a prepare() repeat most columns; equal cells share
    # one string, so a long budget sweep keeps a fraction of the text.
    cells: dict[str, str] = {}
    rows = []
    for i, (value, point, key) in enumerate(zip(sweep.values, points, keys)):
        parts = prepared.pop(key, None)
        if parts is None:
            timeline = build_timeline(point.geometry, point.slot_len_s)
            parts = _assemble(timeline, solved.pop(key, None) or _solve([point])[0], with_sim)
        if last_use[key] > i:
            prepared[key] = parts
        report = run_analyze(point, parts)
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
            sim = _simulate(point, parts, replace(point.sim, seed=base_seed + i))
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


def _simulate(scn: Scenario, parts: ScenarioParts, cfg: montecarlo.SimConfig):
    scheme_cfg = scn.rat if scn.scheme == "rat" else scn.pat
    return montecarlo.simulate(
        scn.geometry, parts.timeline, scn.fading, parts.partition, scn.budget,
        scheme_cfg, scn.traffic, parts.lam_s, cfg,
    )


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


def run_validate(scn: Scenario, seed: int | None = None) -> list[CheckResult]:
    """Oracle cross-check suite on one scenario.

    Exercises the density normalization, the two CDF evaluation routes,
    state probabilities against sampled frequencies, the sampler against
    the analytic CDF, the rate, EE and outage closed forms against one
    simulation pass, the outage closed form against its definitional time
    integral, and a bit-identical repeat of a two-block simulation pass.
    """
    checks: list[CheckResult] = []
    parts = prepare(scn, finite_wait=True)
    report = run_analyze(scn, parts)
    fading = scn.fading
    base_seed = scn.sim.seed if seed is None else seed
    n_samples = scn.sim.n_samples

    # Density normalization. Imported on first use: only the oracle needs it.
    from scipy import integrate

    cutoff = channel._tail_cutoff(fading)
    mass, _ = integrate.quad(
        lambda y: channel.sr_pdf(fading, y), 0.0, cutoff,
        epsabs=1e-12, epsrel=1e-12, limit=300,
        points=[fading.mean_gain],
    )
    err = abs(mass - 1.0)
    checks.append(CheckResult("pdf_normalization", err < 1e-6, f"|integral-1| = {err:.3e}"))

    # Two independent CDF routes agree.
    grid = np.linspace(0.05, 4.0, 25) * fading.mean_gain
    worst = max(
        abs((1.0 - channel.sr_cdf_quadrature(fading, float(x)))
            - channel.tail_mass(fading, float(x)))
        for x in grid
    )
    checks.append(CheckResult("cdf_routes_agree", worst < 1e-8, f"max diff = {worst:.3e}"))

    # State probabilities: normalization and sampled frequencies.
    pi = parts.probs.probs[:, 0]
    sum_err = abs(float(pi.sum()) - 1.0)
    checks.append(CheckResult("state_probs_sum", sum_err < 1e-9, f"|sum-1| = {sum_err:.3e}"))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(base_seed)))
    gains = sample_sr_gain(fading, rng, n_samples)
    states = parts.partition.classify(gains)
    freq = np.bincount(states, minlength=pi.size + 1)[1:] / n_samples
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
    cfg = replace(scn.sim, seed=base_seed + 1)
    sim = _simulate(scn, parts, cfg)
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

    # Outage closed form against the definitional time integral.
    if scn.scheme == "rat":
        integral = schemes.rat_dor_integral(
            scn.budget, scn.rat, parts.partition, parts.timeline, parts.probs,
            scn.traffic, parts.lam_s,
        )
    else:
        integral = schemes.pat_dor_integral(
            parts.probs, scn.pat, parts.timeline, scn.traffic, parts.lam_s
        )
    diff = abs(integral - report.dor)
    checks.append(CheckResult(
        "dor_integral", diff < 1e-9, f"|integral - closed| = {diff:.3e}"
    ))

    # Determinism of the simulation pipeline: rate, power and outage. Two
    # blocks, where the scenario asks for that many, cover the seeding of
    # each block and their reduction.
    short = replace(cfg, n_samples=min(n_samples, 2 * montecarlo._BLOCK))
    checks.append(CheckResult(
        "determinism", _simulate(scn, parts, short) == _simulate(scn, parts, short),
        "bit-identical repeat run",
    ))

    return checks
