"""Closed-form throughput, energy efficiency, and delay outage rate for the
rate-adaptive (fixed power) and power-adaptive (fixed rate) schemes.

Each scheme has one route to its K x N grid of per-(state, slot) rates or
powers, _rat_rate_grids or _pat_power_grids; lower bounds pair each state's
lower gain edge with the slot's largest distance and upper bounds do the
opposite. Throughput, mean power, energy efficiency and the delay outage
rate are all read from that grid and the state probabilities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainPartition, StateProbMatrix
from .geometry import PassTimeline

__all__ = [
    "LinkBudget",
    "RatConfig",
    "PatConfig",
    "TrafficSpec",
    "SchemeReport",
    "ZeroPower",
    "DimensionMismatch",
    "rat_first_threshold",
    "rat_dor_integral",
    "rat_report",
    "pat_first_threshold",
    "pat_report",
    "pat_dor_integral",
]


class ZeroPower(ArithmeticError):
    """Energy efficiency undefined: no probability mass ever transmits."""


class DimensionMismatch(ValueError):
    """Partition, timeline, and probability grid disagree on K or N."""


@dataclass(frozen=True)
class LinkBudget:
    """Receiver-side constants: bandwidth, noise power, path-loss exponent."""

    bandwidth_hz: float
    noise_power_w: float
    path_loss_exp: float = 2.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if self.noise_power_w <= 0:
            raise ValueError(f"noise_power_w must be > 0, got {self.noise_power_w}")
        if self.path_loss_exp < 2:
            raise ValueError(f"path_loss_exp must be >= 2, got {self.path_loss_exp}")


@dataclass(frozen=True)
class RatConfig:
    """Rate-adaptive scheme: fixed transmit power, minimum usable SNR."""

    tx_power_w: float
    min_snr: float

    def __post_init__(self):
        if self.tx_power_w <= 0:
            raise ValueError(f"tx_power_w must be > 0, got {self.tx_power_w}")
        if self.min_snr <= 0:
            raise ValueError(f"min_snr must be > 0, got {self.min_snr}")


@dataclass(frozen=True)
class PatConfig:
    """Power-adaptive scheme: fixed data rate under a transmit-power cap."""

    max_power_w: float
    fixed_rate_bps: float

    def __post_init__(self):
        if self.max_power_w <= 0:
            raise ValueError(f"max_power_w must be > 0, got {self.max_power_w}")
        if self.fixed_rate_bps <= 0:
            raise ValueError(f"fixed_rate_bps must be > 0, got {self.fixed_rate_bps}")


@dataclass(frozen=True)
class TrafficSpec:
    """One delivery: packet size in bits and the delay budget."""

    packet_bits: float
    delay_threshold_s: float

    def __post_init__(self):
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")
        if self.delay_threshold_s < 0:
            raise ValueError(f"delay_threshold_s must be >= 0, got {self.delay_threshold_s}")


@dataclass(frozen=True)
class SchemeReport:
    """Pass-level results; lo == hi wherever the metric is single-valued."""

    throughput_lo_bps: float
    throughput_hi_bps: float
    avg_power_lo_w: float
    avg_power_hi_w: float
    ee_lo_bpj: float
    ee_hi_bpj: float
    dor: float
    lam_s: float

    def __post_init__(self):
        if not (0.0 <= self.throughput_lo_bps <= self.throughput_hi_bps):
            raise ValueError("need 0 <= throughput_lo <= throughput_hi")
        if not (0.0 <= self.ee_lo_bpj <= self.ee_hi_bpj):
            raise ValueError("need 0 <= ee_lo <= ee_hi")
        if not (0.0 <= self.avg_power_lo_w <= self.avg_power_hi_w):
            raise ValueError("need 0 <= avg_power_lo <= avg_power_hi")
        if not (0.0 <= self.dor <= 1.0):
            raise ValueError(f"dor must be in [0, 1], got {self.dor}")
        if self.lam_s <= 0:
            raise ValueError(f"lam_s must be > 0, got {self.lam_s}")


def _step(x) -> np.ndarray:
    """Unit step with the threshold included: 1 where x >= 0."""
    return np.where(np.asarray(x) >= 0.0, 1.0, 0.0)


def _check_grid(part: GainPartition, tl: PassTimeline, probs: StateProbMatrix):
    if probs.n_states != part.n_states or probs.n_slots != tl.n_slots:
        raise DimensionMismatch(
            f"probability grid is {probs.n_states}x{probs.n_slots}, expected "
            f"{part.n_states}x{tl.n_slots}"
        )


def rat_first_threshold(budget: LinkBudget, rat: RatConfig, d_max_m: float) -> float:
    """Amplitude below which the fixed-power link cannot reach min_snr even
    at the worst-case distance: sigma * sqrt(min_snr * d_max^rho / P_T)."""
    if d_max_m <= 0:
        raise ValueError(f"d_max_m must be > 0, got {d_max_m}")
    return math.sqrt(
        budget.noise_power_w * rat.min_snr * d_max_m**budget.path_loss_exp
        / rat.tx_power_w
    )


def _rat_rate_grids(
    budget: LinkBudget, rat: RatConfig, part: GainPartition, tl: PassTimeline
) -> tuple[np.ndarray, np.ndarray]:
    # (K, N) lower/upper data-rate grids, state-1 rows zero.
    rho = budget.path_loss_exp
    scale = rat.tx_power_w / budget.noise_power_w
    gains_lo = part.thresholds**2
    gains_hi = np.append(part.thresholds[2:] ** 2, part.top_mean_gain)
    d_max = np.asarray(tl.slot_dist_max, dtype=float) ** rho
    d_min = np.asarray(tl.slot_dist_min, dtype=float) ** rho
    rate_lo = np.zeros((part.n_states, tl.n_slots))
    rate_hi = np.zeros((part.n_states, tl.n_slots))
    rate_lo[1:] = budget.bandwidth_hz * np.log2(1.0 + scale * gains_lo[1:, None] / d_max)
    rate_hi[1:] = budget.bandwidth_hz * np.log2(1.0 + scale * gains_hi[:, None] / d_min)
    return rate_lo, rate_hi


def rat_dor_integral(
    budget: LinkBudget,
    rat: RatConfig,
    part: GainPartition,
    tl: PassTimeline,
    probs: StateProbMatrix,
    traffic: TrafficSpec,
    lam_s: float,
) -> float:
    """Delay outage rate from its definition, by numerical time integration.

    At each arrival instant the delivery-time CDF is assembled from the
    per-state outcomes with the completion slot uniform over 1..N, and the
    resulting outage probability is averaged over the pass with the
    trapezoid rule. Cross-checks the closed form in rat_report.
    """
    if lam_s <= 0:
        raise ValueError(f"lam_s must be > 0, got {lam_s}")
    _check_grid(part, tl, probs)
    t_th = traffic.delay_threshold_s
    d_bits = traffic.packet_bits
    rate_lo, _ = _rat_rate_grids(budget, rat, part, tl)
    r2 = rate_lo[1]  # drain rate once the wait in the bottom state ends

    def delivery_cdf_at_threshold(m: int) -> float:
        # F_DT(T_th) for a delivery completing in slot m (0-based).
        f = 0.0
        if r2[m] > 0.0:
            wait_margin = t_th - d_bits / float(r2[m])
            if wait_margin >= 0.0:
                f += probs.probs[0, m] * (1.0 - math.exp(-wait_margin / lam_s))
        for k in range(1, part.n_states):
            rate = float(rate_lo[k, m])
            if rate > 0.0 and t_th - d_bits / rate >= 0.0:
                f += probs.probs[k, m]
        return f

    per_slot = np.array(
        [1.0 - delivery_cdf_at_threshold(m) for m in range(tl.n_slots)]
    )

    times = np.linspace(0.0, tl.span_s, 1001)
    dor_t = np.full_like(times, float(np.mean(per_slot)))
    integral = np.trapezoid(dor_t, times) / tl.span_s
    return min(max(float(integral), 0.0), 1.0)


def rat_report(
    budget: LinkBudget,
    rat: RatConfig,
    part: GainPartition,
    tl: PassTimeline,
    probs: StateProbMatrix,
    traffic: TrafficSpec,
    lam_s: float,
) -> SchemeReport:
    """All rate-adaptive metrics in one report, from one rate grid.

    Throughput is the slot average of sum_k pi R over each bound of the
    grid; power is P_T times the transmitting states' mass, which keeps its
    digits where 1 - pi_1 cannot. lam_s is the mean waiting time in the
    bottom state (the average fade duration at the first threshold).
    """
    _check_grid(part, tl, probs)
    rate_lo, rate_hi = _rat_rate_grids(budget, rat, part, tl)
    n = tl.n_slots
    thr_lo = float(np.sum(probs.probs * rate_lo)) / n
    thr_hi = float(np.sum(probs.probs * rate_hi)) / n
    power = rat.tx_power_w * float(np.sum(probs.probs[1:])) / n
    if power <= 0.0:
        raise ZeroPower("all probability mass sits in the no-transmission state")
    if lam_s <= 0:
        raise ValueError(f"lam_s must be > 0, got {lam_s}")

    t_th = traffic.delay_threshold_s
    with np.errstate(divide="ignore"):
        drain = np.where(rate_lo[1:] > 0.0, traffic.packet_bits / rate_lo[1:], np.inf)
    term_states = float(np.sum(probs.probs[1:] * _step(t_th - drain))) / n
    # After a wait the packet drains at the state-2 lower-edge rate.
    margin = t_th - drain[0]
    decay = 1.0 - np.exp(-np.maximum(margin, 0.0) / lam_s)
    term_wait = float(np.sum(probs.probs[0] * decay * _step(margin))) / n
    dor = min(max(1.0 - term_states - term_wait, 0.0), 1.0)

    return SchemeReport(
        throughput_lo_bps=thr_lo,
        throughput_hi_bps=thr_hi,
        avg_power_lo_w=power,
        avg_power_hi_w=power,
        ee_lo_bpj=thr_lo / power,
        ee_hi_bpj=thr_hi / power,
        dor=dor,
        lam_s=lam_s,
    )


def pat_first_threshold(budget: LinkBudget, pat: PatConfig, d_max_m: float) -> float:
    """Amplitude below which holding the fixed rate at the worst-case
    distance would need more than the power cap."""
    if d_max_m <= 0:
        raise ValueError(f"d_max_m must be > 0, got {d_max_m}")
    snr_needed = 2.0 ** (pat.fixed_rate_bps / budget.bandwidth_hz) - 1.0
    return math.sqrt(
        budget.noise_power_w * snr_needed * d_max_m**budget.path_loss_exp
        / pat.max_power_w
    )


def _pat_power_grids(
    budget: LinkBudget, pat: PatConfig, part: GainPartition, tl: PassTimeline
) -> tuple[np.ndarray, np.ndarray]:
    # (K, N) lower/upper transmit-power grids, capped at max_power_w. The
    # top state's gain is open-ended, so its power can be arbitrarily small.
    rho = budget.path_loss_exp
    snr_needed = 2.0 ** (pat.fixed_rate_bps / budget.bandwidth_hz) - 1.0
    d = np.asarray(tl.slot_dist_max, dtype=float) ** rho
    base = budget.noise_power_w * snr_needed * d
    gains = part.thresholds**2
    power_lo = np.zeros((part.n_states, tl.n_slots))
    power_hi = np.zeros((part.n_states, tl.n_slots))
    power_hi[1:] = np.minimum(base / gains[1:, None], pat.max_power_w)
    power_lo[1:-1] = np.minimum(base / gains[2:, None], pat.max_power_w)
    return power_lo, power_hi


def pat_report(
    budget: LinkBudget,
    pat: PatConfig,
    part: GainPartition,
    tl: PassTimeline,
    probs: StateProbMatrix,
    traffic: TrafficSpec,
    lam_s: float,
) -> SchemeReport:
    """All power-adaptive metrics in one report.

    The partition's first threshold must be the pat_first_threshold value
    for the same scenario; the power cap then binds only in state 1. The
    delay outage rate is 1 below the service time D / R_fix and
    pi_1 exp(-margin / lam_s) above it.
    """
    _check_grid(part, tl, probs)
    power_lo, power_hi = _pat_power_grids(budget, pat, part, tl)
    n = tl.n_slots
    throughput = pat.fixed_rate_bps * float(np.sum(probs.probs[1:])) / n
    p_lo = float(np.sum(probs.probs * power_lo)) / n
    p_hi = float(np.sum(probs.probs * power_hi)) / n
    if p_hi <= 0.0:
        raise ZeroPower("all probability mass sits in the no-transmission state")
    ee_lo = throughput / p_hi
    ee_hi = throughput / p_lo if p_lo > 0.0 else math.inf
    if lam_s <= 0:
        raise ValueError(f"lam_s must be > 0, got {lam_s}")
    service_time = traffic.packet_bits / pat.fixed_rate_bps
    if traffic.delay_threshold_s < service_time:
        dor = 1.0
    else:
        margin = traffic.delay_threshold_s - service_time
        dor = float(np.mean(probs.probs[0])) * math.exp(-margin / lam_s)
        dor = min(max(dor, 0.0), 1.0)
    return SchemeReport(
        throughput_lo_bps=throughput,
        throughput_hi_bps=throughput,
        avg_power_lo_w=p_lo,
        avg_power_hi_w=p_hi,
        ee_lo_bpj=ee_lo,
        ee_hi_bpj=ee_hi,
        dor=dor,
        lam_s=lam_s,
    )


def pat_dor_integral(
    probs: StateProbMatrix,
    pat: PatConfig,
    tl: PassTimeline,
    traffic: TrafficSpec,
    lam_s: float,
) -> float:
    """Power-adaptive delay outage rate from its definition.

    Assembles the delivery-time CDF (exponential wait in state 1 plus the
    fixed service time elsewhere) and averages the outage probability over
    arrival times with the trapezoid rule. Cross-checks pat_report.
    """
    if lam_s <= 0:
        raise ValueError(f"lam_s must be > 0, got {lam_s}")
    t_th = traffic.delay_threshold_s
    margin = t_th - traffic.packet_bits / pat.fixed_rate_bps

    def delivery_cdf_at_threshold() -> float:
        if margin < 0:
            return 0.0
        pi1 = probs.probs[0]
        rest = probs.probs[1:].sum(axis=0)
        per_slot = pi1 * (1.0 - math.exp(-margin / lam_s)) + rest
        return float(np.mean(per_slot))

    dor_now = 1.0 - delivery_cdf_at_threshold()
    times = np.linspace(0.0, tl.span_s, 1001)
    integral = np.trapezoid(np.full_like(times, dor_now), times) / tl.span_s
    return min(max(float(integral), 0.0), 1.0)
