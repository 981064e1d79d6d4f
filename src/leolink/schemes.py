"""Closed-form throughput, energy efficiency, and delay outage rate for the
rate-adaptive (fixed power) and power-adaptive (fixed rate) schemes.

first_threshold and report serve both schemes and read the scheme from
the config's type, a RatConfig or a PatConfig. Each scheme fixes one of
power or rate and has one route to its K x N grid of the other per
(state, slot), _rat_grids rates or _pat_grids powers; lower bounds pair
each state's lower gain edge with the slot's largest distance and upper
bounds do the opposite. The fixed side times the transmitting states'
mass, and the grid's sums against the K state probabilities pi, which
hold in every slot (the fading does not change over the pass), give
throughput, mean power and energy efficiency by one body for both
schemes. The delay outage rate is one expression too, _dor, fed with the
scheme's lower-edge drain rates: the rate grid's lower bound, or R_fix in
every transmitting state. dor_integral is its definitional oracle.

The route takes P points at once (_reports), as P x K x N grids padded
to the most states and slots, and a report of one point is its P = 1
case. _Points.of is the one place that pads: each point's thresholds,
state probabilities and path loss d^rho at its timeline's slot ranges,
raised to its own exponent. Every grid entry is formed from its own
point's values by the same operations, and each point's sums add its own
block of a grid in the order np.sum adds that block alone (_sums), so
each report equals its point's alone, bit for bit.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import GainPartition
from .geometry import PassTimeline

__all__ = [
    "LinkBudget",
    "RatConfig",
    "PatConfig",
    "TrafficSpec",
    "SchemeReport",
    "ZeroPower",
    "DimensionMismatch",
    "first_threshold",
    "report",
    "dor_integral",
]


class ZeroPower(ArithmeticError):
    """Energy efficiency undefined: no probability mass ever transmits."""


class DimensionMismatch(ValueError):
    """Partition and state probabilities disagree on K."""


@dataclass(frozen=True)
class LinkBudget:
    """Receiver-side constants: bandwidth, noise power, path-loss exponent."""

    bandwidth_hz: float
    noise_power_w: float
    path_loss_exp: float = 2.0

    def __post_init__(self):
        if not self.bandwidth_hz > 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not self.noise_power_w > 0:
            raise ValueError(f"noise_power_w must be > 0, got {self.noise_power_w}")
        if not self.path_loss_exp >= 2:
            raise ValueError(f"path_loss_exp must be >= 2, got {self.path_loss_exp}")


@dataclass(frozen=True)
class RatConfig:
    """Rate-adaptive scheme: fixed transmit power, minimum usable SNR."""

    tx_power_w: float
    min_snr: float

    def __post_init__(self):
        if not self.tx_power_w > 0:
            raise ValueError(f"tx_power_w must be > 0, got {self.tx_power_w}")
        if not self.min_snr > 0:
            raise ValueError(f"min_snr must be > 0, got {self.min_snr}")


@dataclass(frozen=True)
class PatConfig:
    """Power-adaptive scheme: fixed data rate under a transmit-power cap."""

    max_power_w: float
    fixed_rate_bps: float

    def __post_init__(self):
        if not self.max_power_w > 0:
            raise ValueError(f"max_power_w must be > 0, got {self.max_power_w}")
        if not self.fixed_rate_bps > 0:
            raise ValueError(f"fixed_rate_bps must be > 0, got {self.fixed_rate_bps}")


@dataclass(frozen=True)
class TrafficSpec:
    """One delivery: packet size in bits and the delay budget."""

    packet_bits: float
    delay_threshold_s: float

    def __post_init__(self):
        if not self.packet_bits > 0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")
        if not self.delay_threshold_s >= 0:
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
        if not self.lam_s > 0:
            raise ValueError(f"lam_s must be > 0, got {self.lam_s}")


# Entries of one P x K x N grid of _reports: points go in blocks of about
# this many, so the grids of a long sweep take about 2 MiB at a time. On a
# 1000-point height sweep of the RAT reference, 2^17 took as long and
# peaked 3 MB higher.
_CELLS = 1 << 15


def _check_pi(part: GainPartition, pi: np.ndarray) -> np.ndarray:
    """pi as a float array, refused unless it holds one probability per
    state of part."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (part.n_states,):
        raise DimensionMismatch(
            f"state probabilities have shape {pi.shape}, expected ({part.n_states},)")
    return pi


@dataclass(frozen=True)
class _Points:
    """P points of one scheme, padded to the most states K and slots N.

    Point p has n_states[p] states and n_slots[p] slots: its amplitude
    thresholds fill row p of thresholds, padded with its top threshold,
    and its state probabilities row p of probs, padded with 0. top_gain[p]
    is its top state's mean gain, and row p of loss_far and of loss_near
    holds its path loss d^rho at its slots' largest and smallest slant
    range, padded with its last slot's value. Every field holds one entry
    or row per point.
    """

    budgets: list[LinkBudget]
    configs: list
    traffics: list[TrafficSpec]
    lams: list[float]
    thresholds: np.ndarray
    probs: np.ndarray
    top_gain: np.ndarray
    n_states: np.ndarray
    n_slots: np.ndarray
    loss_far: np.ndarray
    loss_near: np.ndarray

    @classmethod
    def of(cls, budgets: list[LinkBudget], configs: list, parts: list[GainPartition],
           timelines: list[PassTimeline], pis: list[np.ndarray],
           traffics: list[TrafficSpec], lams: list[float]) -> "_Points":
        """The points padded together; the only place that pads them."""
        n_states = np.array([part.n_states for part in parts])
        n_slots = np.array([tl.n_slots for tl in timelines])
        thresholds = np.empty((len(parts), n_states.max()))
        probs = np.zeros(thresholds.shape)
        far, near = np.empty((2, len(parts), n_slots.max()))
        for p, (budget, part, tl, pi) in enumerate(zip(budgets, parts, timelines, pis)):
            thresholds[p, :part.n_states] = part.thresholds
            thresholds[p, part.n_states:] = part.thresholds[-1]
            probs[p, :part.n_states] = pi
            # the scalar power of the point alone: numpy squares at rho =
            # 2, which pow() need not match in the last bit
            for loss, dist in ((far, tl.slot_dist_max), (near, tl.slot_dist_min)):
                loss[p, :tl.n_slots] = np.asarray(dist, dtype=float) ** budget.path_loss_exp
                loss[p, tl.n_slots:] = loss[p, tl.n_slots - 1]
        return cls(budgets, configs, traffics, lams, thresholds, probs,
                   np.array([part.top_mean_gain for part in parts]), n_states, n_slots,
                   far, near)

    def rows(self, a: int, b: int) -> "_Points":
        return _Points(*(getattr(self, f.name)[a:b] for f in fields(self)))

    def column(self, attr: str, of_budget: bool = False) -> np.ndarray:
        """One value per point, from its budget or its scheme's config, as
        a P x 1 x 1 array."""
        objs = self.budgets if of_budget else self.configs
        return np.array([getattr(o, attr) for o in objs])[:, None, None]


def _shapes(pts: _Points) -> list[tuple[int, int, np.ndarray]]:
    """The points of each (states, slots) shape: (K, N, their indices)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(zip(pts.n_states.tolist(), pts.n_slots.tolist())):
        groups.setdefault(shape, []).append(i)
    return [(k, n, np.array(idx)) for (k, n), idx in groups.items()]


def _sums(grids: np.ndarray, shapes, first: int = 0) -> np.ndarray:
    """np.sum of each point's block of each of a stack of P x K x N grids,
    its states first .. K_p - 1 in its N_p slots (of P x N grids, its N_p
    slots), bit for bit, one row per grid. The blocks of one shape are
    copied out as the contiguous rows of one array, and a row sum adds
    each row in the order np.sum adds it alone."""
    out = np.empty(grids.shape[:2])
    for k, n, idx in shapes:
        block = grids[:, idx, :n] if grids.ndim == 3 else grids[:, idx, first:k, :n]
        out[:, idx] = block.reshape(len(grids), len(idx), -1).sum(axis=2)
    return out


def _check_reports(power: np.ndarray, lams) -> None:
    """Raises, for the first point with one, the error of a point whose
    transmit power is not positive or whose mean wait is not positive."""
    for p, lam_s in zip(power.tolist(), lams):
        if p <= 0.0:
            raise ZeroPower("all probability mass sits in the no-transmission state")
        if not lam_s > 0:
            raise ValueError(f"lam_s must be > 0, got {lam_s}")


def first_threshold(budget: LinkBudget, config: RatConfig | PatConfig, d_max_m: float
                    ) -> float:
    """Amplitude below which the link cannot serve at the worst-case
    distance: sigma * sqrt(snr * d_max^rho / P), where a RatConfig needs
    min_snr at its fixed power P_T and a PatConfig the SNR that holds its
    fixed rate, 2^(R_fix / B) - 1, at its power cap."""
    if not d_max_m > 0:
        raise ValueError(f"d_max_m must be > 0, got {d_max_m}")
    if isinstance(config, RatConfig):
        snr, power = config.min_snr, config.tx_power_w
    else:
        snr = 2.0 ** (config.fixed_rate_bps / budget.bandwidth_hz) - 1.0
        power = config.max_power_w
    return math.sqrt(budget.noise_power_w * snr * d_max_m**budget.path_loss_exp / power)


def _rat_grids(pts: _Points) -> np.ndarray:
    # the (P, K, N) lower and upper data-rate grids, stacked, state-1 rows
    # zero: each state's lower gain edge at the slot's largest distance,
    # and its upper edge (the top state's mean gain) at the smallest
    scale = np.array([r.tx_power_w / b.noise_power_w
                      for r, b in zip(pts.configs, pts.budgets)])[:, None, None]
    gains = np.empty((2,) + pts.thresholds.shape)
    np.square(pts.thresholds, out=gains[0])
    gains[1, :, :-1] = gains[0, :, 1:]
    gains[1, :, -1] = gains[0, :, -1]
    gains[1, np.arange(len(pts.top_gain)), pts.n_states - 1] = pts.top_gain
    dist = np.stack((pts.loss_far, pts.loss_near))
    # thresholds[0] = 0 gives log2(1) = 0 in state 1 of the lower grid
    rates = pts.column("bandwidth_hz", of_budget=True) * np.log2(
        1.0 + scale * gains[..., None] / dist[:, :, None, :])
    rates[1, :, 0] = 0.0
    return rates


def _pat_grids(pts: _Points) -> np.ndarray:
    # the (P, K, N) lower and upper transmit-power grids, stacked, capped at
    # max_power_w: each state's power at its lower gain edge bounds it from
    # above, at its upper edge from below. The top state's gain is
    # open-ended, so its power can be arbitrarily small.
    noise_snr = np.array([b.noise_power_w * (2.0 ** (c.fixed_rate_bps / b.bandwidth_hz) - 1.0)
                          for c, b in zip(pts.configs, pts.budgets)])[:, None]
    base = (noise_snr * pts.loss_far)[:, None, :]
    power = np.minimum(base / (pts.thresholds[:, 1:] ** 2)[:, :, None], pts.column("max_power_w"))
    powers = np.zeros((2,) + pts.thresholds.shape + base.shape[2:])
    powers[1, :, 1:] = power
    powers[0, :, 1:-1] = power[:, 1:]
    # the top state, and the padding, of a point with fewer states than the grid
    powers[0, np.arange(powers.shape[2]) >= (pts.n_states - 1)[:, None]] = 0.0
    return powers


def _dor(pts: _Points, rates: np.ndarray, every: np.ndarray, shapes) -> list[float]:
    # the late and the delivered mass, from the same per-state terms: a
    # state k >= 2 is late if the packet does not drain within the budget
    # at its lower-edge rate (never, at rate 0), and state 1 by pi_1 times
    # exp(-margin / lam_s), the chance that its wait outlasts the margin
    # left to drain at the state-2 rate (all of pi_1 where none is left).
    # The late mass keeps its digits deep in the outage tail, where
    # 1 - delivered cannot, and 1 - delivered is exactly 1 where nothing
    # is delivered in time.
    t_th = np.array([t.delay_threshold_s for t in pts.traffics])[:, None, None]
    bits = np.array([t.packet_bits for t in pts.traffics])[:, None, None]
    with np.errstate(divide="ignore"):
        margin = t_th - bits / rates
    late = margin < 0.0
    wait = np.exp(-np.maximum(margin[:, 1], 0.0) / np.array(pts.lams)[:, None])
    rest = _sums(np.stack((every * late, every * ~late)), shapes, first=1)
    bottom = _sums(np.stack((every[:, 0] * wait, every[:, 0] * (1.0 - wait))), shapes)
    late_mass, delivered = (rest + bottom) / pts.n_slots
    return np.where(late_mass < 0.5, late_mass, 1.0 - delivered).tolist()


def report(
    budget: LinkBudget,
    config: RatConfig | PatConfig,
    part: GainPartition,
    tl: PassTimeline,
    pi: np.ndarray,
    traffic: TrafficSpec,
    lam_s: float,
) -> SchemeReport:
    """All metrics of the config's scheme in one report, from its one grid.

    The adapted side, rate or power, is the slot average of sum_k pi x over
    each bound of the grid; the fixed side, P_T or R_fix, scales the
    transmitting states' mass, which keeps its digits where 1 - pi_1
    cannot. The partition's first threshold must be first_threshold's
    value for the same scenario; a PatConfig's power cap then binds only
    in state 1. lam_s is the mean waiting time in the bottom state (the
    average fade duration at the first threshold).
    """
    pi = _check_pi(part, pi)
    return _reports(_Points.of([budget], [config], [part], [tl], [pi], [traffic], [lam_s]))[0]


def _block_reports(pts: _Points) -> list[SchemeReport]:
    shapes = _shapes(pts)
    # one column, which every slot of the grids shares
    probs = pts.probs[:, :, None]
    n = pts.n_slots
    rat = isinstance(pts.configs[0], RatConfig)
    grids = (_rat_grids if rat else _pat_grids)(pts)
    every = np.broadcast_to(probs, grids.shape[1:])
    lo, hi = _sums(probs * grids, shapes) / n
    fixed = pts.column("tx_power_w" if rat else "fixed_rate_bps")
    flat = fixed[:, 0, 0] * _sums(every[None], shapes, first=1)[0] / n
    (thr_lo, thr_hi), (p_lo, p_hi) = ((lo, hi), (flat, flat)) if rat else ((flat, flat), (lo, hi))
    _check_reports(p_hi, pts.lams)
    # each state's drain rate at its lower edge: R_fix, and 0 in state 1
    rates = grids[0] if rat else fixed * (np.arange(every.shape[1]) > 0)[:, None]
    dors = _dor(pts, rates, every, shapes)
    return [SchemeReport(throughput_lo_bps=tlo, throughput_hi_bps=thi, avg_power_lo_w=plo,
                         avg_power_hi_w=phi, ee_lo_bpj=tlo / phi,
                         ee_hi_bpj=thi / plo if plo > 0.0 else math.inf, dor=dor, lam_s=lam)
            for tlo, thi, plo, phi, dor, lam in zip(thr_lo.tolist(), thr_hi.tolist(),
                                                    p_lo.tolist(), p_hi.tolist(), dors,
                                                    pts.lams)]


def _reports(pts: _Points) -> list[SchemeReport]:
    """report of each of P points of one scheme, all together. Points go
    in blocks of about _CELLS grid entries. Raises, for the first point
    with one, the error its report alone raises.
    """
    size = max(1, _CELLS // (pts.thresholds.shape[1] * pts.loss_far.shape[1]))
    out = []
    for a in range(0, len(pts.lams), size):
        out += _block_reports(pts.rows(a, a + size))
    return out


def dor_integral(
    budget: LinkBudget,
    config: RatConfig | PatConfig,
    part: GainPartition,
    tl: PassTimeline,
    pi: np.ndarray,
    traffic: TrafficSpec,
    lam_s: float,
) -> float:
    """Delay outage rate from its definition: the slot mean of 1 - F_DT(T),
    the delivery-time CDF at the budget T, for a delivery completing in
    each slot. A state k >= 2 drains the packet at its lower-edge rate,
    B log2(1 + P_T mu_{k-1}^2 / (sigma^2 d_max^rho)) at the slot's largest
    distance d_max for a RatConfig and R_fix for a PatConfig, and delivers
    in time if that takes at most T; state 1 delivers in time if its
    exponential wait, of mean lam_s, ends with the state-2 drain time still
    left. Forms its own rates, and sums the delivered mass where report's
    closed form sums the late one, to cross-check report's dor.
    """
    if not lam_s > 0:
        raise ValueError(f"lam_s must be > 0, got {lam_s}")
    pi = _check_pi(part, pi)
    gains = part.thresholds[1:, None] ** 2
    dist = np.asarray(tl.slot_dist_max, dtype=float) ** budget.path_loss_exp
    if isinstance(config, RatConfig):
        snr = config.tx_power_w / budget.noise_power_w * gains / dist
        rates = budget.bandwidth_hz * np.log2(1.0 + snr)
    else:
        rates = np.full((len(gains), len(dist)), config.fixed_rate_bps)
    with np.errstate(divide="ignore"):
        drain = traffic.packet_bits / rates
    in_time = pi[1:] @ (drain <= traffic.delay_threshold_s)
    margin = traffic.delay_threshold_s - drain[0]
    waited = pi[0] * -np.expm1(-np.maximum(margin, 0.0) / lam_s)
    return float(np.mean(1.0 - (waited + in_time)))
