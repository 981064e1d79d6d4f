"""Stochastic oracle for the closed forms: draws shadowed-Rician gains,
arrival times, and waiting periods, and reports empirical rate, power, and
delay-outage estimates with standard errors. One pass gives all three: each
replication's arrival time and gain serve the rate, the power and the
outage alike. The fixed-power scheme reads the gain's state, for the
rate at which a packet drains, and the slot where a wait ends; the
fixed-rate scheme drains at its one rate, so it reads neither, only
whether the gain lies in the bottom state.

Replications are split into fixed-size blocks, each driven by its own
counter-based generator spawned from the master seed. Every pass runs its
blocks through one runner, _finish: a side worker takes them from the
first up, while the calling thread takes them from the last down, until
the two meet. The numpy draws and arithmetic that make up a block release
the interpreter lock, so the two overlap on two cores, and no more than
two compute. Block results are reduced in block order, so every output is
bit-identical whatever thread ran which block. A block reads its
per-state and per-slot constants from small tables formed once per block,
not per replication. A block of _BLOCK replications holds at most about
2.8 MiB of arrays at once: 5.5 arrays of _BLOCK doubles in the fixed-power
scheme, at its range computation, and 3.1 in the fixed-rate scheme. The
sampler draws the line of sight at phase 0, which leaves the gain's law
unchanged, since the scattered part is circularly symmetric (Abdi, Lau,
Alouini & Kaveh, IEEE TWC 2003). Drawing n gains at once, as `validate`
does, it holds two arrays of n doubles: the real part, and the amplitude
whose memory the imaginary part then takes. Every draw takes the standard
distribution and scales it in place, as Generator.normal, gamma, uniform
and exponential would scale it, so the draws are theirs bit for bit,
without their per-call broadcasting.
"""

import concurrent.futures
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogi

from .channel import GainPartition, SrFading, sr_cdf
from .geometry import PassGeometry, PassTimeline, distance_at
from .schemes import LinkBudget, PatConfig, RatConfig, TrafficSpec

__all__ = [
    "SimConfig",
    "SimResult",
    "sample_sr_gain",
    "simulate",
    "ks_statistic",
    "KS_CRIT_ALPHA01",
]

_BLOCK = 1 << 16
_RNG_NAME = "philox4x64-10"

# Asymptotic Kolmogorov critical coefficient at alpha = 0.01, 1.6276236...:
# reject when D > KS_CRIT_ALPHA01 / sqrt(n).
KS_CRIT_ALPHA01 = float(kolmogi(0.01))

# Sorted-sample strides of ks_statistic's CDF levels, each dividing the one
# before. On 1e6 gains sampled at seed 1234, F is evaluated at 10 074
# samples of the reference fading, 6 687, 8 820 and 8 339 of Abdi's light,
# average and heavy sets, and 8 130 and 8 525 of the two line-of-sight sets
# (r > 0.999): 0.7% to 1.0% of them, where a pass at every 64th sample and
# one inside its open segments evaluated 20 477 to 24 572, and D is the same
# bit for bit.
_KS_LEVELS = (256, 32, 4, 1)


@dataclass(frozen=True)
class SimConfig:
    """Replication count and master seed."""

    n_samples: int
    seed: int

    def __post_init__(self):
        if not self.n_samples >= 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Empirical estimates with standard errors."""

    n_samples: int
    rng: str
    mean_rate_bps: float
    rate_se_bps: float
    mean_power_w: float
    power_se_w: float
    dor: float
    dor_se: float

    def __post_init__(self):
        if any(se < 0 for se in (self.rate_se_bps, self.power_se_w, self.dor_se)):
            raise ValueError("standard errors must be >= 0")
        if not (0.0 <= self.dor <= 1.0):
            raise ValueError(f"dor must be in [0, 1], got {self.dor}")


def _block_rngs(seed: int, n_samples: int):
    """(generator, count) per block, derived from the master seed."""
    n_blocks = (n_samples + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    out = []
    for i, child in enumerate(children):
        count = min(_BLOCK, n_samples - i * _BLOCK)
        out.append((np.random.Generator(np.random.Philox(child)), count))
    return out


def sample_sr_gain(fading: SrFading, rng: np.random.Generator, size: int) -> np.ndarray:
    """size power-gain draws, a 1-D array, from the generative
    shadowed-Rician model.

    Scattered part: complex Gaussian with per-dimension variance b0.
    Line of sight: Nakagami-distributed amplitude (gamma power with shape m
    and mean omega), added at phase 0. Returns |sum|^2. The scattered part
    is circularly symmetric, so |A e^(j phi) + Z|^2 has the same law at
    every phase phi (Abdi, Lau, Alouini & Kaveh, IEEE TWC 2003), and no
    phase is drawn. The draws are the real part, the amplitude and then the
    imaginary part, which takes the amplitude's memory: two arrays of size
    doubles.
    """
    re = rng.standard_normal(size)
    if np.ndim(re) != 1:
        raise ValueError(f"size must be a number of draws, got {size!r}")
    sigma = math.sqrt(fading.b0)
    re *= sigma
    if fading.omega > 0.0:
        amp = rng.standard_gamma(fading.m, len(re))
        amp *= fading.omega / fading.m
        np.sqrt(amp, out=amp)
        re += amp
        im = rng.standard_normal(out=amp)  # in the amplitude's memory
    else:
        im = rng.standard_normal(len(re))
    im *= sigma
    re *= re
    im *= im
    re += im
    return re


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _block(
    geo: PassGeometry,
    tl: PassTimeline,
    fading: SrFading,
    part: GainPartition,
    budget: LinkBudget,
    scheme: RatConfig | PatConfig,
    traffic: TrafficSpec,
    lam_s: float,
    rng: np.random.Generator,
    count: int,
) -> tuple[float, float, float, float, float]:
    """One block of replications; returns (sum r, sum r^2, sum p, sum p^2,
    outage count).

    Each replication draws one arrival fraction u and one gain, then the
    wait of a packet that arrives in the bottom state. The rate and power
    use the instant u * span_s of the discretized pass; the packet arrives
    at u * service_time_s. Only the fixed-power scheme reads the gain's
    state and the slot where the wait ends, for its drain at the state's
    lower-edge rate; the fixed-rate scheme drains at its fixed rate
    everywhere and reads only whether the gain lies in the bottom state.
    Raises ValueError for a wait mean lam_s that is not positive and
    finite, in block order like any other error of a block.
    """
    if lam_s <= 0 or not math.isfinite(lam_s):
        raise ValueError(f"lam_s must be positive and finite, got {lam_s}")
    # u and g are drawn in stream order, as arguments, so that no frame but
    # the callee's holds them: arrays are updated in place and dropped once
    # dead, and blocks run side by side, so a block's peak memory is paid
    # once per worker
    sums = _rat_sums if isinstance(scheme, RatConfig) else _pat_sums
    return sums(geo, tl, part, budget, scheme, traffic, lam_s, rng,
                rng.random(count), sample_sr_gain(fading, rng, count))


def _rat_sums(geo, tl, part, budget, scheme, traffic, lam_s, rng, u, g):
    """_block of the fixed-power scheme, from its drawn u and g."""
    state = part.classify(g)
    # the bottom state, where a packet sends nothing and waits: classify
    # gives state 0 to no gain >= 0
    bottom = state < 2
    t = u * tl.span_s
    # span_s can pass the service time by rounding when the pass is a whole
    # number of slots
    np.minimum(t, tl.service_time_s, out=t)
    dist = distance_at(geo, t)
    del t
    dist **= budget.path_loss_exp
    rate = g
    rate *= scheme.tx_power_w / budget.noise_power_w
    rate /= dist
    del g, dist
    rate += 1.0
    np.log2(rate, out=rate)
    rate *= budget.bandwidth_hz
    power = np.full(len(u), scheme.tx_power_w, dtype=float)
    rate[bottom] = 0.0
    power[bottom] = 0.0
    sums = _sum_and_squares(rate) + _sum_and_squares(power)
    del rate, power

    t_wait = _waits(rng, lam_s, bottom)
    del bottom
    # Each packet drains at its state's rate in the slot where its wait
    # ends, ceil((t + wait) / slot) wrapped onto 1..N
    t = u  # arrival instants, in u's memory
    del u
    t *= tl.service_time_s
    t += t_wait
    t /= tl.slot_len_s
    np.ceil(t, out=t)
    # wrapped before the cast, which a wait of more than about 9e18 slots
    # would overflow; fmod is exact, so this is the integer remainder
    np.fmod(t, tl.n_slots, out=t)
    # the flat (state, slot) index of _drain_times, in state's memory
    state -= 1
    state *= tl.n_slots
    state += t.astype(np.int64)
    del t
    t_wait += _drain_times(tl, part, budget, scheme, traffic).take(state)
    return sums + (float(np.count_nonzero(t_wait > traffic.delay_threshold_s)),)


def _drain_times(tl, part, budget, scheme, traffic) -> np.ndarray:
    """The fixed-power scheme's K x N drain times. Entry (k, c) is the time
    to send a packet at the lower gain edge of state k + 1 (of state 2,
    after a wait in state 1) and the largest range of slot c, 1-based, with
    slot N in column 0; infinite where that rate is not positive (or NaN)."""
    rate = np.asarray(part.thresholds)[:, None] ** 2
    rate *= scheme.tx_power_w / budget.noise_power_w
    rate = rate / np.roll(tl.slot_dist_max, 1) ** budget.path_loss_exp
    rate += 1.0
    np.log2(rate, out=rate)
    rate *= budget.bandwidth_hz
    with np.errstate(divide="ignore"):
        times = traffic.packet_bits / rate
    times[~(rate > 0.0)] = np.inf
    times[0] = times[1]
    return times


def _pat_sums(geo, tl, part, budget, scheme, traffic, lam_s, rng, u, g):
    """_block of the fixed-rate scheme, from its drawn u and g."""
    bottom = g < (part.thresholds**2)[1]
    t = u  # instants in the pass, in u's memory: u is not read again
    del u
    t *= tl.span_s
    t //= tl.slot_len_s
    slot = t.astype(np.int64)
    del t
    np.minimum(slot, tl.n_slots - 1, out=slot)
    # per slot, the power that holds the fixed rate at unit gain and the
    # slot's largest range
    unit = np.asarray(tl.slot_dist_max) ** budget.path_loss_exp
    unit *= budget.noise_power_w
    unit *= 2.0 ** (scheme.fixed_rate_bps / budget.bandwidth_hz) - 1.0
    power = unit.take(slot)
    del slot
    power /= g
    del g
    off = ~(power <= scheme.max_power_w)
    off |= bottom
    rate = np.full(len(power), scheme.fixed_rate_bps, dtype=float)
    rate[off] = 0.0
    power[off] = 0.0
    del off
    sums = _sum_and_squares(rate) + _sum_and_squares(power)
    del rate, power

    # every packet drains at the fixed rate, after its wait
    t_wait = _waits(rng, lam_s, bottom)
    del bottom
    t_wait += traffic.packet_bits / scheme.fixed_rate_bps
    return sums + (float(np.count_nonzero(t_wait > traffic.delay_threshold_s)),)


def _waits(rng: np.random.Generator, lam_s: float, bottom: np.ndarray) -> np.ndarray:
    """The waits of a block's packets: Exp(lam_s) for those that arrive in
    the bottom state, where bottom is True, and 0 for the rest."""
    t_wait = rng.standard_exponential(len(bottom))
    t_wait *= lam_s
    t_wait[~bottom] = 0.0
    return t_wait


def _sum_and_squares(x: np.ndarray) -> tuple[float, float]:
    """(sum x, sum x^2); squares x in place."""
    total = float(np.sum(x))
    x *= x
    return total, float(np.sum(x))


def simulate(
    geo: PassGeometry,
    tl: PassTimeline,
    fading: SrFading,
    part: GainPartition,
    budget: LinkBudget,
    scheme: RatConfig | PatConfig,
    traffic: TrafficSpec,
    lam_s: float,
    cfg: SimConfig,
) -> SimResult:
    """Empirical mean rate, transmit power and delay outage rate.

    Each replication draws an instant in the pass and a gain. For the rate
    and power, the fixed-power scheme transmits at the instantaneous
    capacity of the drawn gain and exact range whenever the state allows,
    while the fixed-rate scheme inverts its power against the drawn gain at
    the slot's reference range, subject to the cap. For the outage, a packet
    arriving in the bottom state waits an exponential time with mean lam_s
    before draining in the slot where the wait ends; other packets drain
    immediately at their state's rate. The blocks of _blocks go to one side
    worker and to the calling thread (_finish), and their partials reduce
    in block order.
    """
    blocks = _blocks(geo, tl, fading, part, budget, scheme, traffic, lam_s, cfg)
    # when _finish raises, the worker has at most the one block it started
    # left to run, and the pool's exit waits for it
    with concurrent.futures.ThreadPoolExecutor(1) as side:
        partials = _finish(blocks, [side.submit(block) for block in blocks])
    return _reduce(partials, cfg.n_samples)


def _blocks(
    geo: PassGeometry,
    tl: PassTimeline,
    fading: SrFading,
    part: GainPartition,
    budget: LinkBudget,
    scheme: RatConfig | PatConfig,
    traffic: TrafficSpec,
    lam_s: float,
    cfg: SimConfig,
) -> list[Callable[[], tuple[float, float, float, float, float]]]:
    """simulate's blocks, in block order, each a call that returns the
    block's partial sums (sum r, sum r^2, sum p, sum p^2, outage count).
    Block i draws from the i-th child of the seed's SeedSequence, whatever
    the replication count, so the first blocks of a shorter pass are those
    of a longer one."""
    return [functools.partial(_block, geo, tl, fading, part, budget, scheme, traffic, lam_s,
                              rng, count)
            for rng, count in _block_rngs(cfg.seed, cfg.n_samples)]


def _finish(blocks: list, pending: list[concurrent.futures.Future]) -> list:
    """The results of blocks, in block order, where pending[i] is block i
    submitted to a side worker of one thread, which starts them in order.

    The calling thread cancels and runs the blocks from the last one down,
    until it reaches one the worker has started, and then reads the
    worker's results. The first error in block order is raised, whichever
    thread ran its block: every block the worker ran comes before every
    block run here, and those run here go on past an error, to the lowest.
    """
    # On glibc a block's peak passes the main arena's trim limit, so blocks
    # run on the main thread gave their pages back and faulted them in anew
    # (about 1350 faults, 20% slower than on the side worker). Freeing one
    # untouched array of 8 blocks' doubles raises that limit above a
    # block's peak for the process, and touches no page.
    np.empty(8 * _BLOCK)
    results: list = [None] * len(blocks)
    error = None
    i = len(blocks)
    while i and pending[i - 1].cancel():
        i -= 1
        try:
            results[i] = blocks[i]()
        except Exception as exc:
            error = exc
    for j in range(i):
        results[j] = pending[j].result()
    if error is not None:
        raise error
    return results


def _reduce(partials: list[tuple[float, float, float, float, float]], n_samples: int
            ) -> SimResult:
    """SimResult of n_samples replications from their block partials,
    reduced in block order."""
    sum_r = sum_r2 = sum_p = sum_p2 = outages = 0.0
    for r1, r2, p1, p2, c in partials:
        sum_r += r1
        sum_r2 += r2
        sum_p += p1
        sum_p2 += p2
        outages += c
    mean_rate, rate_se = _mean_se(sum_r, sum_r2, n_samples)
    mean_power, power_se = _mean_se(sum_p, sum_p2, n_samples)
    dor = outages / n_samples
    return SimResult(
        n_samples=n_samples,
        rng=_RNG_NAME,
        mean_rate_bps=mean_rate,
        rate_se_bps=rate_se,
        mean_power_w=mean_power,
        power_se_w=power_se,
        dor=dor,
        dor_se=math.sqrt(max(dor * (1.0 - dor), 0.0) / n_samples),
    )


def _ks_gap(i: np.ndarray, f: np.ndarray, n: int) -> float:
    # largest max((i+1)/n - F_i, F_i - i/n) over 0-based sorted positions i
    return max(np.max((i + 1) / n - f), np.max(f - i / n))


def ks_statistic(fading: SrFading, gains: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance D between sampled gains and the analytic
    CDF F; compare against KS_CRIT_ALPHA01 / sqrt(n).

    D is exact, but F is evaluated only where it can set D. F does not fall,
    so for evaluated sorted positions a < b (0-based) every sample i between
    them has F_a <= F_i <= F_b, and its gap max((i+1)/n - F_i, F_i - i/n)
    is at most max(b/n - F_a, F_b - (a+1)/n). The first level evaluates F at
    every _KS_LEVELS[0]-th sorted sample and at the last one. Each further
    level keeps only the segments whose bound exceeds the largest gap found
    so far and evaluates F inside them at every sample whose position is a
    multiple of its stride; the last level's stride is 1, so it evaluates
    every sample of the segments still open. Every sample left out is thus
    proven not to exceed the returned D. The first and last sorted samples
    are always evaluated, so NaN and negative gains are rejected. At worst
    every segment stays open, and F is evaluated once at every sample, as
    by a full pass. Gains already in ascending order, as run_validate
    passes them, are not sorted again.
    """
    xs = np.asarray(gains, dtype=float)
    # NaN compares false, so gains holding one are sorted, NaN last
    if not np.all(xs[1:] >= xs[:-1]):
        xs = np.sort(xs)
    n = len(xs)
    if n < 1:
        raise ValueError("need at least one sample")
    knots = np.append(np.arange(0, n - 1, _KS_LEVELS[0]), n - 1)
    f = sr_cdf(fading, xs[knots])
    d = _ks_gap(knots, f, n)
    # the segments (a, b) between evaluated positions, with F at each end;
    # every a is a multiple of the stride of the level that evaluated it
    a, b, fa, fb = knots[:-1], knots[1:], f[:-1], f[1:]
    for stride in _KS_LEVELS[1:]:
        hot = np.maximum(b / n - fa, fb - (a + 1) / n) > d
        a, b, fa, fb = a[hot], b[hot], fa[hot], fb[hot]
        if not len(a):
            break
        # segment k splits into pieces at a_k + j * stride, j = 1 .. c_k,
        # below b_k: each piece ends where the next begins, the last at b_k
        pieces = (b - a - 1) // stride + 1
        ends = np.cumsum(pieces)
        seg = np.repeat(np.arange(len(a)), pieces)
        j = np.arange(ends[-1]) - np.repeat(ends - pieces, pieces)
        left = a[seg] + j * stride
        f_left = fa[seg]
        inner = np.flatnonzero(j)
        if len(inner):
            f_left[inner] = sr_cdf(fading, xs[left[inner]])
            d = max(d, _ks_gap(left[inner], f_left[inner], n))
        right, f_right = np.append(left[1:], 0), np.append(f_left[1:], 0.0)
        right[ends - 1], f_right[ends - 1] = b, fb
        a, b, fa, fb = left, right, f_left, f_right
    return float(d)
