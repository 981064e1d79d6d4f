"""Shadowed-Rician fading statistics and the finite-state gain partition.

Covers the power-gain PDF/CDF, steady-state probabilities of the amplitude
partition, the level-crossing rate of the envelope, and the average fade
duration used as the mean waiting time in the no-transmission state.

The power gain is a negative-binomial mixture of gamma laws (Abdi et al.,
IEEE TWC 2003; Paris, Electron. Lett. 2010): with probability

    w_k = (1 - r)^m (m)_k r^k / k!,   r = delta / beta = omega / (2 b0 m + omega) < 1,

it is Gamma(k + 1) with rate beta. With K ~ NB(m, r) the mixture index and
N ~ Poisson(beta x), Q(k+1, beta x) = P(N <= k), so the tail is
sum_k w_k Q(k+1, beta x) = P(N <= K). Every distribution quantity here sums
that series in the other order, over the Poisson index n:

    P(G >= x) = sum_n p_n(beta x) P(K >= n),   P(G < x) = sum_n p_n(beta x) P(K < n),

with p_n the Poisson pmf and the negative-binomial probabilities in closed
form (regularized incomplete beta). The Poisson weights confine each sum to
a window of O(sqrt(beta x)) terms, plus about log(1 / P(G >= x)) for a
tail, whatever r; summed over k it needs about 40 / (1 - r) terms, which
grows without bound as the line of sight dominates. Each value depends on
its own gain alone, bit for bit, whatever other gains share the call, so
the partitions of many sweep points can be solved in one batch and each
still equals the partition of its point alone.
The 1F1 density and its quadrature are kept as the independent oracle.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, gammaln, hyp1f1, ive, xlog1py, xlogy

from .special import SERIES_MAX_TERMS, SERIES_REL_TOL, NonConvergent, confluent_1f1

__all__ = [
    "SrFading",
    "DopplerSpec",
    "GainPartition",
    "StateProbMatrix",
    "ZeroCrossingRate",
    "sr_pdf",
    "sr_cdf",
    "sr_cdf_quadrature",
    "tail_mass",
    "state_probs",
    "state_prob_matrix",
    "lcr",
    "afd",
    "doppler_moments",
    "tail_mean_gain",
    "equal_probability_partition",
]

_INT_M_TOL = 1e-9
# The partition's root finder stops an entry once its bracket is within
# about 2 ulp, or after _ROOT_MAXITER iterations (brentq's default cap).
_ROOT_XRTOL = 2.0 * np.finfo(float).eps
_ROOT_XATOL = 4.0 * np.finfo(float).tiny
_ROOT_MAXITER = 100

# Each series omits at most _REL_TOL of its sum on either side of its
# window; the CDF's upper cut, at most the larger of that and e^-_LOG_FLOOR
# (past the denormal floor).
_REL_TOL = 1e-17
_LOG_2_OVER_TOL = math.log(2.0 / _REL_TOL)
_LOG_FLOOR = 745.0
# A chunk of cells forms a few arrays of at most _CHUNK index-by-cell
# entries, and each coefficient once for all its cells; its points' terms
# are formed in blocks of about _BLOCK, whose arrays fit in a core's cache.
# A window of more than _MAX_WINDOW terms is refused: its cell alone would
# take a few arrays of that many floats.
_CHUNK = 1 << 18
_BLOCK = 1 << 16
_MAX_WINDOW = 1 << 24
# Terms are summed in runs of _RUN, and the runs one after another.
_RUN = 8
# Terms of the deviance series in _log_poisson: with v^2 < 0.0025 the
# omitted part is below 1e-16 of the sum.
_BD0_TERMS = 6
# stirlerr(n) = log n! - (n + 1/2) log n + n - log(2 pi) / 2 for n = 1..15
# (entry 0 unused); above, its asymptotic series is exact to double precision.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


class ZeroCrossingRate(ArithmeticError):
    """A simulation needs a finite mean wait, but the fade duration at the
    first threshold is infinite: the crossing rate (or the CDF mass below
    the threshold) underflowed to zero."""


@dataclass(frozen=True)
class SrFading:
    """Shadowed-Rician power-gain parameters.

    m: severity of the line-of-sight shadowing (>= 0.5, not necessarily
       integer); b0: half the average multipath power; omega: average
       line-of-sight power.
    """

    m: float
    b0: float
    omega: float

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError(f"m must be >= 0.5, got {self.m}")
        if self.b0 <= 0:
            raise ValueError(f"b0 must be > 0, got {self.b0}")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")

    @property
    def alpha(self) -> float:
        num = 2.0 * self.b0 * self.m
        return (num / (num + self.omega)) ** self.m / (2.0 * self.b0)

    @property
    def beta(self) -> float:
        return 1.0 / (2.0 * self.b0)

    @property
    def delta(self) -> float:
        return self.omega / (2.0 * self.b0 * (2.0 * self.b0 * self.m + self.omega))

    @property
    def mean_gain(self) -> float:
        """First moment of the power gain: multipath plus LOS power."""
        return 2.0 * self.b0 + self.omega

    @property
    def integer_m(self) -> int | None:
        """m as an int when it is one (within 1e-9), else None."""
        r = round(self.m)
        if r >= 1 and abs(self.m - r) < _INT_M_TOL:
            return int(r)
        return None


@dataclass(frozen=True)
class DopplerSpec:
    """Doppler statistics of the scattered component.

    f_scatter_max_hz: maximum Doppler frequency of the scattering; the
    line-of-sight Doppler is taken as negligible against it. mean_aoa_rad
    in [-pi, pi) and aoa_width >= 0 shape the angle-of-arrival spectrum.
    """

    f_scatter_max_hz: float
    mean_aoa_rad: float = 0.0
    aoa_width: float = 0.0

    def __post_init__(self):
        if self.f_scatter_max_hz <= 0:
            raise ValueError(f"f_scatter_max_hz must be > 0, got {self.f_scatter_max_hz}")
        if not (-math.pi <= self.mean_aoa_rad < math.pi):
            raise ValueError(f"mean_aoa_rad must be in [-pi, pi), got {self.mean_aoa_rad}")
        if self.aoa_width < 0:
            raise ValueError(f"aoa_width must be >= 0, got {self.aoa_width}")


def doppler_moments(fading: SrFading, dop: DopplerSpec) -> tuple[float, float]:
    """Spectral moments (b1, b2) of the scattered component.

    b1 = b0 * 2 pi f cos(aoa) I1(k)/I0(k);
    b2 = b0 * 2 pi^2 f^2 [I0(k) + cos(aoa) I2(k)] / I0(k).
    Raises ValueError if the moment determinant b0 b2 - b1^2 is not positive.
    """
    b0 = fading.b0
    f = dop.f_scatter_max_hz
    cos_aoa = math.cos(dop.mean_aoa_rad)
    # Exponentially scaled Bessel functions: the ratios stay finite at any width.
    i0 = ive(0, dop.aoa_width)
    i1_ratio = float(ive(1, dop.aoa_width) / i0)
    i2_ratio = float(ive(2, dop.aoa_width) / i0)
    b1 = b0 * 2.0 * math.pi * f * cos_aoa * i1_ratio
    b2 = b0 * 2.0 * math.pi**2 * f**2 * (1.0 + cos_aoa * i2_ratio)
    if b0 * b2 - b1 * b1 <= 0:
        raise ValueError("degenerate Doppler spectrum: b0*b2 - b1^2 <= 0")
    return b1, b2


def _mixture(fading: SrFading) -> tuple[float, float]:
    """(r, 1 - r) of the negative-binomial mixture index, each formed
    without cancellation."""
    den = 2.0 * fading.b0 * fading.m + fading.omega
    return fading.omega / den, 2.0 * fading.b0 * fading.m / den


def _log_poisson(n, y):
    """log(e^-y y^n / n!) for arrays n >= 1 and y > 0 of one shape, in
    Loader's saddle-point form -stirlerr(n) - bd0(n, y) - log(2 pi n) / 2
    with the deviance bd0 = n log(n/y) - (n - y), which keeps the digits
    that n log y - y - log n! loses to cancellation."""
    big = np.maximum(n, 16.0)
    inv = 1.0 / (big * big)
    stirlerr = (1/12 - inv * (1/360 - inv * (1/1260 - inv * (1/1680 - inv / 1188)))) / big
    small = n < 16.0
    if small.any():
        stirlerr[small] = _STIRLERR[n[small].astype(int)]
    d = n - y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # n log(n/y), through log1p where n/y is near 1 so it keeps its
        # digits, and without forming n/y where that would overflow
        n_log = np.where(d > -0.5 * y, xlog1py(n, d / y), xlogy(n, n / y))
        n_log = np.where(d > y, xlogy(n, n) - xlogy(n, y), n_log)
    bd0 = n_log - d
    # within 5% of y, bd0 = d v + 2 n v sum_k>=1 v^2k / (2k + 1),
    # v = d / (n + y): the difference above would lose the digits of |d|
    # to cancellation
    v = d / (n + y)
    near = np.abs(v) < 0.05
    if near.any():
        v, dn, nn = v[near], d[near], n[near]
        v2 = v * v
        series = 1.0 / (2 * _BD0_TERMS + 1)
        for k in range(_BD0_TERMS - 1, 0, -1):
            series = series * v2 + 1.0 / (2 * k + 1)
        bd0[near] = v * (dn + 2.0 * nn * v2 * series)
    return -stirlerr - bd0 - 0.5 * np.log(2.0 * math.pi * n)


def _nb_below(n, m: float, r: float, q: float):
    # P(K < n) = I_q(m, n) for K ~ NB(m, r) and n >= 1, taken from whichever
    # of r and q = 1 - r is the smaller, as the other loses digits to 1 - x.
    # Against 40-50-digit mpmath (n = 1..5000) on the reference and Abdi's
    # sets, the unbranched betainc(m, n, q) is within 6.3e-16 relative
    # (betaincc here: 3.4e-16) and 4.9-5.5x cheaper; taking it moves the
    # goldens in their last bits, so it waits for the precision ledger.
    return betainc(m, n, q) if q <= 0.5 else betaincc(n, m, r)


def _nb_above(n, m: float, r: float, q: float):
    # P(K >= n) = I_r(n, m), likewise. Both branches stay: against mpmath,
    # on line-of-sight sets (r = 1 - 3e-4 to 1 - 4e-6) betainc(n, m, r) is
    # off by up to 1.3e-11 where betaincc is within 6.6e-16, and on Abdi's
    # light set (r = 0.0095) betaincc(m, n, q) is off by 8.4e-13 where
    # betainc is within 1.5e-14.
    return betainc(n, m, r) if r <= 0.5 else betaincc(m, n, q)


def _log_nb_tilted(n, m: float, q: float):
    # log(w_n / r^n) = log((1 - r)^m (m)_n / n!), q = 1 - r
    return gammaln(m + n) - gammaln(m) - gammaln(n + 1.0) + m * math.log(q)


def _cut_below(lam, a):
    """Index below which N ~ Poisson(lam) has mass at most e^-a (Chernoff:
    P(N <= lam - t) <= e^(-t^2 / 2 lam))."""
    return np.maximum(np.floor(lam - np.sqrt(2.0 * lam * a)), 0.0)


def _cut_above(lam, a):
    """Index above which N ~ Poisson(lam) has mass at most e^-a (Bernstein:
    P(N >= lam + t) <= e^(-t^2 / 2(lam + t/3)))."""
    return np.ceil(lam + a / 3.0 + np.sqrt(a * a / 9.0 + 2.0 * lam * a))


def _poisson_sum(y: np.ndarray, log_coef, window) -> np.ndarray:
    """sum over n in [lo_i, hi_i] of e^-y_i y_i^n / n! * c_n for each y_i > 0,
    with log_coef(n) = log c_n and (lo, hi) = window(y).

    Each entry is a function of its own y alone, whichever entries share
    the call. Its cell on a lattice of y fixed in advance (_cell) gives its
    reference index n0: the largest term of the cell's middle y, from the
    low end of the window at the cell's top edge to the high end of the
    window at its bottom edge, indices that every window of the cell holds
    as windows move with y. Each term is formed whole in log space relative
    to n0, so no factor underflows on its own,

        log p_n(y) = log p_n0(y) + (n - n0) log(y / n0) - log(n! / n0!),

    each piece small where the terms matter; log(n! / n0!) is accumulated
    outward from n0, one index after another. The terms of the entry's own
    window are then added in an order fixed by their n alone (_row_sums),
    which neither other entries nor block boundaries can change.

    Cells go in chunks of at most _CHUNK index-by-cell entries (or one
    cell); a chunk evaluates log_coef once over the union of its cells'
    ranges and forms a few arrays of that many entries, then its points'
    terms in blocks of about _BLOCK. Memory is thus a few arrays of the
    larger of _CHUNK and the widest cell range, which spans its points'
    windows; a window of more than _MAX_WINDOW terms raises ArithmeticError
    before anything is formed.
    """
    out = np.empty_like(y)
    if len(y) == 0:
        return out
    order = np.argsort(y, kind="stable")
    ys = y[order]
    cell = _cell(ys)
    new = np.empty(len(ys), dtype=bool)
    new[0] = True
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(ys))
    # each cell's middle and edges
    key = cell[first][:, None] + np.array([0.5, 0.0, 1.0])
    yc, y_lo, y_hi = np.maximum((0.5 * key) ** 2 - 16.0, 1.0).T
    octave = key[:, 0] < 0.0
    if octave.any():
        yc[octave], y_lo[octave], y_hi[octave] = np.exp2(key[octave]).T
    # n0 is searched in [the low edge of y_hi's window, the high edge of
    # y_lo's]; each cell's range holds that and its points' windows
    lo, hi = window(np.concatenate((ys, y_hi, y_lo)))
    near, reach = lo[len(ys):-len(yc)], np.maximum(hi[-len(yc):], lo[len(ys):-len(yc)])
    lo, hi = lo[:len(ys)], hi[:len(ys)]
    if np.any(hi - lo >= _MAX_WINDOW):
        i = np.argmax(hi - lo)
        raise ArithmeticError(
            f"series window too wide: {hi[i] - lo[i] + 1.0:.4g} terms at beta*x = "
            f"{ys[i]:.6g}, more than {_MAX_WINDOW}")
    start = np.minimum(near, np.minimum.reduceat(lo, first))
    width = np.maximum(reach, np.maximum.reduceat(hi, first)) - start + 1.0
    a = 0
    while a < len(first):
        b, span = a + 1, width[a]
        while b < len(first) and (b + 1 - a) * max(span, width[b]) <= _CHUNK:
            span = max(span, width[b])
            b += 1
        rows = slice(first[a], last[b - 1])
        cells = np.repeat(np.arange(b - a), last[a:b] - first[a:b])
        out[order[rows]] = _cell_sums(ys[rows], lo[rows], hi[rows], cells, yc[a:b],
                                      near[a:b], reach[a:b], start[a:b], width[a:b], log_coef)
        a = b
    return out


def _cell(y):
    # The lattice of _poisson_sum: from y = 1, 2 sqrt(y + 16) in [c, c + 1),
    # cells about sqrt(y) + 4 wide; below 1, octaves log2(y) in [c, c + 1),
    # so that a small y's middle is within a factor sqrt(2) of it.
    cell = 2.0 * np.sqrt(y + 16.0)
    small = y < 1.0
    if small.any():
        cell[small] = np.log2(y[small])
    return np.floor(cell, out=cell)


def _cell_sums(y, lo, hi, cell, yc, near, reach, start, width, log_coef) -> np.ndarray:
    # The sums of _poisson_sum for the points y of one chunk of cells: point
    # i lies in cell[i], and cell k has middle yc[k], searches n0 in
    # [near[k], reach[k]] and has range start[k] + [0, width[k]).
    h = int(width.max())
    # log_coef over the union of the cells' ranges
    union = []
    for a, b in sorted(zip(start.tolist(), (start + width).tolist())):
        if union and a <= union[-1][1]:
            union[-1][1] = max(union[-1][1], b)
        else:
            union.append([a, b])
    n = np.concatenate([np.arange(a, b) for a, b in union])
    coef = log_coef(n)
    at = np.searchsorted(n, start)
    g = coef[np.minimum(at[:, None] + np.arange(h), len(coef) - 1)]
    del coef
    n = start[:, None] + np.arange(h)
    # log p_n(yc) less its constant -yc, to the precision of gammaln, is
    # enough to find the largest term
    t = xlogy(n, yc[:, None]) - gammaln(n + 1.0) + g
    t[(n < near[:, None]) | (n > reach[:, None])] = -np.inf
    n0 = np.maximum(start + np.argmax(t, axis=1), 1.0)[:, None]
    del t
    # g becomes log c_n - log(n! / n0!) + (n - n0) log n0; the sums run
    # outward from n0, each adding one log(k / n0), so an entry depends
    # only on its n and its cell's n0. Each is log1p((k - n0) / n0), exact
    # to its last bits, where log(k / n0) would be off by up to an ulp of 1.
    up = np.log1p((np.maximum(n, n0) - n0) / n0)
    g -= np.cumsum(up, axis=1, out=up)
    down = np.log1p((np.minimum(n, n0 - 1.0) + 1.0 - n0) / n0)[:, ::-1]
    g += np.cumsum(down, axis=1, out=down)[:, ::-1]
    del n, up, down

    n0 = n0[cell, 0]
    ref = _log_poisson(n0, y)
    # log(y / n0), through log1p where y is near n0 so it keeps its digits
    slope = np.log1p(np.maximum((y - n0) / n0, -0.5))
    far = y < 0.5 * n0
    if far.any():
        slope[far] = np.log(y[far] / n0[far])
    # point i's terms start at g[cell[i], lo[i] - start]
    base = cell * h + (lo - start[cell]).astype(np.intp)
    return _row_sums(g.ravel(), base, (hi - lo + 1.0).astype(np.intp), ref, slope, lo - n0)


def _row_sums(g, base, w, ref, slope, d) -> np.ndarray:
    # sum_{j < w_i} exp(ref_i + slope_i (d_i + j) + g[base_i + j]) for each
    # point i, in an order fixed by j alone: the terms of each run of _RUN
    # added in order of j, then the runs in order (np.cumsum adds in order;
    # np.sum would pair terms by the row's length). Each point has one row,
    # and past its own width its terms are exactly 0, which change no sum.
    # Rows go in order of width, about _BLOCK terms at a time, padded to the
    # widest; a wider row goes one block of columns at a time, its running
    # sum carried across.
    out = np.empty(len(w))
    by_width = np.argsort(w, kind="stable")
    span = _RUN * -(-w[by_width] // _RUN)
    # rows a..b-1 fit in _BLOCK terms, (b - a) span[b - 1] <= _BLOCK, when
    # last[b - 1] <= a; last rises with the row
    last = np.arange(1, len(w) + 1) - _BLOCK // span
    a = 0
    while a < len(w):
        b = max(a + 1, np.searchsorted(last, a, "right"))
        i = by_width[a:b, None]
        step = min(span[b - 1], _RUN * max(1, _BLOCK // (_RUN * (b - a))))
        total = np.zeros(b - a)
        for c in range(0, span[b - 1], step):
            j = np.arange(c, min(c + step, span[b - 1]))
            # an index past a point's width may run off g; its term is set
            # to 0 below
            terms = np.take(g, base[i] + j, mode="clip")
            shift = d[i] + j
            shift *= slope[i]
            terms += shift
            terms += ref[i]
            # terms past a point's width, all past the narrowest row's, become 0
            cut = max(w[by_width[a]] - c, 0)
            terms[:, cut:][j[cut:] >= w[i]] = -np.inf
            np.exp(terms, out=terms)
            terms = terms.reshape(b - a, -1, _RUN)
            runs = terms[..., 0] + terms[..., 1]
            for k in range(2, _RUN):
                runs += terms[..., k]
            runs[:, 0] += total
            total = np.cumsum(runs, axis=1, out=runs)[:, -1]
        out[by_width[a:b]] = total
        a = b
    return out


def _upper_sum(fading: SrFading, y: np.ndarray, s: int, m: float) -> np.ndarray:
    """sum_k w_k Q(k+1+s, y) at y > 0, w_k the mixture weights with shape m:
    P(N <= K + s) = sum_n p_n(y) P(K >= n - s), K ~ NB(m, r).

    P(K >= j) does not rise with j, so the omitted mass above the window is
    below _REL_TOL of the sum. Below it, the sum is e^-((1-r) y) times
    sum_n p_n(r y) c_n with c_n = P(K >= n - s) / r^n, so the cut below r y
    omits below _REL_TOL of the sum when c_n does not fall with n, as for
    m >= 1. For m < 1 it falls, from r^-s at n = s to no less than
    r^-s w_j / r^j at the top, j = hi - s, and the cut widens by that ratio.
    """
    r, q = _mixture(fading)

    def window(y):
        hi = _cut_above(y, _LOG_2_OVER_TOL)
        a_lo = _LOG_2_OVER_TOL
        if m < 1.0:
            a_lo = a_lo - _log_nb_tilted(hi - s, m, q)
        return _cut_below(r * y, a_lo), hi

    def log_survival(n):
        j = n - s
        with np.errstate(divide="ignore"):
            return np.where(j >= 1.0, np.log(_nb_above(np.maximum(j, 1.0), m, r, q)), 0.0)

    kept = _kept.get()
    if kept is not None:
        log_survival = kept.setdefault((fading, s, m), _Coefs(log_survival))
    return _poisson_sum(y, log_survival, window)


# While a partition is solved, the coefficients of each series it sums are
# kept (_keep_coefficients), up to _KEEP of them: its root finder evaluates
# one fading near the same gains again and again, and each log c_n depends
# on n alone. Like np.errstate, the scope belongs to the running context
# (a solve in another thread keeps its own), which lets tail_mass keep its
# signature.
_kept: ContextVar[dict | None] = ContextVar("_kept", default=None)
_KEEP = 1 << 20


@contextmanager
def _keep_coefficients():
    token = _kept.set({})
    try:
        yield
    finally:
        _kept.reset(token)


class _Coefs:
    """log_coef of _poisson_sum for one series, each value formed once: a
    call on sorted, distinct n forms only the n it has not seen, and keeps
    them while it holds at most _KEEP."""

    def __init__(self, log_coef):
        self.log_coef = log_coef
        self.n = np.empty(0)
        self.value = np.empty(0)

    def __call__(self, n: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.n, n)
        seen = np.zeros(len(n), dtype=bool)
        if len(self.n):
            seen = self.n[np.minimum(at, len(self.n) - 1)] == n
        out = np.empty(len(n))
        out[seen] = self.value[at[seen]]
        new = ~seen
        if new.any():
            out[new] = self.log_coef(n[new])
            if len(self.n) + np.count_nonzero(new) <= _KEEP:
                self.n = np.insert(self.n, at[new], n[new])
                self.value = np.insert(self.value, at[new], out[new])
        return out


def _gains(x) -> tuple[np.ndarray, bool]:
    """x as a 1-D float array of power gains, and whether it was a scalar."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1:
        raise ValueError("power gains must be a scalar or a 1-D array")
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError(f"power gain must be >= 0, got {float(np.min(arr))}")
    return np.atleast_1d(arr), arr.ndim == 0


def sr_pdf(fading: SrFading, y):
    """Power-gain density alpha * exp(-beta y) * 1F1(m; 1; delta y).

    Accepts a scalar or ndarray. Evaluated in log form after Kummer's
    transformation, exp(-beta y) 1F1(m; 1; delta y) =
    exp(-(beta - delta) y) 1F1(1 - m; 1; -delta y), so values neither
    overflow nor underflow before the denormal floor.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise ValueError("power gain must be >= 0")
    log_pdf = (math.log(fading.alpha)
               - (fading.beta - fading.delta) * arr
               + np.log(hyp1f1(1.0 - fading.m, 1.0, -fading.delta * arr)))
    out = np.exp(log_pdf)
    return float(out) if arr.ndim == 0 else out


def _tail_cutoff(fading: SrFading) -> float:
    # Beyond this gain the remaining CDF mass is far below 1e-16.
    bd = fading.beta - fading.delta
    return fading.mean_gain + (80.0 + 20.0 * max(fading.m, 1.0)) / bd


def sr_cdf_quadrature(fading: SrFading, x: float) -> float:
    """CDF by adaptive quadrature of the density over [0, x].

    The interval is split at the distribution mean so the quadrature sees
    the exponential tail separately; absolute tolerance 1e-10.
    """
    # Imported on first use: only the oracle needs it, and it is slow to import.
    from scipy import integrate

    if x < 0:
        raise ValueError(f"power gain must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    hi = min(x, _tail_cutoff(fading))
    mean = fading.mean_gain
    f = lambda y: sr_pdf(fading, y)
    if hi <= mean:
        val, _ = integrate.quad(f, 0.0, hi, epsabs=1e-10, epsrel=1e-10, limit=200)
    else:
        v1, _ = integrate.quad(f, 0.0, mean, epsabs=1e-10, epsrel=1e-10, limit=200)
        v2, _ = integrate.quad(f, mean, hi, epsabs=1e-10, epsrel=1e-10, limit=200)
        val = v1 + v2
    return min(max(val, 0.0), 1.0)


def sr_cdf(fading: SrFading, x):
    """Power-gain CDF sum_n p_n(beta x) P(K < n) at a scalar or 1-D array of
    gains x >= 0, with P(K < n) = I_(1-r)(m, n).

    Every term is positive, so small CDF values keep their digits. The
    omitted mass below the window is below _REL_TOL of the sum, P(K < n)
    being nondecreasing; above it, below _REL_TOL of the lower bound
    max(w_0 P(1, y), p_n(y) w_(n-1)) at n near r y + m.
    """
    x, scalar = _gains(x)
    inner = (x > 0.0) & (x < math.inf)
    y = fading.beta * x[inner]
    r, q = _mixture(fading)
    m = fading.m

    def window(y):
        n = np.maximum(np.rint(r * y + m), 1.0)
        log_lb = np.maximum(m * math.log(q) + np.log(-np.expm1(-y)),
                            _log_poisson(n, y) + _log_nb_tilted(n - 1.0, m, q) + xlogy(n - 1.0, r))
        a_hi = np.minimum(_LOG_2_OVER_TOL - log_lb, _LOG_FLOOR)
        return _cut_below(y, _LOG_2_OVER_TOL), _cut_above(y, a_hi)

    def log_below(n):
        with np.errstate(divide="ignore"):
            return np.where(n >= 1.0, np.log(_nb_below(np.maximum(n, 1.0), m, r, q)), -np.inf)

    total = np.where(x == math.inf, 1.0, 0.0)
    total[inner] = np.minimum(_poisson_sum(y, log_below, window), 1.0)
    return float(total[0]) if scalar else total


def tail_mass(fading: SrFading, x):
    """Complementary CDF P(G >= x) = sum_n p_n(beta x) P(K >= n) at a scalar
    or 1-D array of gains x >= 0.

    The series has no cancellation, so tail probabilities far below 1e-16
    keep their digits.
    """
    x, scalar = _gains(x)
    inner = (x > 0.0) & (x < math.inf)
    total = np.where(x == math.inf, 0.0, 1.0)
    total[inner] = np.minimum(_upper_sum(fading, fading.beta * x[inner], 0, fading.m), 1.0)
    return float(total[0]) if scalar else total


@dataclass(frozen=True)
class GainPartition:
    """Amplitude thresholds mu_0 < mu_1 < ... < mu_{K-1} of the K-state
    gain partition; mu_0 = 0 and the top state is open-ended.

    mu_1 == 0 is tolerated as the degenerate no-outage partition.
    top_mean_gain is E[G | G >= mu_{K-1}^2], the finite gain that the
    open-ended top state takes in upper bounds.
    """

    thresholds: np.ndarray
    top_mean_gain: float

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        object.__setattr__(self, "thresholds", t)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two thresholds (K >= 2)")
        if t[0] != 0.0:
            raise ValueError(f"mu_0 must be 0, got {t[0]}")
        if t[1] < 0.0 or np.any(np.diff(t[1:]) <= 0.0):
            raise ValueError("thresholds must be strictly increasing above mu_0")
        if self.top_mean_gain < t[-1] ** 2:
            raise ValueError("top_mean_gain below the top threshold's gain")

    @property
    def n_states(self) -> int:
        return len(self.thresholds)

    def classify(self, gains: np.ndarray) -> np.ndarray:
        """1-based state index for each power gain sample."""
        sq = self.thresholds**2
        return np.searchsorted(sq, np.asarray(gains, dtype=float), side="right")


@dataclass(frozen=True)
class StateProbMatrix:
    """K x N grid of steady-state probabilities, one column per time slot."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("probs must be a K x N matrix")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        colsums = p.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > 1e-9):
            raise ValueError("each slot's state probabilities must sum to 1")

    @classmethod
    def constant(cls, pi: np.ndarray, n_slots: int) -> "StateProbMatrix":
        """The matrix whose n_slots columns all equal pi."""
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        return cls(probs=np.tile(pi[:, None], (1, n_slots)))

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_slots(self) -> int:
        return self.probs.shape[1]


def state_probs(fading: SrFading, part):
    """Steady-state probability of each gain state.

    pi_k = F(mu_k^2) - F(mu_{k-1}^2) for interior states; the top state
    takes the remaining tail mass. Given a sequence of partitions with one
    state count, returns one row per partition from one tail_mass and one
    sr_cdf call, each row equal to its partition's probabilities alone.
    """
    single = isinstance(part, GainPartition)
    gains = np.array([p.thresholds for p in ([part] if single else part)]) ** 2
    # Interior probabilities are complementary-CDF differences: identical
    # to CDF differences in exact arithmetic, but they keep deep-tail
    # states from cancelling to zero.
    tails = tail_mass(fading, gains[:, 1:].ravel()).reshape(len(gains), -1)
    pi = np.empty_like(gains)
    pi[:, 0] = sr_cdf(fading, gains[:, 1])
    pi[:, 1:-1] = tails[:, :-1] - tails[:, 1:]
    pi[:, -1] = tails[:, -1]
    pi = np.clip(pi, 0.0, 1.0)
    return pi[0] if single else pi


def state_prob_matrix(fading: SrFading, part: GainPartition, n_slots: int) -> StateProbMatrix:
    """Per-slot state probabilities.

    Fading parameters are constant within a pass here, so every column is
    the same vector; the matrix shape stays so slot-varying fading can be
    introduced without touching consumers.
    """
    return StateProbMatrix.constant(state_probs(fading, part), n_slots)


def lcr(
    fading: SrFading,
    dop: DopplerSpec,
    r_th: float,
    xi_exponent: str = "squared",
) -> float:
    """Level-crossing rate of the fading envelope at amplitude r_th.

    Series evaluation; each term couples a half-integer Pochhammer weight
    with a pair of confluent-hypergeometric factors. xi_exponent selects how
    the spectral-moment bracket enters each factor: "squared" (default)
    keeps the fixed square, "index" raises it to the term index instead.
    """
    if r_th <= 0:
        raise ValueError(f"r_th must be > 0, got {r_th}")
    if xi_exponent not in ("squared", "index"):
        raise ValueError(f"xi_exponent must be 'squared' or 'index', got {xi_exponent!r}")
    m, b0, om = fading.m, fading.b0, fading.omega
    b1, b2 = doppler_moments(fading, dop)
    det = b0 * b2 - b1 * b1
    bracket = b1 * b1 / (b0 * det)
    q = 2.0 * b0 * om / (2.0 * b0 * m + om)
    z = fading.delta * r_th * r_th

    def xi(n: int) -> float:
        scale = math.exp(math.lgamma(n + m) - n * math.log(2.0) - math.lgamma(n + 1.0))
        power = 2.0 if xi_exponent == "squared" else float(n)
        return (scale * bracket**power * q**n
                * confluent_1f1(n + m, n + 1.0, z))

    prefactor = (
        1.0 / (math.sqrt(2.0 * math.pi) * math.exp(math.lgamma(m)))
        * (2.0 * b0 * m / (2.0 * b0 * m + om)) ** m
        * math.sqrt(det / b0)
        * (r_th / b0)
        * math.exp(-r_th * r_th / b0)
    )

    total = 0.0
    weight = 1.0  # (1/2)_n (-1)^n / n!
    xi_next = xi(0)
    for n in range(SERIES_MAX_TERMS):
        xi_n, xi_next = xi_next, xi(n + 1)
        term = weight * (xi_n + xi_next)
        total += term
        if n > 0 and abs(term) < SERIES_REL_TOL * abs(total):
            return max(prefactor * total, 0.0)
        weight *= -(0.5 + n) / (n + 1.0)
    raise NonConvergent(
        f"crossing-rate series at r_th={r_th} did not reach rel_tol="
        f"{SERIES_REL_TOL} within {SERIES_MAX_TERMS} terms"
    )


def afd(fading: SrFading, dop: DopplerSpec, r_th):
    """Average fade duration below amplitude r_th: CDF mass / crossing rate.

    Given a 1-D array of amplitudes, returns an array, with the CDF masses
    from one sr_cdf call and the crossing rate taken at each amplitude.
    Where the crossing rate or the mass below the amplitude underflowed to
    0 the duration is undefined, and it is returned as inf, as it is where
    the ratio overflows; no warning is raised for either.
    """
    arr = np.asarray(r_th, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"r_th must be > 0, got {arr[arr <= 0][0]}")
    amplitudes = np.atleast_1d(arr)
    masses = sr_cdf(fading, amplitudes * amplitudes)
    rates = np.array([lcr(fading, dop, amp) for amp in amplitudes.tolist()])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where((rates > 0.0) & (masses > 0.0), masses / rates, np.inf)
    return float(out[0]) if arr.ndim == 0 else out


def tail_mean_gain(fading: SrFading, x):
    """Conditional mean power gain E[G | G >= x] at a scalar or 1-D array
    of gains x >= 0.

    The tail first moment sum_k w_k (k+1)/beta Q(k+2, beta x) over the tail
    mass. As k w_k(m) = m r/(1-r) w_(k-1)(m+1), the moment splits into two
    tail series, one with shape m + 1; none cancels, so the ratio stays
    accurate even where each underflows relative to 1.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"x must be >= 0, got {arr[arr < 0][0]}")
    x = np.atleast_1d(arr)
    out = np.full(len(x), fading.mean_gain)
    tail = x != 0.0
    if tail.any():
        mass = tail_mass(fading, x[tail])
        r, q = _mixture(fading)
        y = fading.beta * x[tail]
        m = fading.m
        moment = (_upper_sum(fading, y, 1, m)
                  + m * r / q * _upper_sum(fading, y, 2, m + 1.0)) / fading.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            out[tail] = moment / mass
        bad = (mass <= 0.0) | ~np.isfinite(out[tail])
        if bad.any():
            raise ValueError(f"no resolvable tail mass above x={x[tail][bad][0]}")
    return float(out[0]) if arr.ndim == 0 else out


def _find_root(f, x1, x2, f1, f2, *args):
    """Roots of an elementwise function inside the brackets [x1, x2], by
    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Software 28, 1997), with the steps of
    scipy.optimize.elementwise.find_root.

    f1 = f(x1, *args) and f2 = f(x2, *args) are given. Each iteration calls
    f once, on the entries still open, with args cut to those entries. An
    entry closes when f vanishes there or its bracket is narrower than
    _ROOT_XRTOL |x| + _ROOT_XATOL, about 2 ulp.

    Raises NonConvergent when f returns NaN or an entry is still open after
    _ROOT_MAXITER iterations, and ArithmeticError when f1 and f2 share a sign.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (x1, x2, f1, f2))
    if np.any(np.isnan(f1) | np.isnan(f2)):
        raise NonConvergent("root finder: f is NaN at a bracket end")
    if np.any(np.sign(f1) * np.sign(f2) > 0.0):
        raise ArithmeticError("root finder: f has the same sign at both ends of a bracket")
    roots = np.empty_like(x1)
    active = np.arange(len(x1))
    t = 0.5
    for it in range(_ROOT_MAXITER + 1):
        near = np.abs(f1) < np.abs(f2)
        xmin = np.where(near, x1, x2)
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _ROOT_XRTOL + _ROOT_XATOL
        done = (np.where(near, f1, f2) == 0.0) | (dx < tol)
        roots[active[done]] = xmin[done]
        if done.all():
            return roots
        if it == _ROOT_MAXITER:
            break
        keep = ~done
        active, x1, x2, f1, f2, dx, tol = (v[keep] for v in (active, x1, x2, f1, f2, dx, tol))
        args = [a[keep] for a in args]
        if it > 0:
            x3, f3 = x3[keep], f3[keep]
            # inverse quadratic interpolation where it stays inside the
            # bracket (Chandrupatla's test on xi and phi), else bisection
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quad = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            # and no closer to an end than half the tolerance
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1.0 - tl)
        x = x1 + t * (x2 - x1)
        fx = np.asarray(f(x, *args), dtype=float)
        if np.any(np.isnan(fx)):
            raise NonConvergent(f"root finder: f is NaN at x = {x[np.isnan(fx)]!r}")
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    raise NonConvergent(
        f"root finder did not converge within {_ROOT_MAXITER} iterations "
        f"(last x = {xmin[~done]!r})"
    )


def equal_probability_partition(
    fading: SrFading,
    first_threshold,
    n_states: int,
    upper_thresholds: np.ndarray | None = None,
):
    """Build the K-state partition above a scheme-defined first threshold.

    By default the states above the first threshold share the remaining
    probability mass equally (solved in tail-mass domain, which survives
    first thresholds far into the tail); pass upper_thresholds (amplitudes,
    length K - 2) to pin them explicitly instead. The top state's
    conditional mean gain is recorded for finite upper-bound evaluation.

    Given a 1-D array of first thresholds, returns a list with one
    partition per entry, all solved together: one root-finder call for
    every equal-mass threshold of every entry. Each partition equals the
    one its entry gives alone, bit for bit.
    """
    firsts = np.asarray(first_threshold, dtype=float)
    if n_states < 2:
        raise ValueError(f"n_states must be >= 2, got {n_states}")
    if np.any(firsts < 0):
        raise ValueError(f"first_threshold must be >= 0, got {firsts[firsts < 0][0]}")
    first = np.atleast_1d(firsts)[:, None]
    if upper_thresholds is not None:
        uppers = np.asarray(upper_thresholds, dtype=float)
        if len(uppers) != n_states - 2:
            raise ValueError(
                f"need {n_states - 2} upper thresholds for K={n_states}, got {len(uppers)}"
            )
        amplitudes = np.broadcast_to(uppers, (len(first), len(uppers)))
    else:
        with _keep_coefficients():
            s1 = tail_mass(fading, first[:, 0] ** 2)
            # Below ~1e-290 the quantile targets leave the normal double range
            # and the root finder sees quantized garbage; fail explicitly.
            if np.any(s1 < 1e-290):
                i = np.flatnonzero(s1 < 1e-290)[0]
                raise ArithmeticError(
                    f"no resolvable probability mass above threshold {first[i, 0]} "
                    f"(tail mass {s1[i]:.3g})"
                )
            # Every target of a partition shares the bracket [first^2, hi]; hi
            # doubles where the tail still exceeds the target. The ratio form
            # keeps the root finder stable when targets are deep in the tail.
            targets = (np.multiply.outer(s1, np.arange(n_states - 2, 0, -1))
                       / (n_states - 1)).ravel()
            lo = np.repeat(first[:, 0] ** 2, n_states - 2)
            hi = np.maximum(2.0 * lo, fading.mean_gain)
            f_hi = tail_mass(fading, hi) / targets - 1.0
            while np.any(up := f_hi > 0.0):
                hi[up] *= 2.0
                if hi.max() > 1e12:
                    raise ArithmeticError(f"tail quantile search diverged at targets {targets[up]}")
                f_hi[up] = tail_mass(fading, hi[up]) / targets[up] - 1.0
            gains = _find_root(lambda g, tg: tail_mass(fading, g) / tg - 1.0,
                               lo, hi, np.repeat(s1, n_states - 2) / targets - 1.0, f_hi, targets)
        amplitudes = np.sqrt(gains).reshape(len(first), n_states - 2)
    thresholds = np.hstack((np.zeros_like(first), first, amplitudes))
    tops = tail_mean_gain(fading, thresholds[:, -1] ** 2)
    parts = [GainPartition(thresholds=t, top_mean_gain=float(top))
             for t, top in zip(thresholds, tops)]
    return parts[0] if firsts.ndim == 0 else parts
