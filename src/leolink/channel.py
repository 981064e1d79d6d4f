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
grows without bound as the line of sight dominates.

Every series is summed in passes (_poisson_sum): one pass takes several
series, each at its own gains, and forms all their terms together. A
gain's terms come from the row of its cell on a fixed lattice of gains,
which depends on the cell alone. Each thread keeps the series of the last
fading it asked for, with their coefficients and rows (_stored), so a pass
forms only the rows that no earlier call of that thread formed: the Newton
steps of a partition solve, once its gains settle, and the calls of later
sweeps, points and schemes of one fading only sum. Each value depends on
its own gain alone, bit for bit, whatever other gains and series share
the pass and whatever rows were kept, so the partitions of many sweep
points can be solved in one batch and each still equals the partition of
its point alone. The 1F1 density and its quadrature are kept as the
independent oracle: an adaptive Gauss-Legendre rule (quadrature) that
evaluates the density on whole panels at once.
"""

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, gammaln, hyp1f1, ive, xlog1py, xlogy

from .special import SERIES_MAX_TERMS, SERIES_REL_TOL, NonConvergent

__all__ = [
    "SrFading",
    "DopplerSpec",
    "GainPartition",
    "StateProbMatrix",
    "ZeroCrossingRate",
    "sr_pdf",
    "sr_cdf",
    "sr_cdf_quadrature",
    "quadrature",
    "tail_mass",
    "state_probs",
    "state_prob_matrix",
    "lcr",
    "afd",
    "doppler_moments",
    "partitions",
]

_INT_M_TOL = 1e-9
# The partition's Newton solve (_tail_quantiles) closes an entry once its
# step is within _NEWTON_RTOL of its gain or its bracket within about 2 ulp,
# and gives up after _ROOT_MAXITER steps.
_NEWTON_RTOL = 1e-8
_ROOT_XRTOL = 2.0 * np.finfo(float).eps
_ROOT_XATOL = 4.0 * np.finfo(float).tiny
_ROOT_MAXITER = 100
# The Newton solve starts from the tail and the density at 4 knots,
# log-spaced from the first threshold's gain x1 to end = 4 max(2 x1, mean
# gain): x1, then end (x1 / end)^p for these powers p.
_KNOT_POWERS = np.array([2.0, 1.0, 0.0]) / 3.0

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
# A series keeps its coefficients over at most _KEEP indices (_Coefs), and
# rows of up to _KEEP entries in all (_Series).
_KEEP = 1 << 20
# Each thread keeps the series of the last fading it asked for (_stored).
_STORE = threading.local()
# Terms are summed in runs of _RUN, and the runs one after another.
_RUN = 8
# quadrature integrates each panel with a Gauss-Legendre rule of _GL_ORDER
# nodes, and gives up past _QUAD_MAX_PANELS panels.
_GL_ORDER = 20
_QUAD_MAX_PANELS = 1000
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
        if not self.m >= 0.5:
            raise ValueError(f"m must be >= 0.5, got {self.m}")
        if not self.b0 > 0:
            raise ValueError(f"b0 must be > 0, got {self.b0}")
        if not self.omega >= 0:
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
        if not self.f_scatter_max_hz > 0:
            raise ValueError(f"f_scatter_max_hz must be > 0, got {self.f_scatter_max_hz}")
        if not (-math.pi <= self.mean_aoa_rad < math.pi):
            raise ValueError(f"mean_aoa_rad must be in [-pi, pi), got {self.mean_aoa_rad}")
        if not self.aoa_width >= 0:
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
    that n log y - y - log n! loses to cancellation. Each branch below is
    formed only at the entries that take it."""
    stirlerr = _STIRLERR[np.minimum(n, 15.0).astype(int)]
    large = n >= 16.0
    if np.count_nonzero(large):
        stirlerr[large] = _stirlerr(n[large])
    d = n - y
    # within 5% of y, bd0 = d v + 2 n v sum_k>=1 v^2k / (2k + 1),
    # v = d / (n + y): the difference n log(n/y) - d would lose the digits
    # of |d| to cancellation
    v = d / (n + y)
    near = np.abs(v) < 0.05
    bd0 = np.empty_like(d)
    if np.count_nonzero(near):
        v, dn, nn = v[near], d[near], n[near]
        v2 = v * v
        series = np.full_like(v, 1.0 / (2 * _BD0_TERMS + 1))
        for k in range(_BD0_TERMS - 1, 0, -1):
            series *= v2
            series += 1.0 / (2 * k + 1)
        bd0[near] = v * (dn + 2.0 * nn * v2 * series)
    far = ~near
    if np.count_nonzero(far):
        nf, yf, df = n[far], y[far], d[far]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # n log(n/y), through log1p where n/y is near 1 so it keeps its
            # digits, and without forming n/y where that would overflow
            n_log = np.where(df > -0.5 * yf, xlog1py(nf, df / yf), xlogy(nf, nf / yf))
            n_log = np.where(df > yf, xlogy(nf, nf) - xlogy(nf, yf), n_log)
        bd0[far] = n_log - df
    return -stirlerr - bd0 - 0.5 * np.log(2.0 * math.pi * n)


def _stirlerr(z):
    # stirlerr(z) = log Gamma(z + 1) - (z + 1/2) log z + z - log(2 pi) / 2 by
    # its asymptotic series, exact to double precision for z >= 15
    inv = 1.0 / (z * z)
    return (1/12 - inv * (1/360 - inv * (1/1260 - inv * (1/1680 - inv / 1188)))) / z


def _nb_below(n, m: float, r: float, q: float):
    # P(K < n) = I_q(m, n) for K ~ NB(m, r) and n >= 1, taken from whichever
    # of r and q = 1 - r is the smaller, as the other loses digits to 1 - x.
    # Both branches stay: against 50-digit mpmath (n up to 2000, and 5e4 on
    # line-of-sight sets), betainc(m, n, q) is off by 1.9e-15 at n = 3 on
    # Abdi's average set (q = 0.753), where betaincc is within 8.2e-17, and
    # on line-of-sight sets betaincc(n, m, r) is off by 1.0e-13 (m = 1.5)
    # and 4.7e-13 (m = 0.5), where betainc is within 9.4e-16.
    return betainc(m, n, q) if q <= 0.5 else betaincc(n, m, r)


def _nb_above(n, m: float, r: float, q: float):
    # P(K >= n) = I_r(n, m), likewise. Both branches stay: against mpmath,
    # on line-of-sight sets (r = 1 - 3e-4 to 1 - 4e-6) betainc(n, m, r) is
    # off by up to 1.3e-11 where betaincc is within 6.6e-16, and on Abdi's
    # light set (r = 0.0095) betaincc(m, n, q) is off by 8.4e-13 where
    # betainc is within 1.5e-14.
    return betainc(n, m, r) if r <= 0.5 else betaincc(m, n, q)


def _log_nb_tilted(n, m: float, q: float):
    # log(w_n / r^n) = log((1 - r)^m (m)_n / n!), q = 1 - r, at an array n.
    # The difference of gammaln loses eps |gammaln(n)|, 1e-11 at n = 1e4; from
    # n = 16 (a = n + m - 1 >= 15), log((m)_n / n!) takes Stirling's form
    # (n + 1/2) log1p((m - 1) / n) + (m - 1)(log a - 1) + stirlerr(a) - stirlerr(n)
    out = gammaln(m + n) - gammaln(m) - gammaln(n + 1.0) + m * math.log(q)
    large = n >= 16.0
    big = n[large]
    a = big + (m - 1.0)
    out[large] = ((big + 0.5) * np.log1p((m - 1.0) / big) + (m - 1.0) * (np.log(a) - 1.0)
                  + _stirlerr(a) - _stirlerr(big) - gammaln(m) + m * math.log(q))
    return out


def _cut_below(lam, a):
    """Index below which N ~ Poisson(lam) has mass at most e^-a (Chernoff:
    P(N <= lam - t) <= e^(-t^2 / 2 lam))."""
    return np.maximum(np.floor(lam - np.sqrt(2.0 * lam * a)), 0.0)


def _cut_above(lam, a):
    """Index above which N ~ Poisson(lam) has mass at most e^-a (Bernstein:
    P(N >= lam + t) <= e^(-t^2 / 2(lam + t/3)))."""
    return np.ceil(lam + a / 3.0 + np.sqrt(a * a / 9.0 + 2.0 * lam * a))


def _poisson_sum(*terms) -> list[np.ndarray]:
    """One pass over several series: for each term (series, y), the sums

        sum over n in [lo_i, hi_i] of e^-y_i y_i^n / n! * c_n

    at each finite y_i > 0, with log c_n = series.log_coef(n) and
    (lo, hi) = series.window(y).

    Each sum is a function of its own y alone, whichever terms and entries
    share the pass. Its cell on a lattice of y fixed in advance (_cell)
    gives its reference index n0: the largest term of the cell's middle y,
    from the low end of the window at the cell's top edge to the high end
    of the window at its bottom edge, indices that every window of the cell
    holds as windows move with y. Each term is formed whole in log space
    relative to n0, so no factor underflows on its own,

        log p_n(y) = log p_n0(y) + (n - n0) log(y / n0) - log(n! / n0!),

    each piece small where the terms matter. The cell's row holds n0 and
    g_n = log c_n - log(n! / n0!) + (n - n0) log n0 over a range of n, with
    log(n! / n0!) accumulated outward from n0, one index after another, so
    that both depend on the cell alone, whatever the range. A series keeps
    its rows (_Series), and a pass forms only the rows of the cells that its
    series has not met, or whose kept range misses a window.
    The terms of each entry's own window are then added in an order fixed
    by their n alone (_row_sums), which neither other entries nor block
    boundaries can change.

    Cells go in chunks of at most _CHUNK index-by-cell entries (or one
    cell), series after series in the order of their first terms. A chunk
    forms its missing rows, each series' log_coef evaluated once over the
    union of their ranges, and then the terms of all its entries with one
    _log_poisson, one slope and one _row_sums, in blocks of about _BLOCK.
    Memory is thus the kept rows and coefficients, at most _KEEP entries of
    each a series and five series a thread (_stored), and a few arrays of
    the larger of _CHUNK and the widest cell range, which spans its
    entries' windows. A window of more than _MAX_WINDOW terms raises
    ArithmeticError before any row is formed, for the first such term.
    """
    sums = [np.empty(0)] * len(terms)
    by_series: dict[_Series, list[int]] = {}
    for k, (series, y) in enumerate(terms):
        if len(y):
            by_series.setdefault(series, []).append(k)
    if not by_series:
        return sums

    # each series' entries in order of y, and its cells, series after
    # series: cell k holds entries at[k] .. at[k + 1] - 1, which need the
    # indices need_lo[k] .. need_hi[k] of its row, and searched[k] is its
    # n0 search range (_edges); cell_of gives each entry's cell. One window
    # call per series takes its entries and its cells' edges.
    groups, found, series_of, key, need_lo, need_hi, at, searched = [], [], [], [], [], [], [], []
    done, wide = 0, False
    for series, ks in by_series.items():
        y = _join([terms[k][1] for k in ks])
        # entries in order, as a root finder's gains of one partition come,
        # are not sorted again
        order = None if np.all(y[1:] >= y[:-1]) else y.argsort(kind="stable")
        if order is not None:
            y = y[order]
        cell = _cell(y)
        new = np.empty(len(y), dtype=bool)
        new[0] = True
        np.not_equal(cell[1:], cell[:-1], out=new[1:])
        first = new.nonzero()[0]
        yc, y_lo, y_hi = _edges(cell[first])
        lo, hi = series.window(np.concatenate((y, y_hi, y_lo)))
        n, c = len(y), len(first)
        near, low, high = lo[n:n + c], lo[n + c:], hi[n:n + c]
        searched += zip(yc.tolist(), near.tolist(), np.maximum(hi[n + c:], near).tolist(),
                        low.tolist(), high.tolist())
        lo, hi = lo[:n], hi[:n]
        wide |= bool(np.count_nonzero(hi - lo >= _MAX_WINDOW))
        groups.append((ks, [0, *itertools.accumulate(len(terms[k][1]) for k in ks)], order))
        found.append((y, lo, hi, new.cumsum() + (len(key) - 1)))
        at += (first + done).tolist()
        need_lo += np.minimum.reduceat(lo, first).tolist()
        need_hi += np.maximum.reduceat(hi, first).tolist()
        cells = cell[first].tolist()
        series_of += [series] * len(cells)
        key += cells
        done += n
    # every term's windows, checked in term order before any row is formed
    if wide:
        _refuse_wide(terms)
    at.append(done)
    y, lo, hi, cell_of = map(_join, zip(*found))

    # a cell without a kept row that holds its range gets a new one, over
    # every window the cell can hold, its entries' windows and its n0
    # search range; held is the width the pass holds of each cell's row:
    # the needed range of a kept row, the whole of a new one
    rows = [series.rows.get(c) for series, c in zip(series_of, key)]
    held = [v - u + 1.0 for u, v in zip(need_lo, need_hi)]
    missing: dict[_Series, list[int]] = {}
    for k, row in enumerate(rows):
        if row is None or not row[1] <= need_lo[k] <= need_hi[k] < row[1] + len(row[2]):
            missing.setdefault(series_of[k], []).append(k)
    plans = {}
    for series, mine in missing.items():
        yc, near, reach, low, high = np.array([searched[k] for k in mine]).T
        start = np.minimum.reduce([near, low, [need_lo[k] for k in mine]])
        end = np.maximum.reduce([reach, high, [need_hi[k] for k in mine]])
        plans[series] = dict(zip(mine, zip(yc, near, reach, start, end - start + 1.0)))
        for k, width in zip(mine, (end - start + 1.0).tolist()):
            rows[k], held[k] = None, width

    total = np.empty(len(y))
    a = 0
    while a < len(key):
        b, span = a + 1, held[a]
        while b < len(key) and (b + 1 - a) * max(span, held[b]) <= _CHUNK:
            span = max(span, held[b])
            b += 1
        for series, plan in plans.items():
            _form(series, plan, key, rows, range(a, b))
        # each entry's terms start at g[base]
        parts = [row[2][int(u - row[1]):int(v - row[1]) + 1]
                 for row, u, v in zip(rows[a:b], need_lo[a:b], need_hi[a:b])]
        offset = np.array([0, *itertools.accumulate(len(p) for p in parts[:-1])]) - need_lo[a:b]
        pts = slice(at[a], at[b])
        cell = cell_of[pts] - a
        n0 = np.array([row[0] for row in rows[a:b]])[cell]
        total[pts] = _entry_sums(_join(parts), offset[cell] + lo[pts], y[pts], lo[pts], hi[pts], n0)
        # a row not kept is a view of its chunk's array: let that go
        rows[a:b] = [None] * (b - a)
        del parts
        a = b

    done = 0
    for ks, bounds, order in groups:
        out = total[done:done + bounds[-1]]
        if order is not None:
            out = np.empty(len(order))
            out[order] = total[done:done + len(order)]
        done += bounds[-1]
        for k, u, v in zip(ks, bounds, bounds[1:]):
            sums[k] = out[u:v]
    return sums


def _join(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _refuse_wide(terms) -> None:
    """Raise ArithmeticError for the first term of _poisson_sum with a
    window of more than _MAX_WINDOW terms, naming its widest, the lowest y
    first."""
    for series, y in terms:
        if not len(y):
            continue
        order = y.argsort(kind="stable")
        lo, hi = series.window(y[order])
        w = hi - lo
        if np.count_nonzero(w >= _MAX_WINDOW):
            i = np.argmax(w)
            raise ArithmeticError(
                f"series window too wide: {w[i] + 1.0:.4g} terms at beta*x = "
                f"{y[order][i]:.6g}, more than {_MAX_WINDOW}")


def _cell(y):
    # The lattice of _poisson_sum: from y = 1, 2 sqrt(y + 16) in [c, c + 1),
    # cells about sqrt(y) + 4 wide; below 1, octaves log2(y) in [c, c + 1),
    # so that a small y's middle is within a factor sqrt(2) of it.
    cell = 2.0 * np.sqrt(y + 16.0)
    small = y < 1.0
    if small.any():
        cell[small] = np.log2(y[small])
    return np.floor(cell, out=cell)


def _edges(cell):
    """Each cell's middle yc and its bottom and top edges y_lo and y_hi. A
    cell's n0 is searched from the low end of the window at its top edge
    to the high end of the window at its bottom edge, and every window in
    the cell spans from the low end of the window at its bottom edge to the
    high end of the window at its top edge."""
    key = cell[:, None] + np.array([0.5, 0.0, 1.0])
    yc, y_lo, y_hi = np.maximum((0.5 * key) ** 2 - 16.0, 1.0).T
    octave = key[:, 0] < 0.0
    if octave.any():
        yc[octave], y_lo[octave], y_hi[octave] = np.exp2(key[octave]).T
    return yc, y_lo, y_hi


def _form(series: "_Series", plan: dict, key: list, rows: list, cells: range) -> None:
    """Forms into rows[k] the row of each cell k among cells that plan
    holds for series: (its middle yc, its n0 search range [near, reach],
    its range start + [0, width)). A row that the series does not keep is
    a view of one array of them all, which lives as long as it does."""
    mine = [k for k in cells if k in plan]
    if mine:
        yc, near, reach, start, width = np.array([plan[k] for k in mine]).T
        n0, g = _form_rows(series.log_coef, yc, near, reach, start, width)
        for k, n0_k, start_k, g_k, width_k in zip(mine, n0.tolist(), start.tolist(), g,
                                                 width.tolist()):
            rows[k] = series.keep(key[k], n0_k, start_k, g_k[:int(width_k)])


def _form_rows(log_coef, yc, near, reach, start, width):
    """The rows of cells with middle yc[k], n0 search range [near[k],
    reach[k]] and range start[k] + [0, width[k]): each cell's n0, and its
    row g, padded to the widest."""
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
    at = n.searchsorted(start)
    g = coef[np.minimum(at[:, None] + np.arange(h), len(coef) - 1)]
    del coef
    n = start[:, None] + np.arange(h)
    # log p_n(yc) less its constant -yc, to the precision of gammaln, is
    # enough to find the largest term
    t = xlogy(n, yc[:, None]) - gammaln(n + 1.0) + g
    t[(n < near[:, None]) | (n > reach[:, None])] = -np.inf
    n0 = np.maximum(start + t.argmax(axis=1), 1.0)[:, None]
    del t
    # g becomes log c_n - log(n! / n0!) + (n - n0) log n0; the sums run
    # outward from n0, each adding one log(k / n0), so an entry depends
    # only on its n and its cell's n0. Each is log1p((k - n0) / n0), exact
    # to its last bits, where log(k / n0) would be off by up to an ulp of 1.
    up = np.log1p((np.maximum(n, n0) - n0) / n0)
    g -= up.cumsum(axis=1, out=up)
    down = np.log1p((np.minimum(n, n0 - 1.0) + 1.0 - n0) / n0)[:, ::-1]
    g += down.cumsum(axis=1, out=down)[:, ::-1]
    return n0[:, 0], g


def _entry_sums(g, base, y, lo, hi, n0) -> np.ndarray:
    # the sums of _poisson_sum at y, from their cells' n0 and rows: entry
    # i's terms start at g[base[i]]
    ref = _log_poisson(n0, y)
    # log(y / n0), through log1p where y is near n0 so it keeps its digits
    slope = np.log1p(np.maximum((y - n0) / n0, -0.5))
    far = y < 0.5 * n0
    if far.any():
        slope[far] = np.log(y[far] / n0[far])
    return _row_sums(g, base.astype(np.intp), (hi - lo + 1.0).astype(np.intp), ref, slope, lo - n0)


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
    by_width = w.argsort(kind="stable")
    span = _RUN * -(-w[by_width] // _RUN)
    # rows a..b-1 fit in _BLOCK terms, (b - a) span[b - 1] <= _BLOCK, when
    # last[b - 1] <= a; last rises with the row
    last = np.arange(1, len(w) + 1) - _BLOCK // span
    span, widths = span.tolist(), w[by_width].tolist()
    a = 0
    while a < len(w):
        b = max(a + 1, int(last.searchsorted(a, "right")))
        i = by_width[a:b, None]
        base_i, d_i, slope_i, ref_i, w_i = base[i], d[i], slope[i], ref[i], w[i]
        step = min(span[b - 1], _RUN * max(1, _BLOCK // (_RUN * (b - a))))
        total = np.zeros(b - a)
        for c in range(0, span[b - 1], step):
            j = np.arange(c, min(c + step, span[b - 1]))
            # an index past a point's width may run off g; its term is set
            # to 0 below
            terms = g.take(base_i + j, mode="clip")
            shift = d_i + j
            shift *= slope_i
            terms += shift
            terms += ref_i
            # terms past a point's width, all past the narrowest row's, become 0
            cut = max(widths[a] - c, 0)
            np.copyto(terms[:, cut:], -np.inf, where=j[cut:] >= w_i)
            np.exp(terms, out=terms)
            terms = terms.reshape(b - a, -1, _RUN)
            runs = terms[..., 0] + terms[..., 1]
            for k in range(2, _RUN):
                runs += terms[..., k]
            runs[:, 0] += total
            total = runs.cumsum(axis=1, out=runs)[:, -1]
        out[by_width[a:b]] = total
        a = b
    return out


class _Series:
    """A series of _poisson_sum, named by key: log c_n = log_coef(n), each
    value formed once (_Coefs), its window (lo, hi) = window(y), and the
    rows of its cells, each (n0, start, g) with g over start + [0, len(g)).
    Rows are kept while they hold at most _KEEP entries in all."""

    def __init__(self, key, log_coef, window):
        self.key = key
        self.log_coef = _Coefs(log_coef)
        self.window = window
        self.rows: dict[float, tuple[float, float, np.ndarray]] = {}
        self.size = 0

    def keep(self, cell: float, n0: float, start: float, g: np.ndarray):
        """The row (n0, start, g) of cell, kept in place of its old row
        while the rows fit in _KEEP entries."""
        old = self.rows.get(cell)
        size = self.size + len(g) - (0 if old is None else len(old[2]))
        if size > _KEEP:
            return n0, start, g
        self.rows[cell] = row = (n0, start, g.copy())
        self.size = size
        return row


class _Coefs:
    """log_coef of _poisson_sum for one series, each value formed once: the
    values are kept in one array indexed by n from its lowest, NaN where
    not formed yet, while that array spans at most _KEEP indices."""

    def __init__(self, log_coef):
        self.log_coef = log_coef
        self.start = 0.0
        self.value = np.empty(0)

    def __call__(self, n: np.ndarray) -> np.ndarray:
        # n is sorted and distinct, as _form_rows passes it
        end = self.start + len(self.value)
        lo, hi = n[0], n[-1] + 1.0
        if len(self.value):
            lo, hi = min(lo, self.start), max(hi, end)
        if hi - lo > _KEEP:
            return self.log_coef(n)
        if lo < self.start or hi > end:
            grown = np.full(int(hi - lo), np.nan)
            at = int(self.start - lo)
            grown[at:at + len(self.value)] = self.value
            self.start, self.value = lo, grown
        i = (n - self.start).astype(np.intp)
        out = self.value[i]
        new = np.isnan(out)
        if new.any():
            out[new] = self.log_coef(n[new])
            self.value[i[new]] = out[new]
        return out


def _stored(key, log_coef, window) -> _Series:
    """The series named by key, of the fading key[1]: the one this thread
    keeps, else a new one of log_coef and window, kept. A thread keeps the
    series of the last fading it asked for alone. No sum depends on which
    rows are kept (_poisson_sum): only time and memory do."""
    if getattr(_STORE, "fading", None) != key[1]:
        _STORE.fading, _STORE.series = key[1], {}
    series = _STORE.series.get(key)
    if series is None:
        series = _STORE.series[key] = _Series(key, log_coef, window)
    return series


def _tail(fading: SrFading, s: int, m: float) -> _Series:
    """The series sum_k w_k Q(k+1+s, y) at y > 0, w_k the mixture weights
    with shape m: P(N <= K + s) = sum_n p_n(y) P(K >= n - s), K ~ NB(m, r).
    The tail mass P(G >= x) is its sum at s = 0, m = fading.m, y = beta x.

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

    return _stored(("tail", fading, s, m), log_survival, window)


def _density(fading: SrFading) -> _Series:
    """The series sum_n p_n(y) P(K = n) at y = beta x: beta times its sum
    is the power-gain density at x. Its terms are at most the tail's
    (s = 0), so the tail's window omits at most _REL_TOL of the tail from
    it, which the solve's slope can take."""
    _, q = _mixture(fading)
    m = fading.m

    def log_pmf(n):
        # n log r, through log1p of q = 1 - r, which keeps its digits
        return _log_nb_tilted(n, m, q) + xlog1py(n, -q)

    return _stored(("density", fading), log_pmf, _tail(fading, 0, m).window)


def _below(fading: SrFading) -> _Series:
    """The CDF's series sum_n p_n(y) P(K < n) at y = beta x, P(K < n) =
    I_(1-r)(m, n).

    The omitted mass below the window is below _REL_TOL of the sum, P(K < n)
    being nondecreasing; above it, below _REL_TOL of the lower bound
    max(w_0 P(1, y), p_n(y) w_(n-1)) at n near r y + m.
    """
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

    return _stored(("cdf", fading), log_below, window)


def _moments(fading: SrFading, x: np.ndarray):
    """The terms of the two tail series of the first moment above each gain
    x, at the finite x > 0: sum_k w_k (k+1)/beta Q(k+2, beta x), split by
    k w_k(m) = m r/(1-r) w_(k-1)(m+1) into one series of shape m and one of
    shape m + 1 (_tail_mean). Neither cancels, so the mean stays accurate
    where each underflows relative to 1."""
    y = _inner(fading, x)
    return (_tail(fading, 1, fading.m), y), (_tail(fading, 2, fading.m + 1.0), y)


def _inner(fading: SrFading, x: np.ndarray) -> np.ndarray:
    """beta x at the gains x strictly between 0 and inf, where the series
    are summed."""
    return fading.beta * x[(x > 0.0) & (x < math.inf)]


def _fill(x: np.ndarray, sums: np.ndarray, at_zero: float) -> np.ndarray:
    """A distribution's values at gains x >= 0, from its series' sums at
    _inner(x), each at most 1: at_zero at x = 0 and 1 - at_zero at inf."""
    out = np.where(x == math.inf, 1.0 - at_zero, at_zero)
    out[(x > 0.0) & (x < math.inf)] = np.minimum(sums, 1.0)
    return out


def _gains(x) -> np.ndarray:
    """x as a 1-D float array of power gains."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("power gains must be a 1-D array")
    if not (arr >= 0.0).all():  # false at NaN too
        raise ValueError(f"power gain must be >= 0, got {float(np.min(arr))}")
    return arr


def sr_pdf(fading: SrFading, y):
    """Power-gain density alpha * exp(-beta y) * 1F1(m; 1; delta y).

    Accepts a scalar or ndarray. Evaluated in log form after Kummer's
    transformation, exp(-beta y) 1F1(m; 1; delta y) =
    exp(-(beta - delta) y) 1F1(1 - m; 1; -delta y), so values neither
    overflow nor underflow before the denormal floor.
    """
    arr = np.asarray(y, dtype=float)
    if not (arr >= 0.0).all():  # false at NaN too
        raise ValueError(f"power gain must be >= 0, got {float(np.min(arr))}")
    log_pdf = (math.log(fading.alpha)
               - (fading.beta - fading.delta) * arr
               + np.log(hyp1f1(1.0 - fading.m, 1.0, -fading.delta * arr)))
    out = np.exp(log_pdf)
    return float(out) if arr.ndim == 0 else out


def _tail_cutoff(fading: SrFading) -> float:
    # Beyond this gain the remaining CDF mass is far below 1e-16.
    bd = fading.beta - fading.delta
    return fading.mean_gain + (80.0 + 20.0 * max(fading.m, 1.0)) / bd


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER Gauss-Legendre nodes on [-1, 1] and their weights
    (Golub & Welsch 1969), formed on first use: only the oracle integrates.
    Read-only, as every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quadrature(f, edges, epsabs: float, epsrel: float) -> float:
    """Integral of f from edges[0] to edges[-1], where each two neighbouring
    edges bound one first panel.

    Adaptive Gauss-Legendre: each pass calls f once, on one 2-D array of
    the nodes of every open panel and of its two halves. The sum over the
    halves is the panel's value, and its distance from the panel's own rule
    is the panel's error. The integral is done once the errors of all
    panels sum to at most max(epsabs, epsrel |I|), QUADPACK's global
    criterion (Piessens et al. 1983). Until then, each pass closes the open
    panels of least error while the closed errors sum to at most half that
    bound, and halves the others. Raises NonConvergent where f is not finite
    at a node, or where more than _QUAD_MAX_PANELS panels would be needed.
    """
    nodes, weights = _gauss_legendre()
    edges = np.asarray(edges, dtype=float)
    where = f"quadrature over [{edges[0]}, {edges[-1]}]"
    lo, hi = edges[:-1], edges[1:]
    closed_value = closed_error = 0.0
    n_closed = 0
    while True:
        mid = 0.5 * (lo + hi)
        a, b = np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])
        half = 0.5 * (b - a)
        y = f((a + half)[:, None] + half[:, None] * nodes)
        if not np.isfinite(y).all():
            raise NonConvergent(f"{where}: the integrand is not finite")
        whole, left, right = (half * (y @ weights)).reshape(3, -1)
        value = left + right
        error = np.abs(whole - value)
        total = closed_value + float(value.sum())
        bound = max(epsabs, epsrel * abs(total))
        if closed_error + float(error.sum()) <= bound:
            return total
        # errors are >= 0, so the panels to close are a prefix of this order
        order = np.argsort(error)
        n = int(np.count_nonzero(closed_error + np.cumsum(error[order]) <= 0.5 * bound))
        close, split = order[:n], order[n:]
        closed_value += float(value[close].sum())
        closed_error += float(error[close].sum())
        n_closed += n
        if n_closed + 2 * len(split) > _QUAD_MAX_PANELS:
            raise NonConvergent(f"{where} did not converge within {_QUAD_MAX_PANELS} panels")
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])


def sr_cdf_quadrature(fading: SrFading, x) -> np.ndarray:
    """CDF at a 1-D array of gains x >= 0, each value the quadrature of the
    density sr_pdf over [0, x].

    Each interval is split at the mean gain, so the rule meets the
    exponential tail apart from the bulk, and ends at the tail cutoff,
    past which the mass is far below 1e-16; tolerance 1e-10, absolute and
    relative. The independent oracle of sr_cdf and tail_mass.
    """
    x = _gains(x)
    mean, cutoff = fading.mean_gain, _tail_cutoff(fading)
    pdf = functools.partial(sr_pdf, fading)
    out = np.array([
        quadrature(pdf, [0.0, hi] if hi <= mean else [0.0, mean, hi], 1e-10, 1e-10)
        for hi in np.minimum(x, cutoff).tolist()
    ])
    return np.clip(out, 0.0, 1.0)


def sr_cdf(fading: SrFading, x) -> np.ndarray:
    """Power-gain CDF sum_n p_n(beta x) P(K < n) at a 1-D array of gains
    x >= 0, with P(K < n) = I_(1-r)(m, n) (_below).

    Every term is positive, so small CDF values keep their digits.
    """
    x = _gains(x)
    (below,) = _poisson_sum((_below(fading), _inner(fading, x)))
    return _fill(x, below, 0.0)


def tail_mass(fading: SrFading, x) -> np.ndarray:
    """Complementary CDF P(G >= x) = sum_n p_n(beta x) P(K >= n) at a 1-D
    array of gains x >= 0 (_tail).

    The series has no cancellation, so tail probabilities far below 1e-16
    keep their digits.
    """
    x = _gains(x)
    (tail,) = _poisson_sum((_tail(fading, 0, fading.m), _inner(fading, x)))
    return _fill(x, tail, 1.0)


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
        if not (t[1] >= 0.0 and np.all(np.diff(t[1:]) > 0.0)):
            raise ValueError("thresholds must be strictly increasing above mu_0")
        if not self.top_mean_gain >= t[-1] ** 2:
            raise ValueError("top_mean_gain below the top threshold's gain")

    @property
    def n_states(self) -> int:
        return len(self.thresholds)

    def classify(self, gains: np.ndarray) -> np.ndarray:
        """1-based state index for each power gain sample.

        The state is K minus the count of the K squared thresholds that the
        gain lies strictly below: K comparisons per gain, each one boolean
        temporary, into one intp array. This equals
        np.searchsorted(thresholds**2, gains, side="right") for every gain:
        NaN compares below nothing and gets K, a negative gain lies below
        mu_0^2 = 0 and gets 0. The cost grows as K, the search's as log K:
        per 65536 gains on a 2-core Xeon it took 0.49 ms against the
        search's 1.20 ms at K = 8 and 0.93 ms against 1.84 ms at K = 16;
        the two broke even near K = 40, and at K = 64 it took 3.8 ms
        against 3.0 ms. The references use 8 states.
        """
        g = np.asarray(gains, dtype=float)
        state = np.full(g.shape, self.n_states, dtype=np.intp)
        for sq in self.thresholds**2:
            state -= g < sq
        return state


@dataclass(frozen=True)
class StateProbMatrix:
    """K x N grid of steady-state probabilities, one column per time slot."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("probs must be a K x N matrix")
        if not np.all((p >= 0.0) & (p <= 1.0)):
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


def state_probs(fading: SrFading, part: GainPartition) -> np.ndarray:
    """Steady-state probability of each gain state.

    pi_k = F(mu_k^2) - F(mu_{k-1}^2) for interior states; the top state
    takes the remaining tail mass. The tail and the CDF series go in one
    pass.
    """
    gains = part.thresholds ** 2
    x = _gains(gains[1:])
    tails, below = _poisson_sum((_tail(fading, 0, fading.m), _inner(fading, x)),
                                (_below(fading), _inner(fading, gains[1:2])))
    return _state_probs(_fill(gains[1:2], below, 0.0), _fill(x, tails, 1.0)[None, :])[0]


def _state_probs(below: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """state_probs, one row per partition, from the CDF at each first
    threshold's gain and the tail masses at its gains mu_1^2 .. mu_{K-1}^2
    (one row each)."""
    pi = np.empty((len(tails), tails.shape[1] + 1))
    pi[:, 0] = below
    # Interior probabilities are complementary-CDF differences: identical
    # to CDF differences in exact arithmetic, but they keep deep-tail
    # states from cancelling to zero.
    pi[:, 1:-1] = tails[:, :-1] - tails[:, 1:]
    pi[:, -1] = tails[:, -1]
    return np.clip(pi, 0.0, 1.0)


def state_prob_matrix(fading: SrFading, part: GainPartition, n_slots: int) -> StateProbMatrix:
    """Per-slot state probabilities: state_probs in each of n_slots
    columns, as the fading parameters are constant within a pass."""
    return StateProbMatrix.constant(state_probs(fading, part), n_slots)


def lcr(fading: SrFading, dop: DopplerSpec, r_th: float) -> float:
    """Level-crossing rate of the fading envelope at amplitude r_th.

    Series evaluation; each term couples a half-integer Pochhammer weight
    with a pair of confluent-hypergeometric factors 1F1(n + m; n + 1; z)
    from scipy.special.hyp1f1, in each of which the spectral-moment bracket
    enters squared. A factor past double range (about e^z, z = delta r_th^2,
    in the hundreds on line-of-sight fading) raises NonConvergent.
    """
    if not r_th > 0:
        raise ValueError(f"r_th must be > 0, got {r_th}")
    m, b0, om = fading.m, fading.b0, fading.omega
    b1, b2 = doppler_moments(fading, dop)
    det = b0 * b2 - b1 * b1
    bracket = b1 * b1 / (b0 * det)
    q = 2.0 * b0 * om / (2.0 * b0 * m + om)
    z = fading.delta * r_th * r_th

    def xi(n: int) -> float:
        factor = float(hyp1f1(n + m, n + 1.0, z))
        if not math.isfinite(factor):
            raise NonConvergent(
                f"crossing-rate series at r_th={r_th}: 1F1({n + m}; {n + 1.0}; {z}) "
                "overflows double precision"
            )
        scale = math.exp(math.lgamma(n + m) - n * math.log(2.0) - math.lgamma(n + 1.0))
        return scale * bracket**2.0 * q**n * factor

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


def afd(fading: SrFading, dop: DopplerSpec, amplitudes: np.ndarray,
        masses: np.ndarray) -> np.ndarray:
    """Average fade duration below each of a 1-D array of amplitudes: the
    CDF mass below it (masses, one each) over the crossing rate there.

    Where the crossing rate or the mass underflowed to 0 the duration is
    undefined, and it is returned as inf, as it is where the ratio
    overflows; no warning is raised for either.
    """
    bad = ~(amplitudes > 0)
    if bad.any():
        raise ValueError(f"r_th must be > 0, got {amplitudes[bad][0]}")
    rates = np.array([lcr(fading, dop, amp) for amp in amplitudes.tolist()])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where((rates > 0.0) & (masses > 0.0), masses / rates, np.inf)


def _tail_mean(fading: SrFading, x: np.ndarray, mass: np.ndarray, first: np.ndarray,
               second: np.ndarray) -> np.ndarray:
    """The conditional mean power gain E[G | G >= x] at a 1-D array of gains
    x >= 0, given the tail mass at each and the sums of the two series of
    _moments(fading, x). The moment above x = inf is 0, and so is its mass:
    it is refused."""
    out = np.full(len(x), fading.mean_gain)
    tail = x != 0.0
    if tail.any():
        r, q = _mixture(fading)
        moment = np.zeros(len(x))
        moment[(x > 0.0) & (x < math.inf)] = (first + fading.m * r / q * second) / fading.beta
        mass = mass[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[tail] = moment[tail] / mass
        bad = (mass <= 0.0) | ~np.isfinite(out[tail])
        if bad.any():
            raise ValueError(f"no resolvable tail mass above x={x[tail][bad][0]}")
    return out


def _tail_quantiles(fading: SrFading, tail: _Series, density: _Series, lo, hi, mass_lo,
                    mass_hi, targets, start) -> np.ndarray:
    """The gains g in the brackets [lo, hi] at which the tail mass T(g) meets
    its targets t, given the tail series' sums T(lo) > t >= T(hi), by a
    safeguarded Newton solve of h(g) = log(T(g) / t) from start, or from
    regula falsi where start is NaN.
    Each step is one pass of the tail and the density's series D at the
    open gains, for the slope -beta D / T; the sign of h moves a bracket end
    to g, and a step that would leave the bracket bisects it. An entry
    closes at g + step once the step is within _NEWTON_RTOL g, where
    quadratic convergence puts it within about an ulp of the root, or at g
    once its bracket is within about 2 ulp. An error e in the slope moves a
    gain by at most e _NEWTON_RTOL of itself. Raises NonConvergent where h
    is NaN or an entry is open after _ROOT_MAXITER steps.
    """
    # h = log(T / t) keeps its digits however deep the targets lie; where T
    # underflows to 0 it is -inf, and a step from there, or where D = 0, is
    # not finite: it bisects, as regula falsi does when T(hi) = 0
    with np.errstate(divide="ignore"):
        h_lo, h_hi = (np.log(np.minimum(v, 1.0) / targets) for v in (mass_lo, mass_hi))
    if np.isnan(h_lo).any() or np.isnan(h_hi).any():
        raise NonConvergent("partition solve: the tail mass is NaN at a bracket end")
    roots, active = np.empty_like(lo), np.arange(len(lo))
    g = np.where(np.isnan(start), lo + (hi - lo) * (h_lo / (h_lo - h_hi)), start)
    for _ in range(_ROOT_MAXITER):
        g = np.where((g > lo) & (g < hi), g, 0.5 * (lo + hi))
        mass, dens = _poisson_sum((tail, fading.beta * g), (density, fading.beta * g))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = np.log(np.minimum(mass, 1.0) / targets)
            step = h * mass / (fading.beta * dens)
        if np.isnan(h).any():
            raise NonConvergent(
                f"partition solve: the tail mass is NaN at gains {g[np.isnan(h)].tolist()}")
        lo, hi = np.where(h > 0.0, g, lo), np.where(h < 0.0, g, hi)
        x = g + step
        newton = (np.abs(step) <= _NEWTON_RTOL * g) & (x >= lo) & (x <= hi)
        done = newton | (hi - lo < _ROOT_XRTOL * g + _ROOT_XATOL)
        roots[active[done]] = np.where(newton, x, g)[done]
        if done.all():
            return roots
        active, lo, hi, targets, g = (v[~done] for v in (active, lo, hi, targets, x))
    raise NonConvergent(f"partition solve did not converge within {_ROOT_MAXITER} steps")


def _knot_starts(fading: SrFading, knots, tails, dens, targets):
    """Each target's bracket between two knots of its partition, and its
    Newton start there. knots holds each partition's rising knots, one row
    each, with the tail masses tails and density sums dens at them; targets,
    one row per partition, the tail masses its gains must meet.

    A target's bracket is the knots [lo, hi] with T(lo) > t >= T(hi), and
    its start the cubic Hermite interpolant there of v = log g against
    u = log(-log T), with slope dv/du = T (-log T) / (g beta D), at
    u = log(-log t). Where T falls as e^-(beta - delta) g, far out, or as
    1 - c g, near 0, v is close to linear in u. A start that is not finite
    or not inside its bracket is NaN. Returns lo, hi, T(lo), T(hi) and the
    start, flat in target order; past the last knot, hi and T(hi) are NaN.
    """
    last = knots.shape[1] - 1
    at = np.maximum(np.count_nonzero(tails[:, None, :] > targets[:, :, None], axis=2) - 1, 0)
    rows = np.arange(len(knots))[:, None]
    # a tail of 0 or 1 puts u at +-inf, and a density of 0 the slope at inf:
    # those starts are not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        neg_log = -np.log(tails)
        # at each knot: g, T, v, u and dv/du
        at_knots = np.stack((knots, tails, np.log(knots), np.log(neg_log),
                             tails * neg_log / (knots * fading.beta * dens)))
        lo, mass_lo, v_lo, u_lo, slope_lo = at_knots[:, rows, at]
        hi, mass_hi, v_hi, u_hi, slope_hi = at_knots[:, rows, np.minimum(at + 1, last)]
        width = u_hi - u_lo
        s = (np.log(-np.log(targets)) - u_lo) / width
        start = np.exp((1.0 + 2.0 * s) * (1.0 - s) ** 2 * v_lo
                       + s * (1.0 - s) ** 2 * width * slope_lo
                       + s * s * (3.0 - 2.0 * s) * v_hi
                       + s * s * (s - 1.0) * width * slope_hi)
    start[~((start > lo) & (start < hi))] = math.nan
    past = at == last
    hi[past] = mass_hi[past] = math.nan
    return lo.ravel(), hi.ravel(), mass_lo.ravel(), mass_hi.ravel(), start.ravel()


def partitions(fading: SrFading, firsts: np.ndarray, n_states: int, upper_thresholds
               ) -> tuple[list[GainPartition], np.ndarray]:
    """The K-state partitions above a 1-D array of first thresholds, all
    solved together, and their state probabilities (state_probs), one row
    each; the first column is the CDF at each first threshold's gain, the
    mass in its fade duration. Each partition and row equal those of its
    first threshold alone, bit for bit.

    By default the states above a first threshold share the remaining
    probability mass equally, solved in tail-mass domain, which survives
    first thresholds far into the tail; upper_thresholds (amplitudes,
    length K - 2, rising strictly above every first threshold) pins them
    instead. Each partition records its top state's conditional mean gain
    for finite upper-bound evaluation.

    The solve evaluates the tail mass and the density again and again, and
    every other series in one pass; each series is the one its thread keeps
    for the fading (_stored), so the solve reads the coefficients and rows
    that earlier calls formed and keeps those it forms. It makes one pass
    before its Newton solve (_tail_quantiles) and one after, evaluating each
    series at each gain once outside the solve. The pass before holds the
    tail at the first thresholds and at three more knots each, the density
    at those four knots (_knot_starts: each target's bracket and start), and
    the CDF at the first thresholds; the pass after, the tail at the other
    thresholds and the two series of the top mean gain (_moments). In
    between, each Newton step is one pass of the tail and the density at the
    same gains; a target past its partition's last knot first doubles its
    bracket's upper end, one pass each doubling, from there. With two
    states, or pinned upper thresholds, there is no solve and no knot.
    """
    if n_states < 2:
        raise ValueError(f"n_states must be >= 2, got {n_states}")
    if not (firsts >= 0).all():  # false at NaN too
        raise ValueError(f"first_threshold must be >= 0, got {firsts[~(firsts >= 0)][0]}")
    first = firsts[:, None]
    if upper_thresholds is not None:
        uppers = np.asarray(upper_thresholds, dtype=float)
        if not np.isfinite(uppers).all():
            raise ValueError(f"upper_thresholds must be finite, got {uppers.tolist()}")
        if len(uppers) != n_states - 2:
            raise ValueError(
                f"need {n_states - 2} upper thresholds for K={n_states}, got {len(uppers)}"
            )
        amplitudes = np.broadcast_to(uppers, (len(first), len(uppers)))
        rising = np.diff(np.hstack((first, amplitudes))) > 0.0
        if not rising.all():
            i = np.flatnonzero(~rising.all(axis=1))[0]
            raise ValueError(
                f"upper_thresholds must rise strictly above the first threshold "
                f"{float(firsts[i])!r}, got {uppers.tolist()}"
            )
    x1 = _gains(firsts ** 2)
    tail, below, density = _tail(fading, 0, fading.m), _below(fading), _density(fading)
    n_targets = n_states - 2 if upper_thresholds is None else 0
    # The knots of the Newton solve's start (_knot_starts): x1, where the
    # tail is s1, and three more. The tail at the first thresholds goes
    # first, so that a window too wide is refused for it before the others.
    knots = np.empty((len(x1), 0))
    if n_targets:
        end = 4.0 * np.maximum(2.0 * x1, fading.mean_gain)
        # at x1 = inf they are NaN, and left out of the pass
        with np.errstate(invalid="ignore"):
            knots = np.column_stack((x1, end[:, None] * (x1 / end)[:, None] ** _KNOT_POWERS))
    s1, tails, dens, cdf = _poisson_sum((tail, _inner(fading, x1)),
                                        (tail, _inner(fading, knots[:, 1:].ravel())),
                                        (density, _inner(fading, knots.ravel())),
                                        (below, _inner(fading, x1)))
    s1, cdf = _fill(x1, s1, 1.0), _fill(x1, cdf, 0.0)
    if upper_thresholds is None:
        # Below ~1e-290 the quantile targets leave the normal double range
        # and the solve sees quantized garbage; fail explicitly. (A first
        # threshold at inf has tail mass 0, and its knots are never used.)
        if np.any(s1 < 1e-290):
            i = np.flatnonzero(s1 < 1e-290)[0]
            raise ArithmeticError(
                f"no resolvable probability mass above threshold {first[i, 0]} "
                f"(tail mass {s1[i]:.3g})"
            )
        amplitudes = np.empty((len(x1), 0))
    if n_targets:
        targets = np.multiply.outer(s1, np.arange(n_targets, 0, -1)) / (n_targets + 1)
        tails = np.column_stack((s1, _fill(knots[:, 1:].ravel(), tails, 1.0).reshape(len(x1), -1)))
        dens = _fill(knots.ravel(), dens, math.nan).reshape(knots.shape)
        lo, hi, mass_lo, mass_hi, start = _knot_starts(fading, knots, tails, dens, targets)
        targets = targets.ravel()
        # past the last knot, hi doubles from it while the tail still
        # exceeds the target, each doubling one pass
        up = np.isnan(hi)
        hi[up] = 2.0 * lo[up]
        while np.any(up):
            if hi[up].max() > 1e12:
                raise ArithmeticError(f"tail quantile search diverged at targets {targets[up]}")
            (mass_hi[up],) = _poisson_sum((tail, fading.beta * hi[up]))
            up &= mass_hi > targets
            lo[up], mass_lo[up] = hi[up], mass_hi[up]
            hi[up] *= 2.0
        gains = _tail_quantiles(fading, tail, density, lo, hi, mass_lo, mass_hi, targets, start)
        amplitudes = np.sqrt(gains).reshape(len(first), n_targets)
    thresholds = np.hstack((np.zeros_like(first), first, amplitudes))
    # the tails at the other thresholds' squares, as state_probs takes them:
    # a solved gain and its threshold's square can differ by an ulp
    rest = _gains(thresholds[:, 2:].ravel() ** 2)
    top = thresholds[:, -1] ** 2
    rest_tail, *moments = _poisson_sum((tail, _inner(fading, rest)), *_moments(fading, top))
    tails = np.hstack((s1[:, None], _fill(rest, rest_tail, 1.0).reshape(len(first), -1)))
    tops = _tail_mean(fading, top, tails[:, -1], *moments)
    parts = [GainPartition(thresholds=t, top_mean_gain=float(top))
             for t, top in zip(thresholds, tops)]
    return parts, _state_probs(cdf, tails)
