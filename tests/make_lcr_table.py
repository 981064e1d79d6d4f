"""Reference level-crossing rates N(r) of the shadowed-Rician envelope,
written to tests/lcr_table.csv. Tier-1 reads the table; it does not run the
quadrature.

General rows are a nested quadrature of the model. The line-of-sight
amplitude A is Nakagami (A^2 is Gamma with shape m and mean omega) at a
uniform phase theta against the envelope, and given A and theta the
envelope's slope is Normal with mean -(b1/b0) A sin(theta) and variance
det / b0, det = b0 b2 - b1^2 (Rice 1945; Abdi et al. 2003). So

    N(r) = E_A[ int_{-pi}^{pi} r / (2 pi b0)
                 exp(-(r^2 - 2 r A cos(theta) + A^2) / (2 b0))
                 h(-(b1/b0) A sin(theta)) dtheta ],

with h(mu) = s phi(mu/s) + mu Phi(mu/s) and s^2 = det / b0, the mean of
the positive part of a Normal(mu, s^2). The spectral moments b1 and b2 are
themselves quadratures over the von Mises angle of arrival, so no row reads
leolink's moments or its crossing-rate series.

Two textbook limits are closed forms:
- Rayleigh (omega = 0): N = sqrt(det / (2 pi b0)) (r/b0) exp(-r^2 / (2 b0)).
- Rice (isotropic scattering, a line of sight of fixed power omega):
  N = sqrt(b2 / (2 pi)) (r/b0) exp(-(r^2 + omega) / (2 b0)) I0(r sqrt(omega) / b0).
  Its rows take m = 1e12, where the shadowing moves N by about 1e-11
  relative; the script checks the gap against the shadowed-Rician density.

Each row also gives x = bracket q / 2, with bracket = b1^2 / (b0 det) and
q = 2 b0 omega / (2 b0 m + omega): the crossing-rate series converges for
x < 1 only (ROADMAP item 11 covers the rest).

    PYTHONPATH=src python tests/make_lcr_table.py
"""

import csv
import math
from pathlib import Path

import mpmath
from scipy import integrate, special

from leolink.pipeline import prepare
from leolink.scenario import parse_scenario

from fading_sets import ABDI_SETS, LOS_SETS

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "lcr_table.csv"
COLUMNS = ["case", "m", "b0", "omega", "f_scatter_max_hz", "mean_aoa_rad", "aoa_width", "r",
           "lcr_per_s", "x", "source"]
F_HZ = 100.0
REFERENCE = (10.1, 0.126, 0.825)
# (mean angle of arrival, width): the references' directional spectrum, a
# wider one, two where the series diverges (x = 8.4 and 7.3), and isotropic
REFERENCE_AOA = (1.55, 24.2)
WIDE_AOA = (0.9, 5.0)
FORWARD_AOA = (0.0, 5.0)
BACKWARD_AOA = (3.0, 5.0)
ISOTROPIC = (0.0, 0.0)
RICE_M = 1e12
# outer quadrature span: past 40 standard deviations of the scattered part
# from r, the envelope density is below e^-800
SPAN_SIGMAS = 40.0


def moments(b0: float, mean_aoa: float, width: float) -> tuple[float, float]:
    """(b1, b2) = b0 (2 pi f)^k E[cos(theta)^k], k = 1, 2, under the von
    Mises angle of arrival, by quadrature over theta = mean_aoa + phi;
    isotropic scattering, where E[cos] = 0 and E[cos^2] = 1/2, in closed
    form."""
    if width == 0.0:
        return 0.0, b0 * 2.0 * (math.pi * F_HZ) ** 2

    def moment(k):
        value, _ = integrate.quad(
            lambda phi: math.cos(mean_aoa + phi) ** k * math.exp(width * (math.cos(phi) - 1.0)),
            -math.pi, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        return b0 * (2.0 * math.pi * F_HZ) ** k * value / (2.0 * math.pi * special.ive(0, width))
    return moment(1), moment(2)


def series_x(m: float, b0: float, omega: float, b1: float, b2: float) -> float:
    det = b0 * b2 - b1 * b1
    return b1 * b1 / (b0 * det) * (2.0 * b0 * omega / (2.0 * b0 * m + omega)) / 2.0


def nested_quadrature(m: float, b0: float, omega: float, b1: float, b2: float,
                      r: float) -> float:
    """N(r) by the nested quadrature of the module docstring, over the
    line-of-sight amplitude a and the phase theta."""
    s = math.sqrt((b0 * b2 - b1 * b1) / b0)
    log_nakagami = math.log(2.0) + m * math.log(m / omega) - math.lgamma(m)

    def h(mu):
        z = mu / s
        return s * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) + mu * special.ndtr(z)

    def inner(a):
        # exp(-(r^2 - 2 r a cos + a^2) / (2 b0)), formed without overflow
        def integrand(theta):
            return (math.exp(-((r - a) ** 2 + 2.0 * r * a * (1.0 - math.cos(theta))) / (2.0 * b0))
                    * h(-(b1 / b0) * a * math.sin(theta)))
        # the absolute floor only binds where the integrand nears underflow
        value, _ = integrate.quad(integrand, -math.pi, math.pi, points=[0.0],
                                  epsabs=1e-300, epsrel=1e-13, limit=400)
        return value

    def outer(a):
        if a == 0.0:
            return 0.0 if m > 0.5 else math.exp(log_nakagami) * inner(a)
        log_density = log_nakagami + (2.0 * m - 1.0) * math.log(a) - m * a * a / omega
        return math.exp(log_density) * inner(a)

    spread = SPAN_SIGMAS * math.sqrt(b0)
    lo, hi = max(0.0, r - spread), r + spread
    mode = math.sqrt(omega * max(2.0 * m - 1.0, 0.0) / (2.0 * m))
    points = sorted({p for p in (r, mode, math.sqrt(omega)) if lo < p < hi})
    value, _ = integrate.quad(outer, lo, hi, points=points or None, epsabs=0.0,
                              epsrel=1e-12, limit=800)
    return r / (2.0 * math.pi * b0) * value


def rayleigh(b0: float, b1: float, b2: float, r: float) -> float:
    det = b0 * b2 - b1 * b1
    return math.sqrt(det / (2.0 * math.pi * b0)) * (r / b0) * math.exp(-r * r / (2.0 * b0))


def rice(b0: float, omega: float, b2: float, r: float) -> float:
    a = r * math.sqrt(omega) / b0
    # I0(a) e^-a, so that the exponent stays in range
    return (math.sqrt(b2 / (2.0 * math.pi)) * (r / b0) * special.i0e(a)
            * math.exp(a - (r * r + omega) / (2.0 * b0)))


def shadowed_rice_isotropic(m: float, b0: float, omega: float, b2: float, r: float):
    """sqrt(b2 / (2 pi)) f_R(r) at 40 digits, f_R(r) = 2 r f_G(r^2) with the
    shadowed-Rician density f_G(y) = alpha e^(-beta y) 1F1(m; 1; delta y)."""
    with mpmath.workdps(40):
        m, b0, omega, r = (mpmath.mpf(v) for v in (m, b0, omega, r))
        den = 2 * b0 * m + omega
        alpha = (2 * b0 * m / den) ** m / (2 * b0)
        delta = omega / (2 * b0 * den)
        pdf = alpha * mpmath.exp(-r * r / (2 * b0)) * mpmath.hyp1f1(m, 1, delta * r * r)
        return float(mpmath.sqrt(b2 / (2 * mpmath.pi)) * 2 * r * pdf)


def reference_thresholds() -> list[float]:
    """The thresholds above 0 of both reference scenarios' partitions."""
    amplitudes = set()
    for scheme in ("rat", "pat"):
        scn = parse_scenario((ROOT / "scenarios" / f"reference_{scheme}.scn").read_text())
        amplitudes.update(prepare(scn).partition.thresholds[1:].tolist())
    return sorted(amplitudes)


def cases() -> list[tuple[str, tuple, tuple, float, str]]:
    """(case, (m, b0, omega), (mean_aoa, width), r, source) per row."""
    rows = []
    for r in reference_thresholds():
        rows.append(("reference-threshold", REFERENCE, REFERENCE_AOA, r, "quadrature"))
    sets = {"reference": REFERENCE, **ABDI_SETS}
    for name, aoa in (("reference", REFERENCE_AOA), ("reference", WIDE_AOA),
                      ("light", WIDE_AOA), ("heavy", REFERENCE_AOA), ("heavy", WIDE_AOA),
                      ("reference", ISOTROPIC), ("reference", FORWARD_AOA),
                      ("reference", BACKWARD_AOA)):
        for r in (0.354, 1.0):
            rows.append((name, sets[name], aoa, r, "quadrature"))
    for name in LOS_SETS:
        rows.append((name, LOS_SETS[name], REFERENCE_AOA, 0.431, "quadrature"))
    for aoa in (REFERENCE_AOA, WIDE_AOA, ISOTROPIC):
        for r in (0.354, 1.0, 2.0):
            rows.append(("rayleigh", (1.0, 0.5, 0.0), aoa, r, "rayleigh"))
    for r in (0.354, 1.0, 2.0):
        rows.append(("rice", (RICE_M, REFERENCE[1], REFERENCE[2]), ISOTROPIC, r, "rice"))
    return rows


def table_rows() -> list[list[str]]:
    out = []
    for name, (m, b0, omega), (mean_aoa, width), r, source in cases():
        b1, b2 = moments(b0, mean_aoa, width)
        if source == "quadrature":
            n = nested_quadrature(m, b0, omega, b1, b2, r)
            if width == 0.0:
                # isotropic: Rice's formula over the density in closed form
                gap = abs(shadowed_rice_isotropic(m, b0, omega, b2, r) / n - 1.0)
                assert gap < 1e-10, f"{name} at r={r}: quadrature off by {gap:.2e}"
        elif source == "rayleigh":
            n = rayleigh(b0, b1, b2, r)
        else:
            n = rice(b0, omega, b2, r)
            gap = abs(shadowed_rice_isotropic(m, b0, omega, b2, r) / n - 1.0)
            assert gap < 1e-10, f"rice row at r={r}: shadowing moves N by {gap:.2e}"
        case = f"{name}-aoa{mean_aoa:g}-w{width:g}-r{r:.6g}"
        out.append([case, *(repr(float(v)) for v in (m, b0, omega, F_HZ, mean_aoa, width, r, n,
                                                     series_x(m, b0, omega, b1, b2))), source])
    return out


if __name__ == "__main__":
    with TABLE.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(table_rows())
    print(f"wrote {TABLE}")
