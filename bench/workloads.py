"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks of a run's outputs.

Every run repeats whole rounds of the same operations, so the share of
failed operations is the same in every run whatever its length or seed.
Operations are closed-loop: each starts when the previous one has ended,
on one thread, with subprocesses run one at a time.
"""

import contextlib
import dataclasses
import io
import logging
import math
import os
import random
import re
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import leolink  # noqa: E402
import leolink.cli  # noqa: E402
import leolink.pipeline  # noqa: E402
from leolink.scenario import SweepSpec, apply_sweep_value, parse_scenario  # noqa: E402

import checks  # noqa: E402

# Reference pass geometry logs a slot-remainder warning on every prepare();
# keep it off the benchmark's own streams.
logging.getLogger("leolink").addHandler(logging.NullHandler())

DEFAULT_SEED = 1234  # the reference scenarios' own [sim] seed

# Abdi et al. 2003 shadowing sets (m, b0, omega), plus the average set with
# m rounded to an integer, which takes leolink's closed-form route.
FADING_SETS = {
    "light": (19.4, 0.158, 1.29),
    "average": (10.1, 0.126, 0.835),
    "heavy": (0.739, 0.063, 8.97e-4),
    "integer-m": (10.0, 0.126, 0.835),
}
HEIGHTS_KM = (500.0, 700.0, 900.0, 1100.0)
HEIGHT_JITTER_KM = 20.0
# Delay budgets across the outage knee: 500 Kbits at the 60 Mbit/s
# worst-slot state-2 rate takes 8.33 ms, and lambda is tens of seconds.
BUDGETS_S = (0.003, 0.006, 0.009, 0.03, 3.0, 300.0)
BUDGET_JITTER = 0.05
MC_SAMPLES = 1_000_000
MC_RAT_BUDGET = "20 ms"

SUBPROCESS_TIMEOUT_S = 170


def set_key(text: str, key: str, value: str | None) -> str:
    """Scenario text with the single `key = ...` line replaced (or removed
    when value is None)."""
    pattern = re.compile(rf"^(\s*){re.escape(key)}\s*=.*$", re.MULTILINE)
    if len(pattern.findall(text)) != 1:
        raise ValueError(f"scenario text must hold exactly one {key!r} line")
    if value is None:
        return pattern.sub("", text)
    return pattern.sub(rf"\g<1>{key} = {value}", text)


def reference_text(scheme: str, seed: int) -> str:
    text = (ROOT / "scenarios" / f"reference_{scheme}.scn").read_text(encoding="utf-8")
    return set_key(text, "seed", str(seed))


def with_fading(text: str, fading: tuple[float, float, float]) -> str:
    m, b0, omega = fading
    for key, value in (("m", m), ("b0", b0), ("omega", omega)):
        text = set_key(text, key, repr(value))
    return text


class OpFailed(Exception):
    """An operation ended in a reported error (a nonzero CLI exit)."""


@dataclass(frozen=True)
class Task:
    """One operation of a round: `count` sweep points or one command/call.
    `run` returns the output or raises."""

    label: str
    count: int
    run: Callable[[], object]


@dataclass
class Op:
    """A finished task. speed_s is the median calibration unit time measured
    while it ran (run.SpeedProbe)."""

    label: str
    wall_s: float
    speed_s: float
    ok: bool
    count: int = 1
    output: object = None
    error: str = ""


@dataclass
class Round:
    ops: list[Op]
    traced: bool = False


def _csv_rows(header, rows) -> list[dict]:
    return [{h: float(v) for h, v in zip(header, row)} for row in rows]


class Workload:
    name = ""
    in_process = False  # cli-oneshot only: run analyze through cli.main

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def tasks(self) -> list[Task]:
        """The operations of one round, in order. Functions are looked up
        when a task runs, so a tracer's wrappers are seen."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> None:
        """Raise checks.CheckFailure on a wrong output."""
        raise NotImplementedError

    def check_repeats(self, rounds: list[Round]) -> None:
        first = [(op.ok, op.output, op.error) for op in rounds[0].ops]
        for i, r in enumerate(rounds[1:], start=2):
            if [(op.ok, op.output, op.error) for op in r.ops] != first:
                raise checks.CheckFailure(f"round {i} outputs differ from round 1")


class CliOneshot(Workload):
    """`python -m leolink analyze` in a fresh interpreter on the RAT and PAT
    reference scenarios, and on the RAT reference without its aoa_width
    line (isotropic scattering, the documented default)."""

    name = "cli-oneshot"

    def __init__(self, seed: int):
        super().__init__(seed)
        work = OUT / "work" / f"{self.name}-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        rat = reference_text("rat", seed)
        texts = {
            "rat": rat,
            "pat": reference_text("pat", seed),
            "rat-isotropic": set_key(rat, "aoa_width", None),
        }
        self.paths = {}
        self.scenarios = {}
        for label, text in texts.items():
            path = work / f"{label}.scn"
            path.write_text(text, encoding="utf-8")
            self.paths[label] = path
            self.scenarios[label] = parse_scenario(text)

    def _subprocess(self, path: Path) -> str:
        cmd = [sys.executable, "-m", "leolink", "analyze", "--scenario", str(path)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return self._result(proc.returncode, proc.stdout, proc.stderr)

    def _in_process(self, path: Path) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = leolink.cli.main(["analyze", "--scenario", str(path)])
        return self._result(code, out.getvalue(), err.getvalue())

    @staticmethod
    def _result(code: int, stdout: str, stderr: str) -> str:
        if code != 0:
            errors = [ln for ln in stderr.splitlines() if ln.startswith("E_")]
            kind = errors[-1].split(":")[0] if errors else "no E_ line on stderr"
            raise OpFailed(f"exit {code}: {kind}")
        return stdout

    def tasks(self) -> list[Task]:
        run = self._in_process if self.in_process else self._subprocess
        return [Task(label, 1, lambda path=path: run(path)) for label, path in self.paths.items()]

    def check(self, rounds: list[Round]) -> None:
        self.check_repeats(rounds)
        for op in rounds[0].ops:
            if not op.ok:
                continue
            values = {}
            for line in op.output.splitlines():
                key, _, value = (s.strip() for s in line.partition("="))
                values[key] = value if key == "scheme" else float(value)
            scn = self.scenarios[op.label]
            if values.get("scheme") != scn.scheme:
                raise checks.CheckFailure(f"{op.label}: analyze printed {values}")
            checks.check_report(scn, values)


class _Sweep(Workload):
    """In-process run_sweep without simulation columns; one op per point."""

    def sweeps(self) -> list[tuple[str, object, SweepSpec]]:
        raise NotImplementedError

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = self.sweeps()

    def tasks(self) -> list[Task]:
        return [Task(label, len(spec.values),
                     lambda scn=scn, spec=spec: leolink.pipeline.run_sweep(scn, spec))
                for label, scn, spec in self.jobs]

    def check(self, rounds: list[Round]) -> None:
        self.check_repeats(rounds)
        prepared = {}  # prepare() reads no traffic input: budget points share one
        for (label, scn, spec), op in zip(self.jobs, rounds[0].ops):
            if not op.ok:
                continue
            header, rows = op.output
            rows = _csv_rows(header, rows)
            for value, row in zip(spec.values, rows):
                point = apply_sweep_value(scn, spec.path, value)
                key = dataclasses.replace(point, traffic=None)
                if key not in prepared:
                    prepared[key] = leolink.pipeline.prepare(point)
                parts = prepared[key]
                checks.check_parts(point, parts)
                checks.check_sweep_row(point, row)
                if point.scheme == "pat":
                    checks.check_pat_dor(point, row["dor"], parts.lam_s,
                                         checks.pi_bottom(point))
            self.check_monotone(label, spec.values, rows)


class SweepHeight(_Sweep):
    """Both schemes over orbit heights for four fading sets. Every point
    builds a new partition."""

    name = "sweep-height"

    def sweeps(self):
        heights = tuple(
            min(max(1e3 * (h + HEIGHT_JITTER_KM * (self.rng.random() - 0.5)), 500e3), 1100e3)
            for h in HEIGHTS_KM)
        spec = SweepSpec("geometry.orbit_height", heights)
        jobs = []
        for set_name, fading in FADING_SETS.items():
            for scheme in ("rat", "pat"):
                scn = parse_scenario(with_fading(reference_text(scheme, self.seed), fading))
                jobs.append((f"{scheme}/{set_name}", scn, spec))
        return jobs

    @staticmethod
    def check_monotone(label, values, rows):
        for col in ("throughput_lo_bps", "throughput_hi_bps"):
            checks.check_non_increasing(f"{label} {col} over height", values,
                                        [r[col] for r in rows])


class SweepBudget(_Sweep):
    """Both reference schemes over delay budgets across the outage knee.
    Every point shares one fading set and one first threshold."""

    name = "sweep-budget"

    def sweeps(self):
        budgets = tuple(b * math.exp(BUDGET_JITTER * (2.0 * self.rng.random() - 1.0))
                        for b in BUDGETS_S)
        spec = SweepSpec("traffic.delay_threshold", budgets)
        return [(scheme, parse_scenario(reference_text(scheme, self.seed)), spec)
                for scheme in ("rat", "pat")]

    @staticmethod
    def check_monotone(label, values, rows):
        checks.check_non_increasing(f"{label} dor over delay budget", values,
                                    [r["dor"] for r in rows])


def mc_scenarios(seed: int) -> dict:
    rat = set_key(reference_text("rat", seed), "delay_threshold", MC_RAT_BUDGET)
    pat = reference_text("pat", seed)
    return {label: parse_scenario(set_key(text, "n_samples", str(MC_SAMPLES)))
            for label, text in (("rat", rat), ("pat", pat))}


class _Oracle(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenarios = mc_scenarios(seed)

    def reports(self):
        out = {}
        for label, scn in self.scenarios.items():
            report = leolink.pipeline.run_analyze(scn)
            values = {k: getattr(report, k) for k in (
                "throughput_lo_bps", "throughput_hi_bps", "avg_power_lo_w",
                "avg_power_hi_w", "ee_lo_bpj", "ee_hi_bpj", "dor")}
            values["lambda_s"] = report.lam_s
            checks.check_report(scn, values)
            out[label] = report
        return out


class McSimulate(_Oracle):
    """run_simulate on both reference scenarios at 1e6 replications."""

    name = "mc-simulate"

    def tasks(self) -> list[Task]:
        return [Task(label, 1, lambda scn=scn: leolink.pipeline.run_simulate(scn, seed=self.seed))
                for label, scn in self.scenarios.items()]

    def check(self, rounds: list[Round]) -> None:
        self.check_repeats(rounds)
        reports = self.reports()
        for op in rounds[0].ops:
            if op.ok:
                header, row = op.output
                values = {h: (v if h == "rng" else float(v)) for h, v in zip(header, row)}
                checks.check_simulation(self.scenarios[op.label], reports[op.label], values)


class McValidate(_Oracle):
    """run_validate on both reference scenarios at 1e6 replications."""

    name = "mc-validate"

    def tasks(self) -> list[Task]:
        return [Task(label, 1, lambda scn=scn: leolink.pipeline.run_validate(scn, seed=self.seed))
                for label, scn in self.scenarios.items()]

    def check(self, rounds: list[Round]) -> None:
        self.check_repeats(rounds)
        reports = self.reports()
        for op in rounds[0].ops:
            if op.ok:
                checks.check_validate(reports[op.label], op.output, MC_SAMPLES,
                                      strict=self.seed == DEFAULT_SEED)


WORKLOADS = {cls.name: cls for cls in (CliOneshot, SweepHeight, SweepBudget,
                                       McSimulate, McValidate)}
