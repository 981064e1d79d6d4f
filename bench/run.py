#!/usr/bin/env python3
"""leolink benchmark: one-shot answer time, sweep cost and Monte-Carlo
oracle cost, with a traced run for per-layer numbers.

    python3 bench/run.py --workload sweep-height --seed 1234 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one at a time
    python3 bench/run.py --write-spec              # regenerate BENCHMARK.json

The checkout holding this file must also hold src/leolink and scenarios/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See bench/README.md.
"""

import os

# One BLAS thread, fixed before numpy is first imported (here or in a child).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DEFAULT_SECONDS = 15
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
# Calibration unit time at the reference speed; timings are reported as
# seconds at that speed (see scaled()). Close to this machine's uncontended
# speed.
CAL_REF_S = 0.0004
PROBE_INTERVAL_S = 0.05

WORKLOADS = {
    "cli-oneshot": "fresh-interpreter analyze on both references plus the isotropic default: "
                   "interpreter start, imports and one prepare()",
    "sweep-height": "run_sweep over orbit height for four fading sets and both schemes: "
                    "a new partition per point, quadrature and closed-form routes",
    "sweep-budget": "run_sweep over delay budgets across the outage knee: every point shares "
                    "one partition, so a partition cache or batched sweep shows here",
    "mc-simulate": "run_simulate on both references at 1e6 replications: the Monte-Carlo "
                   "rate, power and outage kernels",
    "mc-validate": "run_validate on both references at 1e6 replications: the oracle suite, "
                   "dominated by the vectorised CDF in ks_statistic",
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

MODULES = ("cli", "scenario", "geometry", "special", "channel", "schemes",
           "montecarlo", "pipeline")

# name, unit, how, span names. incl: inclusive seconds per operation;
# calls: calls per operation; per1e6: inclusive seconds per 1e6 work items;
# self: a module's self seconds per operation.
PER_LAYER = [
    ("cli.import_s", "s", "import", ()),
    ("cli.main_analyze_s", "s", "incl", ("cli.main",)),
    ("scenario.parse_scenario_s", "s", "incl", ("scenario.parse_scenario",)),
    ("scenario.apply_sweep_value_s", "s", "incl", ("scenario.apply_sweep_value",)),
    ("geometry.build_timeline_s", "s", "incl", ("geometry.build_timeline",)),
    ("special.confluent_1f1_calls", "count", "calls", ("special.confluent_1f1",)),
    ("special.confluent_1f1_s", "s", "incl", ("special.confluent_1f1",)),
    ("channel.tail_mass_s", "s", "incl",
     ("channel.tail_mass[int_m]", "channel.tail_mass[nonint_m]")),
    ("channel.tail_mass_int_m_s", "s", "incl", ("channel.tail_mass[int_m]",)),
    ("channel.tail_mass_nonint_m_s", "s", "incl", ("channel.tail_mass[nonint_m]",)),
    ("channel.sr_pdf_calls", "count", "calls", ("channel.sr_pdf",)),
    ("channel.equal_probability_partition_s", "s", "incl",
     ("channel.equal_probability_partition",)),
    ("channel.equal_probability_partition_calls", "count", "calls",
     ("channel.equal_probability_partition",)),
    ("channel.state_prob_matrix_s", "s", "incl", ("channel.state_prob_matrix",)),
    ("channel.afd_s", "s", "incl", ("channel.afd",)),
    ("channel.sr_cdf_many_s_per_1e6", "s", "per1e6", ("channel.sr_cdf_many",)),
    ("schemes.rat_report_s", "s", "incl", ("schemes.rat_report",)),
    ("schemes.pat_report_s", "s", "incl", ("schemes.pat_report",)),
    ("montecarlo.sample_sr_gain_s_per_1e6", "s", "per1e6", ("montecarlo.sample_sr_gain",)),
    ("montecarlo.simulate_rate_power_s_per_1e6", "s", "per1e6",
     ("montecarlo.simulate_rate_power",)),
    ("montecarlo.simulate_dor_s_per_1e6", "s", "per1e6", ("montecarlo.simulate_dor",)),
    ("montecarlo.ks_statistic_s_per_1e6", "s", "per1e6", ("montecarlo.ks_statistic",)),
    ("pipeline.prepare_s", "s", "incl", ("pipeline.prepare",)),
    ("pipeline.run_sweep_s_per_point", "s", "incl", ("pipeline.run_sweep",)),
] + [(f"{m}.self_s", "s", "self", (m,)) for m in MODULES] + [
    ("trace.overhead_pct", "%", "overhead", ()),
]


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u, _, _ in PER_LAYER],
    }


def median(xs) -> float:
    return float(statistics.median(xs))


def child(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    leolink and built the workload's inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            t0 = time.monotonic()
            proc = child([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", workload, "--seed", str(seed)])
            elapsed = float(proc.stdout.split()[-1]) - t0
        samples.append(scaled(elapsed, probe.speed()))
    return median(samples)


def measure_import() -> float:
    """Fresh `import leolink` minus a bare interpreter, medians of each,
    scaled like setup_s."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for cmd, into in (("pass", bare), ("import leolink", full)):
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                child([sys.executable, "-c", cmd])
                elapsed = time.perf_counter() - t0
            into.append(scaled(elapsed, probe.speed()))
    return median(full) - median(bare)


def _calibration_unit() -> float:
    """Seconds for a fixed piece of work: a scalar float recurrence like
    leolink's series and a few array passes like its Monte-Carlo kernels."""
    t0 = time.perf_counter()
    term = total = 1.0
    for n in range(2000):
        term = term * 0.999 + (n % 7) * 1e-3
        total += term / (n + 1.0)
    a = np.linspace(0.0, 1.0, 8192)
    for _ in range(4):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the speed the shared machine gives this process while an
    operation runs: one calibration unit just before, one every
    PROBE_INTERVAL_S from a SIGALRM handler (between bytecodes, so also
    while waiting for a child), and one just after. The handler's time,
    about 1% of an in-process operation's, stays in the operation's time;
    it scales with machine speed as the operation does."""

    _active = None

    @classmethod
    def _on_alarm(cls, signum, frame):
        unit = _calibration_unit()
        if cls._active is not None:
            cls._active.samples.append(unit)

    def __enter__(self):
        signal.signal(signal.SIGALRM, SpeedProbe._on_alarm)
        self.samples = [_calibration_unit()]
        SpeedProbe._active = self
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        SpeedProbe._active = None
        self.samples.append(_calibration_unit())
        return False

    def speed(self) -> float:
        return median(self.samples)


def run_round(wl, traced: bool):
    from workloads import Op, OpFailed, Round

    ops = []
    for task in wl.tasks():
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            try:
                out, ok, err = task.run(), True, ""
            except OpFailed as exc:
                out, ok, err = None, False, str(exc)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, ok, err = None, False, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        ops.append(Op(task.label, wall, probe.speed(), ok, task.count, out, err))
    return Round(ops, traced)


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds for about `seconds`: no new round starts once less than
    half a round's time is left. With a tracer, rounds alternate untraced /
    traced, starting untraced, at least one of each."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rounds.append(run_round(wl, traced))
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        if (now - start + 0.5 * (now - t0) >= seconds
                and (tracer is None or len(rounds) >= 2)):
            return rounds


def scaled(seconds: float, speed_s: float) -> float:
    """Seconds at the reference speed: measured seconds times
    CAL_REF_S / the calibration unit time measured alongside them."""
    return seconds * CAL_REF_S / speed_s


def round_s(r) -> float:
    return sum(scaled(op.wall_s, op.speed_s) for op in r.ops)


def typical_round(rounds) -> tuple[float, float]:
    """(seconds of all operations, seconds per successful operation) of a
    typical round: each operation's median scaled time over the rounds,
    summed over the round's operations."""
    times, ok_time, ok_count = {}, 0.0, 0
    for r in rounds:
        for op in r.ops:
            times.setdefault(op.label, []).append(scaled(op.wall_s, op.speed_s))
    for op in rounds[0].ops:
        oks = [scaled(o.wall_s, o.speed_s) for r in rounds for o in r.ops
               if o.label == op.label and o.ok]
        if oks:
            ok_time += median(oks)
            ok_count += op.count
    total = sum(median(t) for t in times.values())
    return total, ok_time / ok_count if ok_count else float("nan")


def end_to_end(workload: str, setup_s: float, rounds) -> dict:
    wall, per_op = typical_round(rounds)
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_s": per_op,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}


def per_layer(rounds, summary: dict, import_s: float) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n_ops = sum(op.count for r in traced for op in r.ops)
    values = {}
    for name, unit, how, spans in PER_LAYER:
        if how == "import":
            v = import_s
        elif how == "overhead":
            v = 100.0 * (median(round_s(r) for r in traced)
                         / median(round_s(r) for r in plain) - 1.0)
        elif how == "self":
            v = sum(s["self_s"] for k, s in summary.items()
                    if k.split(".")[0] == spans[0]) / n_ops
        else:
            stats = [summary.get(k, {"calls": 0.0, "incl_s": 0.0, "items": 0.0}) for k in spans]
            if how == "calls":
                v = sum(s["calls"] for s in stats) / n_ops
            elif how == "incl":
                v = sum(s["incl_s"] for s in stats) / n_ops
            else:  # per1e6
                items = sum(s["items"] for s in stats)
                v = 1e6 * sum(s["incl_s"] for s in stats) / items if items else 0.0
        values[name] = {"value": v, "unit": unit}
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(name, seed)
    import workloads
    from checks import CheckFailure

    wl = workloads.WORKLOADS[name](seed)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        wl.in_process = True  # cli-oneshot: trace cli.main in this process
    rounds = run_rounds(wl, seconds, tracer)

    correct = True
    try:
        wl.check(rounds)
    except CheckFailure as exc:
        correct = False
        print(f"CHECK FAILED {name}: {exc}", file=sys.stderr)
    except Exception:  # a crash in a check is a failed check, with its traceback
        correct = False
        traceback.print_exc()

    attempted = sum(op.count for r in rounds for op in r.ops)
    failed = sum(op.count for r in rounds for op in r.ops if not op.ok)
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
        metrics = per_layer(rounds, tracer.summary(), measure_import())
    else:
        metrics = end_to_end(name, setup_s, rounds)

    errors = {}
    for r in rounds:
        for op in r.ops:
            if not op.ok:
                key = f"{op.label}: {op.error}"
                errors[key] = errors.get(key, 0) + op.count
    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    for key, count in errors.items():
        print(f"  failed x{count}  {key}")
    for metric, v in metrics.items():
        print(f"  {metric:44s} {v['value']:.6g} {v['unit']}")
    print(f"  unscaled: round {median(sum(op.wall_s for op in r.ops) for r in rounds):.6g} s, "
          f"calibration {1e3 * median(op.speed_s for r in rounds for op in r.ops):.4g} ms "
          f"(reference {1e3 * CAL_REF_S:g} ms)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, [
        [{"label": op.label, "ok": op.ok, "wall_s": op.wall_s, "speed_s": op.speed_s,
          "traced": r.traced} for op in r.ops] for r in rounds]


def run_all(args) -> int:
    """Every workload in its own child process, one at a time."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if not proc.stdout.strip():
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{m}": v for w, r in rows.items() for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: workloads.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    missing = [p for p in ("src/leolink/__init__.py", "scenarios/reference_rat.scn",
                           "scenarios/reference_pat.scn") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a leolink checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)

    result, timings = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, rounds=timings), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
