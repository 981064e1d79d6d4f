#!/usr/bin/env python3
"""Shows that each output check rejects a deliberately perturbed input.

    python3 bench/selftest.py

Every check first passes on the program's real output, then runs once on a
copy with one value perturbed (by one part in a million or less where the
check is a tolerance) and must raise CheckFailure. Exits 1 if any check
accepts its perturbed input or rejects the real one.
"""

import dataclasses
import math
import sys

import numpy as np

import workloads  # puts the checkout's src/ on sys.path
import checks
import leolink.channel as channel
import leolink.pipeline as pipeline
from leolink.scenario import apply_sweep_value, parse_scenario

CheckFailure = checks.CheckFailure
problems = []


def expect(name: str, fn, *, reject: bool) -> None:
    try:
        fn()
        rejected = False
    except CheckFailure:
        rejected = True
    ok = rejected == reject
    print(f"{'ok  ' if ok else 'BAD '} {'rejects' if reject else 'accepts'}  {name}")
    if not ok:
        problems.append(name)


def report_values(report) -> dict:
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    values["lambda_s"] = values.pop("lam_s")
    return values


def main() -> int:
    rat = parse_scenario(workloads.reference_text("rat", workloads.DEFAULT_SEED))
    pat = parse_scenario(workloads.reference_text("pat", workloads.DEFAULT_SEED))
    parts = pipeline.prepare(rat)

    # Partition, geometry and state probabilities.
    expect("check_parts", lambda: checks.check_parts(rat, parts), reject=False)
    bump = 1.0 + 1e-9
    expect("check_parts: d_max",
           lambda: checks.check_parts(rat, dataclasses.replace(parts, d_max_m=parts.d_max_m * bump)),
           reject=True)
    mu = parts.partition.thresholds.copy()
    mu[1] *= bump
    moved_first = dataclasses.replace(parts, first_threshold=parts.first_threshold * bump,
                                      partition=channel.GainPartition(mu, parts.partition.top_mean_gain))
    expect("check_parts: first threshold", lambda: checks.check_parts(rat, moved_first), reject=True)
    mu = parts.partition.thresholds.copy()
    mu[3] *= 1.0 + 1e-6
    moved = channel.GainPartition(mu, parts.partition.top_mean_gain)
    expect("check_parts: state probabilities at a moved threshold",
           lambda: checks.check_parts(rat, dataclasses.replace(parts, partition=moved)), reject=True)
    consistent = channel.state_prob_matrix(rat.fading, moved, parts.timeline.n_slots)
    expect("check_parts: equal tail mass",
           lambda: checks.check_parts(rat, dataclasses.replace(parts, partition=moved,
                                                                probs=consistent)),
           reject=True)

    # analyze reports.
    rat_values = report_values(pipeline.run_analyze(rat, parts))
    expect("check_report rat", lambda: checks.check_report(rat, rat_values), reject=False)
    for key in ("avg_power_lo_w", "ee_hi_bpj"):
        bad = dict(rat_values, **{key: rat_values[key] * (1.0 + 1e-8)})
        expect(f"check_report rat: {key}", lambda bad=bad: checks.check_report(rat, bad),
               reject=True)
    swapped = dict(rat_values, throughput_lo_bps=rat_values["throughput_hi_bps"],
                   throughput_hi_bps=rat_values["throughput_lo_bps"])
    expect("check_report rat: lo > hi", lambda: checks.check_report(rat, swapped), reject=True)

    pat_late = apply_sweep_value(pat, "traffic.delay_threshold", 100.0)
    pat_values = report_values(pipeline.run_analyze(pat_late))
    expect("check_report pat", lambda: checks.check_report(pat_late, pat_values), reject=False)
    bad = dict(pat_values, throughput_lo_bps=pat_values["throughput_lo_bps"] * (1.0 + 1e-8))
    expect("check_report pat: throughput", lambda: checks.check_report(pat_late, bad), reject=True)
    bad = dict(pat_values, lambda_s=pat_values["lambda_s"] * (1.0 + 1e-6))
    expect("check_report pat: dor law at another lambda",
           lambda: checks.check_report(pat_late, bad), reject=True)

    # Sweep rows and orderings.
    row = {k: rat_values[k] for k in ("throughput_lo_bps", "throughput_hi_bps",
                                      "ee_lo_bpj", "ee_hi_bpj", "dor")}
    expect("check_sweep_row rat", lambda: checks.check_sweep_row(rat, row), reject=False)
    bad = dict(row, ee_lo_bpj=row["ee_lo_bpj"] * (1.0 + 1e-8))
    expect("check_sweep_row rat: power from throughput / ee",
           lambda: checks.check_sweep_row(rat, bad), reject=True)
    expect("check_non_increasing", lambda: checks.check_non_increasing("x", [1, 2], [2.0, 1.0]),
           reject=False)
    expect("check_non_increasing: swapped points",
           lambda: checks.check_non_increasing("x", [1, 2], [1.0, 1.0 + 1e-12]), reject=True)

    # Simulation against the closed form.
    mc = workloads.mc_scenarios(workloads.DEFAULT_SEED)
    small = {k: apply_sweep_value(s, "sim.n_samples", 100_000) for k, s in mc.items()}
    for label, scn in small.items():
        report = pipeline.run_analyze(scn)
        header, row = pipeline.run_simulate(scn)
        sim = {h: (v if h == "rng" else float(v)) for h, v in zip(header, row)}
        expect(f"check_simulation {label}",
               lambda: checks.check_simulation(scn, report, sim), reject=False)
        bad = dict(sim, sim_rate_bps=report.throughput_hi_bps + 5.01 * sim["sim_rate_se"])
        expect(f"check_simulation {label}: rate above bracket",
               lambda: checks.check_simulation(scn, report, bad), reject=True)
        bad = dict(sim, sim_dor=report.dor - 5.01 * sim["sim_dor_se"] - 1e-12)
        expect(f"check_simulation {label}: dor",
               lambda: checks.check_simulation(scn, report, bad), reject=True)
        if label == "rat":
            power = rat.rat.tx_power_w * (1.0 - checks.pi_bottom(scn))
            bad = dict(sim, sim_power_w=power + 5.01 * sim["sim_power_se"])
            expect("check_simulation rat: power",
                   lambda: checks.check_simulation(scn, report, bad), reject=True)

    # validate results.
    scn = small["pat"]
    report = pipeline.run_analyze(scn)
    results = pipeline.run_validate(scn)
    n = scn.sim.n_samples
    expect("check_validate strict", lambda: checks.check_validate(report, results, n, True),
           reject=False)

    def with_result(name, passed, detail):
        return [dataclasses.replace(c, passed=passed, detail=detail) if c.name == name else c
                for c in results]

    crit = checks.KS_WIDE / math.sqrt(n)
    se = math.sqrt(report.dor * (1.0 - report.dor) / n)
    cases = [
        ("state_frequencies", "max |z| = 3.50 (limit 3)", "max |z| = 5.01 (limit 3)"),
        ("sampler_ks", f"D = {0.6 * crit:.5f}, crit(1%) = 0", f"D = {1.01 * crit:.5f}, crit(1%) = 0"),
        ("rate_bracket",
         f"sim {report.throughput_hi_bps + 1.0:.17g} vs [a, b] (3se = 3)",
         f"sim {report.throughput_hi_bps + 5.1:.17g} vs [a, b] (3se = 3)"),
        ("dor_closed_vs_sim",
         f"sim {report.dor + 4 * se:.17g} vs closed x (tol {3 * se:.17g})",
         f"sim {report.dor + 5.1 * se:.17g} vs closed x (tol {3 * se:.17g})"),
    ]
    for name, near, far in cases:
        expect(f"check_validate: {name} failed inside the wide bound",
               lambda near=near, name=name: checks.check_validate(
                   report, with_result(name, False, near), n, False), reject=False)
        expect(f"check_validate: {name} beyond the wide bound",
               lambda far=far, name=name: checks.check_validate(
                   report, with_result(name, False, far), n, False), reject=True)
        expect(f"check_validate strict: {name} failed",
               lambda near=near, name=name: checks.check_validate(
                   report, with_result(name, False, near), n, True), reject=True)
    expect("check_validate: dor_integral failed",
           lambda: checks.check_validate(report, with_result("dor_integral", False, "x"), n, False),
           reject=True)

    # Repeats across rounds.
    ops = [workloads.Op("a", 1.0, 1.0, True, output=np.float64(1.0))]
    again = [workloads.Op("a", 1.0, 1.0, True, output=np.float64(1.0 + 2.0**-52))]
    expect("check_repeats", lambda: workloads.Workload(1).check_repeats(
        [workloads.Round(ops), workloads.Round(list(ops))]), reject=False)
    expect("check_repeats: differing round",
           lambda: workloads.Workload(1).check_repeats(
               [workloads.Round(ops), workloads.Round(again)]), reject=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
