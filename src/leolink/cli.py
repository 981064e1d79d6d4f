"""Command-line front end.

Subcommands: analyze (closed-form report), sweep (CSV over one swept
parameter, optionally with simulation columns), simulate (Monte-Carlo
estimates), validate (oracle cross-check suite).

Exit codes: 0 success, 1 validation-suite failure, 2 scenario parse or
validation error or unwritable output, 3 numerical failure.
"""

import argparse
import csv
import io
import logging
import sys
from pathlib import Path

from .pipeline import (
    report_lines,
    run_analyze,
    run_simulate,
    run_sweep,
    run_validate,
)
from .scenario import ScenarioError, parse_scenario, parse_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leolink",
        description="Closed-form and Monte-Carlo link metrics for a "
                    "time-varying satellite pass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, type=Path,
                       help="scenario file path")
        p.add_argument("--out", type=Path, default=None,
                       help="output file (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="closed-form report")
    add_common(p_analyze)

    p_sweep = sub.add_parser("sweep", help="CSV over one swept parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", required=True,
                         help="KEY=START:STOP:STEPS or KEY=v1,v2,... (SI units)")
    p_sweep.add_argument("--with-sim", action="store_true",
                         help="append Monte-Carlo columns")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimates")
    add_common(p_sim)

    p_val = sub.add_parser("validate", help="oracle cross-check suite")
    add_common(p_val)

    # analyze runs no simulation, so it takes no seed
    for p in (p_sweep, p_sim, p_val):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's simulation seed")

    return parser


def _write(out_path: Path | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.write_text(text, encoding="utf-8")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # WARNING and above from leolink go to stderr for this call only, so
    # repeated calls do not stack handlers.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log = logging.getLogger("leolink")
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)


def _run(args: argparse.Namespace) -> int:
    try:
        scenario_text = args.scenario.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"E_IO: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    code = 0
    try:
        scn = parse_scenario(scenario_text)
        if args.command == "analyze":
            text = "\n".join(report_lines(scn, run_analyze(scn))) + "\n"
        elif args.command == "sweep":
            sweep = parse_sweep(args.sweep)
            text = _csv_text(*run_sweep(scn, sweep, with_sim=args.with_sim, seed=args.seed))
        elif args.command == "simulate":
            header, row = run_simulate(scn, seed=args.seed)
            text = _csv_text(header, [row])
        else:  # validate
            checks = run_validate(scn, seed=args.seed)
            text = "\n".join(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                             for c in checks) + "\n"
            if not all(c.passed for c in checks):
                code = 1
    except ScenarioError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NonConvergent, ZeroCrossingRate, ZeroPower, ...
        print(f"E_NUMERIC {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # configuration rejected outside the parser
        print(f"E_VALIDATION {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        _write(args.out, text)
    except OSError as exc:
        print(f"E_IO: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
