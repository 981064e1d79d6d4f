"""Command-line front end.

Subcommands: analyze (closed-form report), sweep (CSV over one swept
parameter, optionally with simulation columns), simulate (Monte-Carlo
estimates), validate (oracle cross-check suite).

Exit codes: 0 success, 1 validation-suite failure; a refusal prints one
stderr line, `E_<CODE> <ExceptionClass>: <message>`, and exits 2 or 3.
"""

import argparse
import contextlib
import csv
import io
import logging
import sys
from pathlib import Path

from .pipeline import report_lines, run_analyze, run_simulate, run_sweep, run_validate
from .scenario import ParseError, UnknownKey, ValidationError, parse_scenario, parse_sweep

# (code, exit status) of a refusal, by the first class of its MRO listed
# here; any other exception is a fault and keeps its traceback.
_REFUSALS = {
    ParseError: ("E_PARSE", 2),
    UnknownKey: ("E_UNKNOWN_KEY", 2),
    ValidationError: ("E_VALIDATION", 2),
    argparse.ArgumentError: ("E_VALIDATION", 2),
    ValueError: ("E_VALIDATION", 2),  # configuration rejected outside the parser
    OSError: ("E_IO", 2),
    ArithmeticError: ("E_NUMERIC", 3),  # NonConvergent, ZeroCrossingRate, ZeroPower, ...
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # misuse is refused as any input is, with no usage block
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leolink",
        description="Closed-form and Monte-Carlo link metrics for a "
                    "time-varying satellite pass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, type=Path, help="scenario file path")
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
        return p

    command("analyze", "closed-form report")
    p_sweep = command("sweep", "CSV over one swept parameter")
    p_sweep.add_argument("--sweep", required=True,
                         help="KEY=START:STOP:STEPS or KEY=v1,v2,... (SI units)")
    p_sweep.add_argument("--with-sim", action="store_true", help="append Monte-Carlo columns")
    # analyze runs no simulation, so it takes no seed
    for p in (p_sweep, command("simulate", "Monte-Carlo estimates"),
              command("validate", "oracle cross-check suite")):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's simulation seed")
    return parser


@contextlib.contextmanager
def _cannot(action: str):
    """Lead an OSError's message with the action that failed."""
    try:
        yield
    except OSError as exc:
        raise type(exc)(f"cannot {action}: {exc}") from exc


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    # WARNING and above from leolink go to stderr for this call only, so
    # repeated calls do not stack handlers.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log = logging.getLogger("leolink")
    log.addHandler(handler)
    try:
        return _run(_build_parser().parse_args(argv))
    except tuple(_REFUSALS) as exc:
        code, status = next(_REFUSALS[c] for c in type(exc).__mro__ if c in _REFUSALS)
        print(f"{code} {type(exc).__name__}: {exc}", file=sys.stderr)
        return status
    finally:
        log.removeHandler(handler)


def _run(args: argparse.Namespace) -> int:
    try:
        with _cannot("read scenario"):
            text = args.scenario.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read scenario as UTF-8: '{args.scenario}': {exc}") from exc
    scn = parse_scenario(text)
    code = 0
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
    with _cannot("write output"):
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text, encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
