"""Command-line front end.

Subcommands: compute (per-step risk table), conditional (chance of a
diagnosis in the next N years given cancer free today), compare (two-cohort
deltas), simulate (Monte Carlo cross-check), figures (export the three
result data series). Diagnostics go to stderr and data to stdout or files,
so output stays machine-consumable; the exit status is 0 exactly when
nothing was written to stderr.
"""

import argparse
import os
import sys
from operator import attrgetter
from pathlib import Path

from .core import (
    Cohort,
    CumriskError,
    OutOfRange,
    compare,
    conditional_risk,
    risk_series,
)
from .io import ParseError, _emit_rows, emit_comparison, emit_series, parse_cohort

__all__ = ["main"]

SIMULATION_COLUMNS = ("t", "age_label", "empirical_p_red", "analytic_p_red", "diff")

# Input files are read up to this many bytes; a larger one is refused. An
# 18-group table is under 1 KB, and /dev/zero or a FIFO must not fill memory.
MAX_INPUT_BYTES = 16 * 2**20


def _load_cohort(path: str) -> Cohort:
    """The cohort in the file at ``path``; an error in reading or parsing it names the file."""
    try:
        with open(path, "rb") as file:
            data = file.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        exc.filename = path  # open names the file itself, a failed read does not
        raise
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{path!r} is larger than the input limit of {MAX_INPUT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "\n", "\r" and "\r\n" end a line, for bytes.splitlines as for csv
        error = ParseError(f"not UTF-8 text ({exc.reason})", line=len((data[:exc.start] + b".").splitlines()))
    else:
        del data  # the bytes are not needed once decoded; parsing makes a copy of its own
        try:
            return parse_cohort(text)
        except CumriskError as exc:
            error = exc
    raise type(error)(f"{path!r}: {error}") from None


def _cmd_compute(args) -> str:
    steps = risk_series(_load_cohort(args.dataset)).steps
    if args.upto is not None:
        # groups are contiguous five-year spans from age 0, so group i starts at age 5 * (i - 1)
        steps = steps[:max(0, args.upto // 5 + 1)]
        if not steps:
            raise OutOfRange(f"--upto {args.upto} keeps no age groups (the first group starts at age 0)")
    return emit_series(steps, args.format)


def _cmd_conditional(args) -> str:
    cohort = _load_cohort(args.dataset)
    if args.age % 5 != 0 or args.horizon % 5 != 0:
        raise OutOfRange(f"--age and --horizon must be multiples of 5 years "
                         f"(got --age {args.age} --horizon {args.horizon})")
    return repr(conditional_risk(cohort, args.age // 5, args.horizon // 5)) + "\n"


def _cmd_compare(args) -> str:
    cohort_a = _load_cohort(args.dataset_a)
    cohort_b = _load_cohort(args.dataset_b)
    return emit_comparison(compare(cohort_a, cohort_b), args.format)


def _cmd_simulate(args) -> str:
    cohort = _load_cohort(args.dataset)
    # Imported here, after the input is read, so that only this subcommand can load numpy, and not
    # for a file it refuses; the simulator imports numpy only for a run over its budget of
    # bulb-steps. cumrisk uses no BLAS, whose idle threads would only take CPU from the simulator's.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .simulate import SimulationConfig, empirical_series, simulate

    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=args.bulbs, seed=args.seed))
    rows = [
        (step.t, step.age_label, emp.p_red, step.p_red, emp.p_red - step.p_red)
        for emp, step in zip(empirical_series(result), risk_series(cohort).steps)
    ]
    head = {"seed": result.seed, "n_bulbs": result.n_bulbs}
    return _emit_rows(SIMULATION_COLUMNS, rows, args.format, head, None)


def _cmd_figures(args) -> str:
    series = risk_series(_load_cohort(args.dataset))
    outdir = Path(args.directory)
    outdir.mkdir(parents=True, exist_ok=True)

    def figure(*columns):
        return _emit_rows(columns, list(map(attrgetter(*columns), series.steps)), "csv", {}, None)

    outputs = {
        "fig4_transitions.csv": figure("t", "age_label", "b"),
        "fig5_red.csv": figure("t", "age_label", "p_red"),
        "fig6_summary.csv": emit_series(series, "csv"),
    }
    for name, document in outputs.items():
        (outdir / name).write_text(document, encoding="utf-8")
    return "".join(f"{outdir / name}\n" for name in outputs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumrisk",
        description="Cumulative cancer-risk engine for age-grouped incidence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    output.add_argument("--out", default=None, metavar="PATH", help="output path (default: stdout)")

    p = sub.add_parser("compute", parents=[output],
                       help="per-step transition/rate/risk table for one cohort")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--upto", type=int, default=None, metavar="AGE",
                   help="drop groups starting above AGE years")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("conditional",
                       help="chance of a diagnosis in the next N years, given cancer free now")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--age", type=int, required=True, help="current age in years (multiple of 5)")
    p.add_argument("--horizon", type=int, required=True,
                   help="years ahead to look (multiple of 5)")
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("compare", parents=[output],
                       help="per-step differences between two cohorts (first minus second)")
    p.add_argument("dataset_a", help="first cohort CSV file")
    p.add_argument("dataset_b", help="second cohort CSV file")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", parents=[output],
                       help="Monte Carlo cross-check against the analytic risk")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--bulbs", type=int, default=1_000_000, metavar="N",
                   help="population size (default: 1000000)")
    p.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default: 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figures", help="write the three result data series as CSV files")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--out", required=True, dest="directory", metavar="DIR", help="output directory")
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the text for stdout, or for the file of --out where the subcommand has one
    to_stdout = getattr(args, "out", None) in (None, "-")
    try:
        # checked first, so that no subcommand leaves files behind and then fails
        if to_stdout and sys.stdout is None:
            raise CumriskError("standard output is closed")
        # '' would name the working directory; figures keeps its --out as args.directory
        if "" in (getattr(args, "out", None), getattr(args, "directory", None)):
            raise CumriskError("--out must not be empty")
        document = args.func(args)
        if to_stdout:
            sys.stdout.write(document)
            sys.stdout.flush()  # here, a reader that has gone is one error line, not a failure at exit
        else:
            Path(args.out).write_text(document, encoding="utf-8")
    except (CumriskError, OSError) as exc:
        if to_stdout and isinstance(exc, BrokenPipeError):
            # what stays buffered goes to /dev/null, so the interpreter's flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
