"""Command-line front end.

Subcommands: compute (per-step risk table), conditional (chance of a
diagnosis in the next N years given cancer free today), compare (two-cohort
deltas), simulate (Monte Carlo cross-check), figures (export the three
result data series). Diagnostics go to stderr and data to stdout or files,
so output stays machine-consumable; the exit status is 0 exactly when
nothing was written to stderr.
"""

import argparse
import sys
from operator import attrgetter
from pathlib import Path

from .core import (
    CohortMeta,
    CumriskError,
    OutOfRange,
    RiskSeries,
    compare,
    conditional_risk,
    risk_series,
)
from .io import ParseError, _emit_rows, emit_comparison, emit_series, parse_cohort
from .simulate import SimulationConfig, empirical_series, simulate

__all__ = ["main", "NotMultipleOfFive"]

SIMULATION_COLUMNS = ("t", "age_label", "empirical_p_red", "analytic_p_red", "diff")


class NotMultipleOfFive(CumriskError):
    """CLI ages and horizons must align to the five-year grid."""


def _load_cohort(path: str, args) -> "Cohort":
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text ({exc.reason})",
                         line=exc.object.count(b"\n", 0, exc.start) + 1) from None
    meta = CohortMeta(region=args.region, year=args.year, sex=args.sex)
    return parse_cohort(text, meta)


def _write_output(document: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(document)
    else:
        Path(out).write_text(document, encoding="utf-8")


def _cmd_compute(args) -> int:
    cohort = _load_cohort(args.dataset, args)
    series = risk_series(cohort)
    if args.upto is not None:
        kept = [
            step
            for step, record in zip(series.steps, cohort.records)
            if record.age_low <= args.upto
        ]
        if not kept:
            raise OutOfRange(
                f"--upto {args.upto} keeps no age groups "
                f"(the first group starts at age {cohort.records[0].age_low})"
            )
        series = RiskSeries(kept)
    _write_output(emit_series(series, args.format), args.out)
    return 0


def _cmd_conditional(args) -> int:
    cohort = _load_cohort(args.dataset, args)
    if args.age % 5 != 0 or args.horizon % 5 != 0:
        raise NotMultipleOfFive(
            f"--age and --horizon must be multiples of 5 years "
            f"(got --age {args.age} --horizon {args.horizon})"
        )
    current_step = args.age // 5
    horizon_steps = args.horizon // 5
    groups = len(cohort.records)
    if args.age < 0:
        raise OutOfRange(f"--age must be >= 0, got {args.age}")
    if horizon_steps < 1:
        raise OutOfRange(f"--horizon must be at least 5 years, got {args.horizon}")
    if current_step + horizon_steps > groups:
        raise OutOfRange(
            f"--age {args.age} plus --horizon {args.horizon} exceeds the data; "
            f"the dataset's maximum age is {5 * groups} years "
            f"(last group {cohort.records[-1].age_label})"
        )
    print(f"{conditional_risk(cohort, current_step, horizon_steps):.6f}")
    return 0


def _cmd_compare(args) -> int:
    cohort_a = _load_cohort(args.dataset_a, args)
    cohort_b = _load_cohort(args.dataset_b, args)
    _write_output(emit_comparison(compare(cohort_a, cohort_b), args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cohort = _load_cohort(args.dataset, args)
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=args.bulbs, seed=args.seed))
    rows = [
        (step.t, step.age_label, emp.p_red, step.p_red, emp.p_red - step.p_red)
        for emp, step in zip(empirical_series(result), risk_series(cohort).steps)
    ]
    head = {"seed": result.seed, "n_bulbs": result.n_bulbs}
    _write_output(_emit_rows(SIMULATION_COLUMNS, rows, args.format, head, None), args.out)
    return 0


def _cmd_figures(args) -> int:
    if not args.out:
        raise CumriskError("--out directory must not be empty")
    cohort = _load_cohort(args.dataset, args)
    series = risk_series(cohort)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def figure(*columns):
        return _emit_rows(columns, map(attrgetter(*columns), series.steps), "csv", {}, None)

    outputs = {
        "fig4_transitions.csv": figure("t", "age_label", "b"),
        "fig5_red.csv": figure("t", "age_label", "p_red"),
        "fig6_summary.csv": emit_series(series, "csv"),
    }
    for name, document in outputs.items():
        path = outdir / name
        path.write_text(document, encoding="utf-8")
        print(path)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, with_format=True, with_out=True) -> None:
    if with_format:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="output format (default: csv)")
    if with_out:
        parser.add_argument("--out", default=None, metavar="PATH",
                            help="output path (default: stdout)")
    parser.add_argument("--region", default="", help="cohort region label")
    parser.add_argument("--year", default="", help="cohort calendar-year label")
    parser.add_argument("--sex", default="", help="cohort sex label")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumrisk",
        description="Cumulative cancer-risk engine for age-grouped incidence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="per-step transition/rate/risk table for one cohort")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--upto", type=int, default=None, metavar="AGE",
                   help="drop groups starting above AGE years")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("conditional",
                       help="chance of a diagnosis in the next N years, given cancer free now")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--age", type=int, required=True, help="current age in years (multiple of 5)")
    p.add_argument("--horizon", type=int, required=True,
                   help="years ahead to look (multiple of 5)")
    _add_common_flags(p, with_format=False, with_out=False)
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("compare", help="per-step differences between two cohorts (first minus second)")
    p.add_argument("dataset_a", help="first cohort CSV file")
    p.add_argument("dataset_b", help="second cohort CSV file")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check against the analytic risk")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--bulbs", type=int, default=1_000_000, metavar="N",
                   help="population size (default: 1000000)")
    p.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default: 0)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figures", help="write the three result data series as CSV files")
    p.add_argument("dataset", help="cohort CSV file")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    _add_common_flags(p, with_format=False, with_out=False)
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CumriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
