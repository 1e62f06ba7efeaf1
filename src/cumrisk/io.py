"""CSV ingestion of cohort tables and CSV/JSON emission of result series.

Cohort files are UTF-8 comma-separated text with a header line. Required
columns (any order, case-insensitive): age_low, age_high, population,
incidence, cancer_deaths. Optional: other_deaths. age_high is exclusive and
may be the literal "open" on the final row for an open-ended group. Every
parse error names the offending line and column.
"""

import csv
import math
from io import StringIO
from json.encoder import encode_basestring_ascii

from .core import (
    AgeGroupRecord,
    Cohort,
    ComparisonReport,
    ComparisonRow,
    CumriskError,
    InvalidCohort,
    InvalidRecord,
    RiskSeries,
    RiskStep,
)
# The parser raises these core classes too, so callers may import them from here.
from .core import InconsistentRecord, NegativeCount, NonContiguousAges  # noqa: F401

__all__ = [
    "REQUIRED_COLUMNS",
    "OPTIONAL_COLUMNS",
    "SERIES_COLUMNS",
    "COMPARISON_COLUMNS",
    "ParseError",
    "MissingColumn",
    "MalformedNumber",
    "EmptyCohort",
    "parse_cohort",
    "emit_cohort",
    "emit_series",
    "emit_comparison",
    "float_repr",
]

REQUIRED_COLUMNS = ("age_low", "age_high", "population", "incidence", "cancer_deaths")
OPTIONAL_COLUMNS = ("other_deaths",)
SERIES_COLUMNS = RiskStep._fields
COMPARISON_COLUMNS = ComparisonRow._fields


class ParseError(CumriskError):
    """A cohort document is not a readable table; pinpoints line and column."""


class MissingColumn(ParseError):
    pass


class MalformedNumber(ParseError):
    pass


class EmptyCohort(ParseError):
    pass


def float_repr(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def _count_repr(value: float) -> str:
    # counts are usually whole numbers; keep files free of trailing ".0"
    f = float(value)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def _number(kind, raw: str, line: int, column: str):
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise MalformedNumber(f"expected {expected}, got {raw!r}", line=line, column=column) from None


def parse_cohort(text: str) -> Cohort:
    """Parse a cohort CSV document into a validated Cohort.

    Group indices are assigned 1..G in file order. Blank lines are skipped;
    unknown extra columns are ignored, even when repeated or blank. The
    parser reads the table; building the Cohort validates it, and an error
    there is given the line of the group it names.
    """
    # csv finds the line ends itself; str.splitlines would also break at form feeds
    reader = csv.reader(StringIO(text.lstrip("\ufeff"), newline=""))
    positions = None
    records: list[AgeGroupRecord] = []
    lines: list[int] = []  # the line of each group, in index order
    try:
        for row in reader:
            line = reader.line_num
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if positions is None:
                # the position of each column read: REQUIRED_COLUMNS, then other_deaths if present
                names = [cell.lower() for cell in cells]
                read = [name for name in names if name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
                for idx, name in enumerate(read):
                    if name in read[:idx]:
                        raise ParseError("duplicate column", line=line, column=name)
                for name in REQUIRED_COLUMNS:
                    if name not in read:
                        raise MissingColumn("required column missing from header", line=line, column=name)
                positions = [names.index(name) for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if name in read]
                low_at, high_at, population_at, incidence_at, deaths_at = positions[:5]
                width = max(positions[:5]) + 1
                other_at = positions[5] if len(positions) > 5 else -1  # -1: not in the header
                continue
            if len(cells) < width:
                column = next(name for name, at in zip(REQUIRED_COLUMNS, positions) if at >= len(cells))
                raise MalformedNumber("missing value", line=line, column=column)
            other = cells[other_at] if 0 <= other_at < len(cells) else ""  # absent or empty: not given
            records.append(AgeGroupRecord(
                len(records) + 1, _number(int, cells[low_at], line, "age_low"),
                None if cells[high_at].lower() == "open" else _number(int, cells[high_at], line, "age_high"),
                _number(float, cells[population_at], line, "population"),
                _number(float, cells[incidence_at], line, "incidence"),
                _number(float, cells[deaths_at], line, "cancer_deaths"),
                None if other == "" else _number(float, other, line, "other_deaths")))
            lines.append(line)
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None
    if not records:
        raise EmptyCohort("no data rows found")
    try:
        return Cohort(records=records)
    except (InvalidRecord, InvalidCohort) as exc:
        exc.line = lines[exc.index - 1]
        raise


def emit_cohort(cohort: Cohort) -> str:
    """Render a cohort back into the ingestion format, numerically lossless."""
    with_other = any(record.other_deaths is not None for record in cohort.records)
    columns = REQUIRED_COLUMNS + (OPTIONAL_COLUMNS if with_other else ())
    rows = []
    for record in cohort.records:
        row = (
            record.age_low,
            "open" if record.is_open else record.age_high,
            _count_repr(record.population),
            _count_repr(record.incidence),
            _count_repr(record.cancer_deaths),
        )
        if with_other:
            row += ("" if record.other_deaths is None else _count_repr(record.other_deaths),)
        rows.append(row)
    return _emit_rows(columns, rows, "csv", {}, None)


def _json_value(value) -> str:
    # json.dumps's own type tests, in its order, and its spellings
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):  # also a float subclass, such as numpy's float64
        return ("NaN" if value != value else "Infinity" if value == math.inf
                else "-Infinity" if value == -math.inf else float.__repr__(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_rows(columns, rows, format: str, head: dict, comment: str | None) -> str:
    """Render rows of values, one per column and in column order, as CSV or JSON.

    Floats are written at full precision (str of a float is its shortest
    round-trip repr), so parsing them back recovers the exact doubles. JSON is
    written directly, as ``json.dumps({**head, "steps": [dict(zip(columns,
    row)), ...]}, indent=2)`` would write it (``head`` has no key "steps");
    CSV writes a ``comment`` as a leading "# " line.
    """
    if format == "json":
        # one %s per value in a step; an exact finite float, the common case, skips the type tests
        keys = [encode_basestring_ascii(column).replace("%", "%%") for column in columns]
        step = ",".join([f"\n      {key}: %s" for key in keys])
        step = f"    {{{step}\n    }}" if step else "    {}"
        values = tuple([f"{value!r}" if type(value) is float and value - value == 0.0 else _json_value(value)
                        for row in rows for value in row])
        items = [f"  {encode_basestring_ascii(key)}: {_json_value(value)}" for key, value in head.items()]
        steps = ",\n".join([step] * len(rows)) % values
        items.append(f'  "steps": [\n{steps}\n  ]' if steps else '  "steps": []')
        return "{\n" + ",\n".join(items) + "\n}\n"
    if format != "csv":
        raise CumriskError(f"unknown output format {format!r} (expected 'csv' or 'json')")
    template = ",".join(["{}"] * len(columns))
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    lines.extend(template.format(*values) for values in rows)
    return "\n".join(lines) + "\n"


def emit_series(series: RiskSeries, format: str = "csv") -> str:
    """Render a risk series as CSV (fixed column order) or JSON.

    Floats are written at full precision: parsing them back recovers the
    exact doubles. Identical series produce byte-identical documents.
    """
    return _emit_rows(SERIES_COLUMNS, series.steps, format, {}, None)


def emit_comparison(report: ComparisonReport, format: str = "csv") -> str:
    """Render a comparison report; truncation is noted, never silent.

    CSV carries a leading comment line when the cohorts had different
    lengths; JSON always carries both lengths and the truncated flag.
    """
    comment = None
    if report.truncated:
        comment = (f"truncated to the shared prefix of {len(report.rows)} steps "
                   f"(first cohort has {report.steps_a}, second has {report.steps_b})")
    head = {"steps_a": report.steps_a, "steps_b": report.steps_b, "truncated": report.truncated}
    return _emit_rows(COMPARISON_COLUMNS, report.rows, format, head, comment)
