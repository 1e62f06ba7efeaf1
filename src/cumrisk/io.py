"""CSV ingestion of cohort tables and CSV/JSON emission of result series.

Cohort files are UTF-8 comma-separated text with a header line. Required
columns (any order, case-insensitive): age_low, age_high, population,
incidence, cancer_deaths. Optional: other_deaths. age_high is exclusive and
may be the literal "open" on the final row for an open-ended group, and one
leading byte-order mark is allowed. A fault in the header, a cell or a group
names its line and column (a group after the open-ended one has no column),
unreadable CSV only its line, and a document without data rows neither.
"""

import csv
import operator
from io import StringIO
from itertools import chain, compress, count, repeat

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

__all__ = [
    "REQUIRED_COLUMNS",
    "OPTIONAL_COLUMNS",
    "SERIES_COLUMNS",
    "COMPARISON_COLUMNS",
    "ParseError",
    "parse_cohort",
    "emit_cohort",
    "emit_series",
    "emit_comparison",
]

REQUIRED_COLUMNS = ("age_low", "age_high", "population", "incidence", "cancer_deaths")
OPTIONAL_COLUMNS = ("other_deaths",)
SERIES_COLUMNS = RiskStep._fields
COMPARISON_COLUMNS = ComparisonRow._fields


class ParseError(CumriskError):
    """A cohort document is not a table of numbers: a bad header or cell, unreadable CSV, no data rows."""


def _count_repr(value: float) -> str:
    # counts are usually whole numbers; keep files free of trailing ".0"
    f = float(value)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def _malformed(cells: list[str], positions: list[int], line: int) -> ParseError:
    """The error for the first cell of a data row, in column order, that does not convert."""
    for column, at in zip(REQUIRED_COLUMNS + OPTIONAL_COLUMNS, positions):
        raw = cells[at] if at < len(cells) else ""
        kind, expected = (int, "an integer") if column.startswith("age_") else (float, "a number")
        try:
            kind(raw)
        except ValueError:
            # "open" ends the last group, and a blank other_deaths is not given: neither is malformed
            if not (column == "age_high" and raw.lower() == "open" or column == "other_deaths" and raw == ""):
                return ParseError(f"expected {expected}, got {raw!r}", line=line, column=column)


def parse_cohort(text: str) -> Cohort:
    """Parse a cohort CSV document into a validated Cohort.

    Group indices are assigned 1..G in file order. Blank lines are skipped;
    unknown extra columns are ignored, even when repeated or blank. The
    parser reads the table; building the Cohort validates it, and an error
    there is given the line of the group it names. Reading stops where Cohort
    stops drawing records: at the group after the first MAX_GROUPS.
    """
    # csv finds the line ends itself; str.splitlines would also break at form feeds
    stream = StringIO(text, newline="")
    stream.seek(1 if text[:1] == "\ufeff" else 0)  # past one byte-order mark; removeprefix would copy the text
    lines: list[int] = []  # the line of each group, in index order
    try:
        return Cohort(records=_records(csv.reader(stream), lines))
    except (InvalidRecord, InvalidCohort) as exc:
        exc.line = lines[exc.index - 1]
        raise


def _records(reader, lines: list[int]):
    """Yield the AgeGroupRecord of each data row of a csv reader, after appending its line to ``lines``."""
    positions = None
    try:
        # csv yields [] for an empty line, which filter drops without a Python step; line_num stays the
        # line of the row yielded
        for row in filter(None, reader):
            line = reader.line_num
            cells = list(map(str.strip, row))
            if not any(cells):  # whitespace or commas only
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
                        raise ParseError("required column missing from header", line=line, column=name)
                positions = [names.index(name) for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if name in read]
                low_at, high_at, population_at, incidence_at, deaths_at = positions[:5]
                width = max(positions[:5]) + 1
                other_at = positions[5] if len(positions) > 5 else -1  # -1: not in the header
                continue
            if len(cells) < width:
                column = next(name for name, at in zip(REQUIRED_COLUMNS, positions) if at >= len(cells))
                raise ParseError("missing value", line=line, column=column)
            other = cells[other_at] if 0 <= other_at < len(cells) else ""  # absent or empty: not given
            high = cells[high_at]
            try:
                fields = (len(lines) + 1, int(cells[low_at]), None if high.lower() == "open" else int(high),
                          float(cells[population_at]), float(cells[incidence_at]), float(cells[deaths_at]),
                          None if other == "" else float(other))
            except ValueError:
                raise _malformed(cells, positions, line) from None
            lines.append(line)
            # all seven fields are given, so namedtuple's generated __new__ has nothing to add
            yield tuple.__new__(AgeGroupRecord, fields)
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None
    if not lines:
        raise ParseError("no data rows found")


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


def _texts(values) -> list:
    """Each value as the text CSV and JSON both write, the repr of a finite float or the str of an int, or itself."""
    return [f"{value!r}" if type(value) is float and value - value == 0.0 else f"{value}" if type(value) is int
            else value for value in values]


def _emit_rows(columns, rows, format: str, head: dict, comment: str | None, texts=None) -> str:
    """Render a sequence of rows of values, one per column and in column order, as CSV or JSON.

    Floats are written at full precision (str of a float is its shortest
    round-trip repr), so parsing them back recovers the exact doubles. JSON is
    what ``json.dumps({**head, "steps": [dict(zip(columns, row)), ...]},
    indent=2)`` writes (``head`` has no key "steps"): exact finite floats, ints
    and strs are written here and any other value by ``json.dumps``, with its
    spellings and its TypeError, so a list or dict value takes one line. CSV
    writes a ``comment`` as a leading "# " line. ``texts``, if given, is
    ``_texts`` of the rows' values, so that no number is written again.
    """
    if format == "json":
        import json  # here, once per document, so that only JSON output loads json

        quote = json.encoder.encode_basestring_ascii
        # one %s per value in a step
        keys = [quote(column).replace("%", "%%") for column in columns]
        step = ",".join([f"\n      {key}: %s" for key in keys])
        step = f"    {{{step}\n    }}" if step else "    {}"
        # the head's values, then each row's; one that is its own text is a str, quoted here, or goes to json.dumps
        values = [*head.values(), *chain.from_iterable(rows)]
        texts = _texts(values) if texts is None else _texts(head.values()) + texts
        for at in compress(count(), map(operator.is_, texts, values)):
            texts[at] = quote(values[at]) if type(values[at]) is str else json.dumps(values[at])
        items = [f"  {quote(key)}: {text}" for key, text in zip(head, texts)]
        steps = ",\n".join([step] * len(rows)) % tuple(texts[len(head):])
        items.append(f'  "steps": [\n{steps}\n  ]' if steps else '  "steps": []')
        return "{\n" + ",\n".join(items) + "\n}\n"
    if format != "csv":
        raise CumriskError(f"unknown output format {format!r} (expected 'csv' or 'json')")
    template = ",".join(["{}"] * len(columns)) + "\n"  # str.format writes each value as format(value, "")
    body = (template * len(rows)).format(*(chain.from_iterable(rows) if texts is None else texts))
    return ("" if comment is None else f"# {comment}\n") + ",".join(columns) + "\n" + body


def emit_series(series, format: str = "csv") -> str:
    """Render a risk series, or a list of its RiskStep rows, as CSV or JSON.

    Columns come in the fixed ``SERIES_COLUMNS`` order, and floats at full
    precision: parsing them back recovers the exact doubles. Identical rows
    produce byte-identical documents. A RiskSeries keeps the texts of its
    numbers from its first emission, which any later one writes again while
    ``series.steps`` holds the very same tuples in the same order.
    """
    if not isinstance(series, RiskSeries):
        return _emit_rows(SERIES_COLUMNS, series, format, {}, None)
    rows, kept = tuple(series.steps), getattr(series, "_kept", None)  # kept: (rows, texts), set as one pair
    if kept is None or len(kept[0]) != len(rows) or not all(map(operator.is_, kept[0], rows)):
        kept = rows, _texts(chain.from_iterable(rows))
        if all(map(isinstance, rows, repeat(tuple))):  # a list row could change under its texts
            series._kept = kept
    return _emit_rows(SERIES_COLUMNS, rows, format, {}, None, kept[1])


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
