"""Tests for cohort parsing and CSV/JSON emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumrisk.core import CumriskError, InvalidRecord, compare, risk_series
from cumrisk.io import (
    COMPARISON_COLUMNS,
    SERIES_COLUMNS,
    EmptyCohort,
    InconsistentRecord,
    MalformedNumber,
    MissingColumn,
    NegativeCount,
    NonContiguousAges,
    ParseError,
    _emit_rows,
    emit_cohort,
    emit_comparison,
    emit_series,
    float_repr,
    parse_cohort,
)
from helpers import make_cohort, ramp_cohort

HEADER = "age_low,age_high,population,incidence,cancer_deaths"


def doc(*rows, header=HEADER):
    return "\n".join((header,) + rows) + "\n"


class TestParseCohort:
    def test_happy_path(self):
        text = doc("0,5,1000,2,1", "5,10,1100,3,0", "10,open,900,4,2")
        cohort = parse_cohort(text)
        assert len(cohort) == 3
        assert [r.index for r in cohort] == [1, 2, 3]
        assert [r.age_label for r in cohort] == ["0-4", "5-9", "10+"]
        assert cohort.records[0].population == 1000.0
        assert cohort.records[2].is_open

    def test_meta_is_attached(self):
        from cumrisk.core import Cohort, CohortMeta

        meta = CohortMeta(region="AUS", year="2010", sex="persons")
        cohort = Cohort(records=parse_cohort(doc("0,5,1000,2,1")).records, meta=meta)
        assert cohort.meta == meta

    def test_header_is_case_insensitive_and_reorderable(self):
        text = ("Population,CANCER_DEATHS,age_low,Age_High,incidence\n"
                "1000,1,0,5,2\n")
        cohort = parse_cohort(text)
        record = cohort.records[0]
        assert (record.population, record.cancer_deaths, record.incidence) == (1000.0, 1.0, 2.0)

    def test_extra_columns_are_ignored(self):
        text = ("age_low,age_high,population,incidence,cancer_deaths,notes\n"
                "0,5,1000,2,1,hello\n")
        assert len(parse_cohort(text)) == 1

    def test_blank_lines_are_skipped(self):
        text = "\n" + HEADER + "\n\n0,5,1000,2,1\n\n"
        assert len(parse_cohort(text)) == 1

    def test_byte_order_mark_is_tolerated(self):
        cohort = parse_cohort("﻿" + doc("0,5,1000,2,1"))
        assert len(cohort) == 1

    def test_other_deaths_column_is_optional(self):
        bare = parse_cohort(doc("0,5,1000,2,1"))
        assert bare.records[0].other_deaths is None
        text = ("age_low,age_high,population,incidence,cancer_deaths,other_deaths\n"
                "0,5,1000,2,1,7\n"
                "5,10,1000,2,1,\n")
        cohort = parse_cohort(text)
        assert cohort.records[0].other_deaths == 7.0
        assert cohort.records[1].other_deaths is None

    def test_fractional_counts_are_kept(self):
        cohort = parse_cohort(doc("0,5,1000.5,2.25,0.75"))
        record = cohort.records[0]
        assert (record.population, record.incidence, record.cancer_deaths) == (1000.5, 2.25, 0.75)

    def test_missing_required_column(self):
        text = "age_low,age_high,population,incidence\n0,5,1000,2\n"
        with pytest.raises(MissingColumn) as err:
            parse_cohort(text)
        assert err.value.column == "cancer_deaths"
        assert err.value.line == 1

    def test_duplicate_column_is_rejected(self):
        text = HEADER + ",age_low\n0,5,1000,2,1,0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_cohort(text)

    @pytest.mark.parametrize("header, rows", [
        (HEADER + ",,", ("0,5,1000,2,1,,", "5,10,1100,3,0,,")),
        (HEADER + ",notes,notes", ("0,5,1000,2,1,a,b", "5,10,1100,3,0,c,d")),
    ], ids=["two trailing commas", "notes twice"])
    def test_unread_columns_may_repeat_or_be_blank(self, header, rows):
        plain = parse_cohort(doc("0,5,1000,2,1", "5,10,1100,3,0"))
        assert parse_cohort(doc(*rows, header=header)).records == plain.records

    @pytest.mark.parametrize("column", ["age_low", "other_deaths"])
    def test_a_read_column_given_twice_is_refused(self, column):
        text = doc("0,5,1000,2,1,3,0", header=f"{HEADER},other_deaths,{column}")
        with pytest.raises(ParseError) as err:
            parse_cohort(text)
        assert (type(err.value), err.value.line, err.value.column) == (ParseError, 1, column)
        assert str(err.value) == f"line 1, column {column!r}: duplicate column"

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", ["population", "incidence", "cancer_deaths", "other_deaths"])
    def test_a_non_finite_count_is_an_invalid_record_at_its_line_and_column(self, column, cell):
        row = dict(zip(HEADER.split(",") + ["other_deaths"], ["5", "10", "1000", "2", "1", "3"]))
        row[column] = cell
        text = doc("0,5,1000,2,1,3", ",".join(row.values()), header=HEADER + ",other_deaths")
        with pytest.raises(InvalidRecord) as err:
            parse_cohort(text)
        assert (type(err.value), err.value.line, err.value.column) == (InvalidRecord, 3, column)
        shown = repr(float(cell))
        assert str(err.value) == f"line 3, column {column!r}: {column} must be a finite real number, got {shown}"

    def test_malformed_number_names_line_and_column(self):
        with pytest.raises(MalformedNumber) as err:
            parse_cohort(doc("0,5,1000,2,1", "5,10,12x34,3,0"))
        assert err.value.line == 3
        assert err.value.column == "population"

    def test_malformed_age_must_be_integer(self):
        with pytest.raises(MalformedNumber) as err:
            parse_cohort(doc("0.5,5,1000,2,1"))
        assert err.value.column == "age_low"

    def test_short_row_is_malformed(self):
        with pytest.raises(MalformedNumber) as err:
            parse_cohort(doc("0,5,1000"))
        assert err.value.line == 2

    def test_negative_count(self):
        with pytest.raises(NegativeCount) as err:
            parse_cohort(doc("0,5,1000,-2,1"))
        assert err.value.column == "incidence"

    def test_age_gap_is_rejected(self):
        with pytest.raises(NonContiguousAges) as err:
            parse_cohort(doc("0,5,1000,2,1", "15,20,1000,2,1"))
        assert err.value.line == 3
        assert err.value.column == "age_low"

    def test_first_group_must_start_at_zero(self):
        with pytest.raises(NonContiguousAges):
            parse_cohort(doc("5,10,1000,2,1"))

    def test_wrong_group_width_is_rejected(self):
        with pytest.raises(NonContiguousAges) as err:
            parse_cohort(doc("0,7,1000,2,1"))
        assert err.value.column == "age_high"

    def test_rows_after_open_group_are_rejected(self):
        with pytest.raises(NonContiguousAges) as err:
            parse_cohort(doc("0,open,1000,2,1", "5,10,1000,2,1"))
        assert err.value.line == 3

    def test_nonpositive_population_is_inconsistent(self):
        with pytest.raises(InconsistentRecord) as err:
            parse_cohort(doc("0,5,0,0,0"))
        assert err.value.column == "population"

    def test_incidence_exceeding_pool_is_inconsistent(self):
        # 5 * 30 = 150 > 100 + 0
        with pytest.raises(InconsistentRecord, match="5x > n \\+ 5dc") as err:
            parse_cohort(doc("0,5,100,30,0"))
        assert err.value.column == "incidence"

    def test_boundary_incidence_is_accepted(self):
        # 5 * 20 = 100 equals the pool exactly
        cohort = parse_cohort(doc("0,5,100,20,0"))
        assert cohort.records[0].incidence == 20.0

    def test_overflowing_counts_are_inconsistent(self):
        for row in ("5,10,1e308,1e308,1e308", "5,10,1e-300,1e300,1e300"):
            with pytest.raises(InconsistentRecord) as err:
                parse_cohort(doc("0,5,1000,2,1", row))
            assert err.value.line == 3

    def test_only_line_ends_break_rows(self):
        # a form feed is not a line end: the cell is malformed, and lines
        # after it keep their numbers
        with pytest.raises(MalformedNumber) as err:
            parse_cohort(doc("0,5,1000,2,1", "5,10,10\x0c00,3,0"))
        assert (err.value.line, err.value.column) == (3, "population")
        with pytest.raises(MalformedNumber) as err:
            parse_cohort(doc("0,5,1000,2,1\x0c", "5,10,1000,x,0"))
        assert err.value.line == 3

    def test_oversized_field_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1", '5,10,1000,2,"' + "9" * 200_000 + '"'))
        assert err.value.line == 3

    def test_record_errors_are_the_core_classes(self):
        from cumrisk import core

        assert issubclass(NegativeCount, core.InvalidRecord)
        assert issubclass(InconsistentRecord, core.InvalidRecord)
        assert issubclass(NonContiguousAges, core.InvalidCohort)

    def test_empty_document(self):
        with pytest.raises(EmptyCohort):
            parse_cohort("")

    def test_header_only_document(self):
        with pytest.raises(EmptyCohort):
            parse_cohort(HEADER + "\n")


class TestEmitCohort:
    def test_round_trip_is_numerically_exact(self):
        cohort = ramp_cohort()
        parsed = parse_cohort(emit_cohort(cohort))
        assert parsed.records == cohort.records

    def test_round_trip_keeps_awkward_floats(self):
        cohort = make_cohort([(1_000_000.0, 0.1 + 0.2, 0.1)])
        parsed = parse_cohort(emit_cohort(cohort))
        assert parsed.records[0].incidence == 0.1 + 0.2

    def test_whole_counts_have_no_decimal_point(self):
        line = emit_cohort(make_cohort([(1000.0, 2.0)])).splitlines()[1]
        assert line == "0,5,1000,2,0"

    def test_open_group_token(self):
        text = emit_cohort(ramp_cohort(groups=2))
        assert text.splitlines()[2].split(",")[1] == "open"

    def test_other_deaths_column_appears_only_when_present(self):
        plain = emit_cohort(make_cohort([(1000.0, 2.0)]))
        assert "other_deaths" not in plain.splitlines()[0]
        cohort = parse_cohort(
            "age_low,age_high,population,incidence,cancer_deaths,other_deaths\n"
            "0,5,1000,2,1,7\n"
        )
        assert emit_cohort(cohort).splitlines()[1].endswith(",7")

    def test_emission_is_stable(self):
        cohort = ramp_cohort()
        assert emit_cohort(cohort) == emit_cohort(cohort)


class TestEmitSeries:
    def test_csv_header_is_fixed(self):
        text = emit_series(risk_series(ramp_cohort()))
        assert text.splitlines()[0] == "t,age_label,b,cum_rate,cum_risk,p_red,p_off"
        assert ",".join(SERIES_COLUMNS) == "t,age_label,b,cum_rate,cum_risk,p_red,p_off"

    def test_csv_row_values_round_trip(self):
        series = risk_series(ramp_cohort())
        lines = emit_series(series).splitlines()[1:]
        for line, step in zip(lines, series):
            cells = line.split(",")
            assert int(cells[0]) == step.t
            assert cells[1] == step.age_label
            assert float(cells[2]) == step.b
            assert float(cells[3]) == step.cum_rate
            assert float(cells[4]) == step.cum_risk
            assert float(cells[5]) == step.p_red
            assert float(cells[6]) == step.p_off

    def test_zero_cohort_rows(self):
        series = risk_series(make_cohort([(1000.0, 0.0)]))
        assert emit_series(series).splitlines()[1] == "1,0-4,0.0,0.0,0.0,0.0,1.0"

    def test_json_round_trip(self):
        series = risk_series(ramp_cohort())
        payload = json.loads(emit_series(series, "json"))
        assert len(payload["steps"]) == len(series)
        first = payload["steps"][0]
        assert first["t"] == 1
        assert first["p_red"] == series.steps[0].p_red

    def test_emission_is_stable(self):
        series = risk_series(ramp_cohort())
        assert emit_series(series) == emit_series(series)
        assert emit_series(series, "json") == emit_series(series, "json")

    def test_unknown_format_is_rejected(self):
        with pytest.raises(CumriskError, match="format"):
            emit_series(risk_series(ramp_cohort()), "xml")


class TestEmitComparison:
    def test_zero_deltas_for_identical_cohorts(self):
        report = compare(ramp_cohort(), ramp_cohort())
        lines = emit_comparison(report).splitlines()
        assert lines[0] == ",".join(COMPARISON_COLUMNS)
        for line in lines[1:]:
            assert line.split(",")[2:] == ["0.0"] * 5

    def test_delta_round_trips(self):
        report = compare(make_cohort([(1000.0, 40.0)]), make_cohort([(1000.0, 20.0)]))
        cells = emit_comparison(report).splitlines()[1].split(",")
        assert float(cells[2]) == report.rows[0].delta_b

    def test_truncation_comment(self):
        report = compare(ramp_cohort(groups=10), ramp_cohort(groups=4))
        lines = emit_comparison(report).splitlines()
        assert lines[0].startswith("#")
        assert "4" in lines[0] and "10" in lines[0]
        assert lines[1] == ",".join(COMPARISON_COLUMNS)
        assert len(lines) == 2 + 4

    def test_no_comment_without_truncation(self):
        report = compare(ramp_cohort(groups=4), ramp_cohort(groups=4))
        assert not emit_comparison(report).startswith("#")

    def test_json_always_carries_lengths(self):
        report = compare(ramp_cohort(groups=10), ramp_cohort(groups=4))
        payload = json.loads(emit_comparison(report, "json"))
        assert payload["steps_a"] == 10
        assert payload["steps_b"] == 4
        assert payload["truncated"] is True
        assert len(payload["steps"]) == 4


def test_float_repr_round_trips():
    for value in (0.1, 0.1 + 0.2, 1.0 / 3.0, 1e-300, 123456789.123456789):
        assert float(float_repr(value)) == value


class ReprFloat(float):
    """A float subclass whose own repr json.dumps must not use."""

    def __repr__(self):
        return "ReprFloat()"


JSON_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308 / 7, 1e16, 2.0**53 + 2, 1e22, 1.7976931348623157e308,
                     math.nan, math.inf, -math.inf)),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats().map(np.float64),
    st.floats().map(ReprFloat),
    st.integers(),
    st.integers(min_value=-(10**4000), max_value=10**4000),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ufeffé\U0001f600\U00010000')),
)


@st.composite
def json_tables(draw):
    columns = draw(st.lists(st.text(), unique=True, max_size=8))
    rows = draw(st.lists(st.lists(JSON_SCALARS, min_size=len(columns), max_size=len(columns)).map(tuple),
                         max_size=4))
    head = draw(st.dictionaries(st.text().filter(lambda key: key != "steps"), JSON_SCALARS, max_size=4))
    return columns, rows, head


@given(json_tables())
@example(((), [], {}))
@example((("t",), [], {"truncated": False}))
@example(((), [(), ()], {}))
@example((("%s", "100%", "%%d"), [("%", math.inf, None), ("%s", -0.0, True)], {"%s": "%"}))
@example((COMPARISON_COLUMNS, [(1, "0-4", -0.0, 5e-324, 1e16, math.nan, -math.inf)],
          {"steps_a": 1, "steps_b": 2, "truncated": True}))
@settings(deadline=None)
def test_json_writer_gives_the_bytes_of_json_dumps(table):
    columns, rows, head = table
    expected = json.dumps({**head, "steps": [dict(zip(columns, row)) for row in rows]}, indent=2) + "\n"
    assert _emit_rows(columns, rows, "json", head, None) == expected


def test_json_writer_refuses_a_value_json_dumps_refuses():
    value = object()
    with pytest.raises(TypeError) as expected:
        json.dumps({"steps": [{"a": value}]})
    with pytest.raises(TypeError) as err:
        _emit_rows(("a",), [(value,)], "json", {}, None)
    assert str(err.value) == str(expected.value) == "Object of type object is not JSON serializable"
