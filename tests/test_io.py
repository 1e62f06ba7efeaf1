"""Tests for cohort parsing and CSV/JSON emission."""

import copy
import itertools
import json
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cumrisk
from cumrisk.core import (
    MAX_GROUPS,
    AgeGroupRecord,
    CumriskError,
    InvalidCohort,
    InvalidRecord,
    RiskSeries,
    compare,
    risk_series,
)
from cumrisk.io import (
    COMPARISON_COLUMNS,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    SERIES_COLUMNS,
    ParseError,
    _emit_rows,
    emit_cohort,
    emit_comparison,
    emit_series,
    parse_cohort,
)
from helpers import ODD_ROWS, ReprFloat, make_cohort, ramp_cohort, series_documents

HEADER = "age_low,age_high,population,incidence,cancer_deaths"
READ_COLUMNS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS  # the order in which a data row's cells are converted


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
        # empty, whitespace-only and comma-only lines between groups, and a line count that still holds after them
        gaps = "\n  \n,,\n \t, ,\r\n\r\n"
        text = "\n" + HEADER + "\n" + gaps + "0,5,1000,2,1\n" + gaps + "5,10,1000,2,1\n" + gaps
        assert [record.age_low for record in parse_cohort(text)] == [0, 5]
        with pytest.raises(ParseError) as err:
            parse_cohort(text + "10,15,1000,x,1\n")
        assert str(err.value) == "line 20, column 'incidence': expected a number, got 'x'"
        with pytest.raises(InvalidCohort) as err:
            parse_cohort(text + "15,20,1000,2,1\n")
        assert str(err.value).startswith("line 20, column 'age_low': age_low 15 breaks contiguity")

    def test_byte_order_mark_is_tolerated(self):
        cohort = parse_cohort("﻿" + doc("0,5,1000,2,1"))
        assert len(cohort) == 1
        # exactly one is stripped, as the utf-8-sig codec strips it: a second is part of the first header cell
        with pytest.raises(ParseError) as err:
            parse_cohort("\ufeff\ufeff" + doc("0,5,1000,2,1"))
        assert str(err.value) == "line 1, column 'age_low': required column missing from header"

    def test_a_byte_order_mark_costs_no_copy_of_the_text(self):
        text = doc("0,5,1000,2,1") + "\n" * (2 << 20)
        marked = "\ufeff" + text
        peaks = []
        tracemalloc.start()
        try:
            for document in (text, marked):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert len(parse_cohort(document)) == 1
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # a copy of the text without its mark would add 2 MiB; the slack is for the allocator's own noise
        assert peaks[1] <= peaks[0] + 2**16, peaks

    def test_other_deaths_column_is_optional(self):
        bare = parse_cohort(doc("0,5,1000,2,1"))
        assert bare.records[0].other_deaths is None
        text = ("age_low,age_high,population,incidence,cancer_deaths,other_deaths\n"
                "0,5,1000,2,1,7\n"
                "5,10,1000,2,1,\n")
        cohort = parse_cohort(text)
        assert cohort.records[0].other_deaths == 7.0
        assert cohort.records[1].other_deaths is None

    def test_a_row_may_end_before_its_other_deaths_cell(self):
        # other_deaths is last in the header, so the row is as wide as the required columns need
        cohort = parse_cohort(doc("0,5,1000,2,1,7", "5,10,1000,2,1", header=HEADER + ",other_deaths"))
        assert [record.other_deaths for record in cohort.records] == [7.0, None]

    def test_fractional_counts_are_kept(self):
        cohort = parse_cohort(doc("0,5,1000.5,2.25,0.75"))
        record = cohort.records[0]
        assert (record.population, record.incidence, record.cancer_deaths) == (1000.5, 2.25, 0.75)

    def test_missing_required_column(self):
        text = "age_low,age_high,population,incidence\n0,5,1000,2\n"
        with pytest.raises(ParseError) as err:
            parse_cohort(text)
        assert err.value.column == "cancer_deaths"
        assert err.value.line == 1
        assert str(err.value) == "line 1, column 'cancer_deaths': required column missing from header"

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
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1", "5,10,12x34,3,0"))
        assert err.value.line == 3
        assert err.value.column == "population"
        assert str(err.value) == "line 3, column 'population': expected a number, got '12x34'"

    def test_malformed_age_must_be_integer(self):
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0.5,5,1000,2,1"))
        assert err.value.column == "age_low"
        assert str(err.value) == "line 2, column 'age_low': expected an integer, got '0.5'"

    def test_short_row_is_malformed(self):
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000"))
        assert err.value.line == 2
        assert str(err.value) == "line 2, column 'incidence': missing value"

    @pytest.mark.parametrize("first, second", itertools.permutations(READ_COLUMNS, 2))
    @pytest.mark.parametrize("header", [READ_COLUMNS, READ_COLUMNS[::-1]], ids=["read order", "reversed"])
    def test_of_two_malformed_cells_the_first_in_read_order_is_named(self, header, first, second):
        row = dict(zip(READ_COLUMNS, ["5", "10", "1000", "2", "1", "3"]))
        row[first], row[second] = "bad1", "bad2"
        text = doc("0,5,1000,2,1,3", ",".join(row[column] for column in header), header=",".join(header))
        with pytest.raises(ParseError) as err:
            parse_cohort(text)
        named, cell = min((first, "bad1"), (second, "bad2"), key=lambda pair: READ_COLUMNS.index(pair[0]))
        expected = "an integer" if named.startswith("age_") else "a number"
        assert (err.value.line, err.value.column) == (3, named)
        assert str(err.value) == f"line 3, column {named!r}: expected {expected}, got {cell!r}"

    @pytest.mark.parametrize("open_", ["open", "OPEN", "Open"])
    def test_open_does_not_hide_a_malformed_population(self, open_):
        # "open" is read in any case, so the fault named is the population's, not age_high's
        with pytest.raises(ParseError) as err:
            parse_cohort(doc(f"0,{open_},12x34,2,1"))
        assert (err.value.line, err.value.column) == (2, "population")
        assert str(err.value) == "line 2, column 'population': expected a number, got '12x34'"

    @pytest.mark.parametrize("later", [
        ("5,10",),
        ("5,10,inf,2,1",),
        ('5,10,1000,2,"' + "9" * 200_000 + '"',),
        ("5,10", "10,15,inf,2,1", '15,20,1000,2,"' + "9" * 200_000 + '"'),
    ], ids=["short row", "non-finite count", "unreadable field", "all three"])
    def test_a_malformed_cell_is_reported_ahead_of_faults_on_later_lines(self, later):
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1", "5,10,1000,x,1", *later))
        assert str(err.value) == "line 3, column 'incidence': expected a number, got 'x'"

    @pytest.mark.parametrize("header, rows", [
        (HEADER, ("0,5,1000,2,1", "5,open,1100,3,0")),
        (HEADER + ",other_deaths", ("0,5,1000,2,1,4", "5,10,1100,3,0,", "10,OPEN,900,4,2,0.5")),
    ], ids=["without other_deaths", "with other_deaths"])
    def test_parsed_records_are_plain_age_group_records(self, header, rows):
        for record in parse_cohort(doc(*rows, header=header)).records:
            assert type(record) is AgeGroupRecord
            assert record == AgeGroupRecord(*record)

    def test_negative_count(self):
        with pytest.raises(InvalidRecord) as err:
            parse_cohort(doc("0,5,1000,-2,1"))
        assert err.value.column == "incidence"
        assert str(err.value) == "line 2, column 'incidence': incidence must be >= 0, got -2.0"

    def test_age_gap_is_rejected(self):
        with pytest.raises(InvalidCohort) as err:
            parse_cohort(doc("0,5,1000,2,1", "15,20,1000,2,1"))
        assert err.value.line == 3
        assert err.value.column == "age_low"
        assert str(err.value) == "line 3, column 'age_low': age_low 15 breaks contiguity (expected 5)"

    def test_first_group_must_start_at_zero(self):
        with pytest.raises(InvalidCohort) as err:
            parse_cohort(doc("5,10,1000,2,1"))
        assert str(err.value) == "line 2, column 'age_low': age_low 5 breaks contiguity (expected 0)"

    def test_wrong_group_width_is_rejected(self):
        with pytest.raises(InvalidRecord) as err:
            parse_cohort(doc("0,7,1000,2,1"))
        assert err.value.column == "age_high"
        assert str(err.value) == "line 2, column 'age_high': closed groups must span exactly 5 years, got 0..7"

    def test_rows_after_open_group_are_rejected(self):
        with pytest.raises(InvalidCohort) as err:
            parse_cohort(doc("0,open,1000,2,1", "5,10,1000,2,1"))
        assert err.value.line == 3
        assert str(err.value) == "line 3: no group may follow an open-ended group"

    def test_nonpositive_population_is_inconsistent(self):
        with pytest.raises(InvalidRecord) as err:
            parse_cohort(doc("0,5,0,0,0"))
        assert err.value.column == "population"
        assert str(err.value) == "line 2, column 'population': population must be positive"

    def test_incidence_exceeding_pool_is_inconsistent(self):
        # 5 * 30 = 150 > 100 + 0
        with pytest.raises(InvalidRecord, match="5x > n \\+ 5dc") as err:
            parse_cohort(doc("0,5,100,30,0"))
        assert err.value.column == "incidence"

    def test_boundary_incidence_is_accepted(self):
        # 5 * 20 = 100 equals the pool exactly
        cohort = parse_cohort(doc("0,5,100,20,0"))
        assert cohort.records[0].incidence == 20.0

    def test_overflowing_counts_are_inconsistent(self):
        for row, message in (("5,10,1e308,1e308,1e308", "5x / (n + 5dc) = nan is not a probability"),
                             ("5,10,1e-300,1e300,1e300", "the cumulative rate overflows to inf")):
            with pytest.raises(InvalidRecord) as err:
                parse_cohort(doc("0,5,1000,2,1", row))
            assert err.value.line == 3
            assert str(err.value) == f"line 3, column 'incidence': {message}"

    def test_only_line_ends_break_rows(self):
        # a form feed is not a line end: the cell is malformed, and lines
        # after it keep their numbers
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1", "5,10,10\x0c00,3,0"))
        assert str(err.value) == "line 3, column 'population': expected a number, got '10\\x0c00'"
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1\x0c", "5,10,1000,x,0"))
        assert str(err.value) == "line 3, column 'incidence': expected a number, got 'x'"

    def test_oversized_field_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_cohort(doc("0,5,1000,2,1", '5,10,1000,2,"' + "9" * 200_000 + '"'))
        assert err.value.line == 3

    def test_one_error_class_for_each_thing_to_fix(self):
        exported = {name for name in cumrisk.__all__
                    if isinstance(getattr(cumrisk, name), type) and issubclass(getattr(cumrisk, name), Exception)}
        assert exported == {"CumriskError", "ParseError", "InvalidRecord", "InvalidCohort", "OutOfRange"}
        assert all(issubclass(getattr(cumrisk, name), CumriskError) for name in exported)
        # a record's own ages are a record fault; what only the sequence shows is a cohort fault
        for rows, kind, line in ((("0,5,1000,2,1", "3,8,1000,2,1"), InvalidRecord, 3),
                                 (("0,5,1000,2,1", "10,15,1000,2,1"), InvalidCohort, 3),
                                 (("0,open,1000,2,1", "5,10,1000,2,1"), InvalidCohort, 3)):
            with pytest.raises(CumriskError) as err:
                parse_cohort(doc(*rows))
            assert (type(err.value), err.value.line) == (kind, line)

    def test_reading_stops_at_the_group_over_the_cap(self):
        rows = [f"{5 * i},{5 * i + 5},1000,1,0" for i in range(MAX_GROUPS + 1)]
        assert len(parse_cohort(doc(*rows[:MAX_GROUPS]))) == MAX_GROUPS
        # the malformed row after the first group over the cap is never read
        with pytest.raises(InvalidCohort) as err:
            parse_cohort(doc(*rows, "x,y,z,w,v"))
        assert (err.value.index, err.value.line, err.value.column) == (MAX_GROUPS + 1, MAX_GROUPS + 2, None)
        assert str(err.value) == f"line {MAX_GROUPS + 2}: a cohort may hold at most {MAX_GROUPS} age groups"
        # a malformed group over the cap is read, and its cell is the error
        with pytest.raises(ParseError) as err:
            parse_cohort(doc(*rows[:MAX_GROUPS], "x,y,z,w,v"))
        assert str(err.value) == f"line {MAX_GROUPS + 2}, column 'age_low': expected an integer, got 'x'"

    def test_empty_document(self):
        with pytest.raises(ParseError) as err:
            parse_cohort("")
        assert (err.value.line, err.value.column, str(err.value)) == (None, None, "no data rows found")

    def test_header_only_document(self):
        with pytest.raises(ParseError) as err:
            parse_cohort(HEADER + "\n")
        assert (err.value.line, err.value.column, str(err.value)) == (None, None, "no data rows found")


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

    def test_a_whole_count_from_2_53_up_keeps_its_point(self):
        # below 2**53 every whole double is written as an int; from there on as its float repr
        lines = emit_cohort(make_cohort([(2.0**53 - 1, 1.0), (2.0**53, 1.0), (2.0**53 + 2, 1.0)])).splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == [
            "9007199254740991", "9007199254740992.0", "9007199254740994.0"]

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
        # a list of the rows writes what the series writes
        for format in ("csv", "json"):
            assert emit_series(series.steps, format) == emit_series(series, format)

    def test_a_slice_of_rows_writes_the_first_lines(self):
        series = risk_series(ramp_cohort())
        lines = emit_series(series).splitlines(keepends=True)
        for k in (1, 7, len(series)):
            assert emit_series(series.steps[:k]) == "".join(lines[:k + 1])

    def test_unknown_format_is_rejected(self):
        with pytest.raises(CumriskError, match="format"):
            emit_series(risk_series(ramp_cohort()), "xml")


class TestKeptTexts:
    """A RiskSeries keeps the texts of its numbers from its first emission; each document stays the plain one."""

    def test_odd_values_are_written_as_the_plain_writers_write_them(self):
        series = RiskSeries(list(ODD_ROWS))
        expected = series_documents(ODD_ROWS)
        for format in ("json", "csv", "csv", "json"):
            assert emit_series(series, format) == expected[format] == emit_series(ODD_ROWS, format)

    def test_a_later_emission_writes_the_kept_texts_until_a_row_changes(self):
        series = risk_series(ramp_cohort())
        emit_series(series, "csv")
        kept = series._kept
        assert emit_series(series, "json") == series_documents(series.steps)["json"]
        assert series._kept is kept
        series.steps[3] = ODD_ROWS[0]
        assert emit_series(series, "json") == series_documents(series.steps)["json"]
        assert series._kept is not kept

    @pytest.mark.parametrize("edit", ["replace", "retype", "del", "append", "reassign", "swap"])
    def test_an_edit_of_the_steps_is_written(self, edit):
        series = risk_series(ramp_cohort())
        other = risk_series(ramp_cohort(b_low=0.002)).steps
        for first in ("csv", "json"):
            emit_series(series, first)
            if edit == "replace":
                series.steps[5] = other[5]
            elif edit == "retype":  # a row of equal values, one of which has another text
                series.steps[0] = series.steps[0]._replace(t=float(series.steps[0].t))
            elif edit == "del":
                del series.steps[0]
            elif edit == "append":
                series.steps.append(other[0])
            elif edit == "reassign":
                series.steps = other[:len(series.steps)]
            else:
                series.steps[0], series.steps[1] = series.steps[1], series.steps[0]
            for format in ("csv", "json"):
                assert emit_series(series, format) == series_documents(series.steps)[format], (first, format)

    def test_a_list_row_changed_in_place_is_written_as_it_now_is(self):
        rows = [list(step) for step in risk_series(ramp_cohort()).steps]
        series = RiskSeries(rows)
        emit_series(series, "csv")
        rows[2][2] = 0.25
        assert emit_series(series, "json") == series_documents(rows)["json"]
        assert json.loads(emit_series(series, "json"))["steps"][2]["b"] == 0.25

    def test_threads_writing_one_fresh_series_get_the_same_bytes(self):
        series = risk_series(ramp_cohort())
        expected = series_documents(series.steps)
        start = threading.Barrier(4)
        documents = []

        def write(formats):
            start.wait()
            documents.extend((format, emit_series(series, format)) for format in formats * 50)

        threads = [threading.Thread(target=write, args=(formats,))
                   for formats in (("csv", "json"), ("json", "csv"), ("csv",), ("json",))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # so that the threads switch inside an emission
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(documents) == 300
        assert all(document == expected[format] for format, document in documents)

    def test_a_copy_or_a_pickle_of_a_written_series_writes_the_same_documents(self):
        series = risk_series(ramp_cohort())
        written = {format: emit_series(series, format) for format in ("csv", "json")}
        for twin in (copy.copy(series), pickle.loads(pickle.dumps(series))):
            assert {format: emit_series(twin, format) for format in ("json", "csv")} == written
            twin.steps = twin.steps[:-1]
            assert emit_series(twin, "csv") == "".join(written["csv"].splitlines(keepends=True)[:-1])
        assert {format: emit_series(series, format) for format in ("csv", "json")} == written


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


def test_json_writer_writes_a_list_or_dict_value_on_one_line():
    # no program path holds one: json.dumps writes it, without the indent of the document around it
    document = _emit_rows(("a", "b"), [([1, 2.5, "%s"], {"k": None})], "json", {"head": (True,)}, None)
    assert document == ('{\n  "head": [true],\n  "steps": [\n    {\n      "a": [1, 2.5, "%s"],\n'
                        '      "b": {"k": null}\n    }\n  ]\n}\n')
