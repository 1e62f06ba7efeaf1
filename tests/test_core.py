"""Unit tests for the analytic core: estimation, propagation, series, queries."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from cumrisk.core import (
    NEWBORN_STATE,
    AgeGroupRecord,
    Cohort,
    CohortMeta,
    CumriskError,
    EmptyOverlap,
    InconsistentRecord,
    InvalidCohort,
    InvalidRecord,
    NegativeRate,
    OutOfRange,
    StateVector,
    TransitionMatrix,
    compare,
    conditional_risk,
    cumulative_rate,
    cumulative_risk_from_rate,
    estimate_transition,
    propagate,
    red_probability,
    risk_series,
    transition_matrices,
)
from helpers import make_cohort, make_record, ramp_cohort


class TestEstimateTransition:
    def test_zero_incidence_gives_identity_row(self):
        m = estimate_transition(make_record(1, 1000.0, 0.0))
        assert m.p01 == 0.0
        assert m.p00 == 1.0

    def test_hand_worked_value(self):
        # 5 * 1 / (95 + 5 * 1) = 5 / 100
        m = estimate_transition(make_record(1, 95.0, 1.0, cancer_deaths=1.0))
        assert m.p01 == 0.05
        assert m.p00 == 0.95

    def test_diagnosed_row_is_absorbing(self):
        m = estimate_transition(make_record(1, 1000.0, 3.0))
        assert m.p10 == 0.0
        assert m.p11 == 1.0

    def test_probability_one_boundary(self):
        # 5 * 20 == 100: every survivor is diagnosed within the group
        m = estimate_transition(make_record(1, 100.0, 20.0))
        assert m.p01 == 1.0
        assert m.p00 == 0.0

    def test_rejects_incidence_exceeding_pool(self):
        with pytest.raises(InvalidRecord, match="5x > n \\+ 5dc"):
            estimate_transition(make_record(1, 100.0, 30.0))

    def test_rejects_nonpositive_population(self):
        with pytest.raises(InvalidRecord):
            estimate_transition(make_record(1, 0.0, 0.0))

    def test_other_deaths_never_enter_the_estimate(self):
        bare = make_record(1, 5000.0, 12.0, cancer_deaths=4.0)
        with_other = make_record(1, 5000.0, 12.0, cancer_deaths=4.0,
                                 other_deaths=900.0)
        assert estimate_transition(bare) == estimate_transition(with_other)

    def test_cohort_wide_matrices(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        ms = transition_matrices(cohort)
        assert [m.p01 for m in ms] == [0.1, 0.2]


class TestCumulativeRate:
    def test_zero_incidence_cohort(self):
        cohort = make_cohort([(1000.0, 0.0), (2000.0, 0.0)])
        assert cumulative_rate(cohort, 2) == 0.0

    def test_single_group_hand_value(self):
        # 5 * (2 / 1000) = 0.01
        cohort = make_cohort([(1000.0, 2.0)])
        assert cumulative_rate(cohort, 1) == 0.01

    def test_accumulates_across_groups(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        assert cumulative_rate(cohort, 1) == pytest.approx(0.1, abs=1e-12)
        assert cumulative_rate(cohort, 2) == pytest.approx(0.3, abs=1e-12)

    def test_rate_may_exceed_one(self):
        # each group is valid (5x = n) yet the summed rate reaches 2
        cohort = make_cohort([(100.0, 20.0)] * 2)
        assert cumulative_rate(cohort, 2) == 2.0

    def test_step_out_of_range(self):
        cohort = make_cohort([(1000.0, 20.0)])
        with pytest.raises(OutOfRange):
            cumulative_rate(cohort, 0)
        with pytest.raises(OutOfRange):
            cumulative_rate(cohort, 2)


class TestCumulativeRiskFromRate:
    def test_zero_rate_is_zero_risk(self):
        assert cumulative_risk_from_rate(0.0) == 0.0

    def test_log_two_rate_is_exactly_half(self):
        assert cumulative_risk_from_rate(math.log(2.0)) == 0.5

    def test_moderate_rate(self):
        assert cumulative_risk_from_rate(0.7604) == pytest.approx(0.5326, abs=1e-4)

    def test_stays_within_probability_bounds(self):
        assert cumulative_risk_from_rate(20.0) < 1.0
        # at huge rates the subtraction rounds to exactly 1.0, never above
        assert cumulative_risk_from_rate(50.0) == 1.0

    def test_rejects_negative_rate(self):
        with pytest.raises(NegativeRate):
            cumulative_risk_from_rate(-0.1)

    def test_rejects_nan_rate(self):
        with pytest.raises(NegativeRate):
            cumulative_risk_from_rate(float("nan"))


class TestPropagate:
    def test_identity_chain_preserves_state(self):
        ms = [TransitionMatrix(p00=1.0, p01=0.0)] * 4
        assert propagate(NEWBORN_STATE, ms) == NEWBORN_STATE

    def test_certain_transition_absorbs_everything(self):
        out = propagate(NEWBORN_STATE, [TransitionMatrix(p00=0.0, p01=1.0)])
        assert out.p_off == 0.0
        assert out.p_red == 1.0

    def test_two_step_hand_value(self):
        ms = [TransitionMatrix(p00=0.9, p01=0.1), TransitionMatrix(p00=0.8, p01=0.2)]
        out = propagate(NEWBORN_STATE, ms)
        assert out.p_off == pytest.approx(0.72, abs=1e-12)
        assert out.p_red == pytest.approx(0.28, abs=1e-12)

    def test_empty_chain_returns_start(self):
        assert propagate(NEWBORN_STATE, []) == NEWBORN_STATE

    def test_red_mass_never_leaks_back(self):
        start = StateVector(p_off=0.0, p_red=1.0)
        out = propagate(start, [TransitionMatrix(p00=0.9, p01=0.1)])
        assert out == start


class TestRedProbability:
    def test_zero_incidence(self):
        cohort = make_cohort([(1000.0, 0.0)] * 3)
        assert red_probability(cohort, 3) == 0.0

    def test_two_step_hand_value(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        assert red_probability(cohort, 2) == pytest.approx(0.28, abs=1e-12)

    def test_matches_state_propagation(self):
        cohort = ramp_cohort()
        state = NEWBORN_STATE
        for t, matrix in enumerate(transition_matrices(cohort), start=1):
            state = propagate(state, [matrix])
            assert red_probability(cohort, t) == pytest.approx(state.p_red,
                                                               abs=1e-12)

    def test_matches_series_column_exactly(self):
        cohort = ramp_cohort()
        series = risk_series(cohort)
        for step in series:
            assert red_probability(cohort, step.t) == step.p_red

    def test_step_out_of_range(self):
        cohort = make_cohort([(1000.0, 20.0)])
        with pytest.raises(OutOfRange):
            red_probability(cohort, 0)
        with pytest.raises(OutOfRange):
            red_probability(cohort, 2)


class TestRiskSeries:
    def test_zero_cohort_stays_at_zero(self):
        series = risk_series(make_cohort([(1000.0, 0.0)] * 4))
        assert len(series) == 4
        for step in series:
            assert step.b == 0.0
            assert step.cum_rate == 0.0
            assert step.cum_risk == 0.0
            assert step.p_red == 0.0
            assert step.p_off == 1.0

    def test_two_group_hand_values(self):
        series = risk_series(make_cohort([(1000.0, 20.0), (1000.0, 40.0)]))
        first, second = series
        assert (first.t, second.t) == (1, 2)
        assert (first.age_label, second.age_label) == ("0-4", "5-9")
        assert first.b == 0.1
        assert second.b == 0.2
        assert first.p_red == pytest.approx(0.1, abs=1e-12)
        assert second.p_red == pytest.approx(0.28, abs=1e-12)
        assert first.cum_rate == pytest.approx(0.1, abs=1e-12)
        assert second.cum_rate == pytest.approx(0.3, abs=1e-12)

    def test_risk_column_is_rate_transform(self):
        for step in risk_series(ramp_cohort()):
            assert step.cum_risk == cumulative_risk_from_rate(step.cum_rate)

    def test_rate_column_matches_query_exactly(self):
        cohort = ramp_cohort()
        for step in risk_series(cohort):
            assert step.cum_rate == cumulative_rate(cohort, step.t)

    def test_open_group_label(self):
        series = risk_series(ramp_cohort(groups=18))
        assert series.steps[-1].age_label == "85+"


class TestConditionalRisk:
    def test_zero_incidence_horizon(self):
        cohort = make_cohort([(1000.0, 0.0)] * 3)
        assert conditional_risk(cohort, 1, 2) == 0.0

    def test_from_birth_equals_unconditional_exactly(self):
        cohort = ramp_cohort()
        g = len(cohort.records)
        assert conditional_risk(cohort, 0, g) == red_probability(cohort, g)

    def test_single_step_equals_transition_probability(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        assert conditional_risk(cohort, 1, 1) == pytest.approx(0.2, abs=1e-12)

    def test_chain_rule_hand_value(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        survive_all = (1.0 - red_probability(cohort, 2))
        survive_first = (1.0 - red_probability(cohort, 1))
        expected = 1.0 - survive_all / survive_first
        assert conditional_risk(cohort, 1, 1) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_windows(self):
        cohort = make_cohort([(1000.0, 20.0)] * 3)
        with pytest.raises(OutOfRange, match=r"got -1 \(age -5 years\)$"):
            conditional_risk(cohort, -1, 1)
        with pytest.raises(OutOfRange, match=r"got 0 \(0 years\)$"):
            conditional_risk(cohort, 0, 0)
        with pytest.raises(OutOfRange, match=r"step 2 \(age 10\) plus horizon 2 \(10 years\) .*"
                                             r"maximum age is 15 years \(last group 10-14\)$"):
            conditional_risk(cohort, 2, 2)


QUERIES = {
    "red_probability": red_probability,
    "cumulative_rate": cumulative_rate,
    "conditional_risk.horizon": lambda cohort, t: conditional_risk(cohort, 0, t),
    "conditional_risk.current_step": lambda cohort, t: conditional_risk(cohort, t, 1),
}


@pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES.keys())
@pytest.mark.parametrize("step", (True, 1.0, "2", None, np.int64(2)), ids=repr)
def test_queries_take_only_integer_steps(query, step):
    cohort = ramp_cohort()
    if isinstance(step, np.integer):
        assert query(cohort, step) == query(cohort, int(step))
    else:
        with pytest.raises(OutOfRange, match=f"must be an integer, got {re.escape(repr(step))}$"):
            query(cohort, step)


class TestCompare:
    def test_identical_cohorts_give_zero_deltas(self):
        a = ramp_cohort()
        report = compare(a, a)
        assert not report.truncated
        for row in report.rows:
            assert (row.delta_b, row.delta_cum_rate, row.delta_cum_risk,
                    row.delta_p_red, row.delta_p_off) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_single_group_delta(self):
        a = make_cohort([(1000.0, 40.0)])
        b = make_cohort([(1000.0, 20.0)])
        report = compare(a, b)
        assert report.rows[0].delta_b == pytest.approx(0.1, abs=1e-12)
        assert report.rows[0].delta_p_red == pytest.approx(0.1, abs=1e-12)

    def test_antisymmetry_is_exact(self):
        a = ramp_cohort(groups=6)
        b = ramp_cohort(groups=6, b_high=0.08)
        forward = compare(a, b)
        backward = compare(b, a)
        for f, r in zip(forward.rows, backward.rows):
            assert f.delta_b == -r.delta_b
            assert f.delta_cum_rate == -r.delta_cum_rate
            assert f.delta_cum_risk == -r.delta_cum_risk
            assert f.delta_p_red == -r.delta_p_red
            assert f.delta_p_off == -r.delta_p_off

    def test_truncates_to_shared_prefix(self):
        long = ramp_cohort(groups=10)
        short = ramp_cohort(groups=4)
        report = compare(long, short)
        assert report.truncated
        assert (report.steps_a, report.steps_b) == (10, 4)
        assert len(report.rows) == 4
        assert len(report) == 4
        assert list(report) == report.rows

    def test_empty_cohort_has_no_overlap(self):
        empty = Cohort(records=[], meta=CohortMeta())
        with pytest.raises(EmptyOverlap):
            compare(empty, ramp_cohort())
        with pytest.raises(EmptyOverlap):
            compare(ramp_cohort(), empty)


class TestCohortPrefixes:
    def test_prefixes_start_at_birth(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        assert cohort.b == (0.1, 0.2)
        assert cohort.p00 == (1.0 - 0.1, 1.0 - 0.2)
        assert cohort.p_off == (1.0, 0.9, 0.9 * (1.0 - 0.2))
        assert cohort.cum_rate == (0.0, 5.0 * 0.02, 5.0 * (0.02 + 0.04))

    def test_cohort_is_frozen(self):
        cohort = make_cohort([(1000.0, 20.0)])
        with pytest.raises(AttributeError):
            cohort.records = ()
        with pytest.raises(AttributeError):
            del cohort.b
        assert len(cohort.records) == 1 and cohort.b == (0.1,)

    def test_copy_and_pickle_rebuild_the_cohort(self):
        cohort = ramp_cohort()
        for clone in (copy.copy(cohort), copy.deepcopy(cohort), pickle.loads(pickle.dumps(cohort))):
            assert (clone.records, clone.meta, clone.b, clone.p00, clone.p_off, clone.cum_rate) == \
                (cohort.records, cohort.meta, cohort.b, cohort.p00, cohort.p_off, cohort.cum_rate)

    def test_errors_name_the_group_and_column(self):
        with pytest.raises(InconsistentRecord) as err:
            make_cohort([(1000.0, 20.0), (100.0, 30.0)])
        assert (err.value.index, err.value.column, err.value.line) == (2, "incidence", None)
        assert str(err.value).startswith("group 2, column 'incidence': 5x > n + 5dc")

    def test_overflowing_counts_are_rejected(self):
        # the pool overflows (5x / (n + 5dc) is inf / inf), or the rate does
        for row in ((1e308, 1e308, 1e308), (1e-300, 1e300, 1e300)):
            with pytest.raises(InconsistentRecord) as err:
                make_cohort([(1000.0, 20.0), row])
            assert err.value.index == 2


class TestTypeInvariants:
    def test_matrix_rejects_leaky_absorbing_row(self):
        with pytest.raises(TypeError):
            TransitionMatrix(p00=0.9, p01=0.1, p10=0.1, p11=0.9)

    def test_matrix_rejects_unnormalised_live_row(self):
        with pytest.raises(CumriskError):
            TransitionMatrix(p00=0.6, p01=0.5)

    def test_matrix_rejects_out_of_range_entry(self):
        # and entries that are not real numbers, and a _replace that would break the row
        for make in (lambda: TransitionMatrix(p00=-0.5, p01=1.5),
                     lambda: TransitionMatrix(p00="0.5", p01="0.5"),
                     lambda: TransitionMatrix(p00=True, p01=False),
                     lambda: TransitionMatrix(p00=0.5, p01=0.5)._replace(p01=1.5)):
            with pytest.raises(CumriskError):
                make()

    def test_state_rejects_unnormalised_vector(self):
        with pytest.raises(CumriskError):
            StateVector(p_off=0.6, p_red=0.5)

    def test_state_rejects_negative_mass(self):
        # and masses that are not real numbers, and a _replace that would break the sum
        for make in (lambda: StateVector(p_off=1.1, p_red=-0.1),
                     lambda: StateVector(p_off=None, p_red=1.0),
                     lambda: StateVector(p_off=True, p_red=False),
                     lambda: NEWBORN_STATE._replace(p_red=0.5)):
            with pytest.raises(CumriskError):
                make()

    def test_state_tolerates_rounding_noise(self):
        StateVector(p_off=1.0 + 1e-13, p_red=-1e-13)

    def test_cohort_rejects_index_gap(self):
        # and an index that only compares equal to its position: True == 1, 1.0 == 1
        first = make_record(1, 1000.0, 1.0)
        for records, position in (([first, make_record(3, 1000.0, 1.0)], 2),
                                  ([first._replace(index=True)], 1),
                                  ([first, make_record(2, 1000.0, 1.0)._replace(index=2.0)], 2)):
            with pytest.raises(InvalidCohort) as err:
                Cohort(records=records, meta=CohortMeta())
            assert err.value.index == position

    def test_cohort_rejects_what_is_not_a_record(self):
        first = make_record(1, 1000.0, 1.0)
        for records, position in (([first, tuple(make_record(2, 1000.0, 1.0))], 2), ([1], 1), (None, None)):
            with pytest.raises(InvalidCohort) as err:
                Cohort(records=records)
            assert err.value.index == position

    def test_cohort_rejects_age_gap(self):
        second = AgeGroupRecord(index=2, age_low=15, age_high=20,
                                population=1000.0, incidence=1.0,
                                cancer_deaths=0.0)
        with pytest.raises(InvalidCohort):
            Cohort(records=[make_record(1, 1000.0, 1.0), second],
                   meta=CohortMeta())

    def test_cohort_rejects_open_group_before_last(self):
        records = [make_record(1, 1000.0, 1.0, open_group=True),
                   make_record(2, 1000.0, 1.0)]
        with pytest.raises(InvalidCohort) as err:
            Cohort(records=records, meta=CohortMeta())
        assert err.value.index == 2

    def test_cohort_must_start_at_age_zero(self):
        record = AgeGroupRecord(index=1, age_low=5, age_high=10,
                                population=1000.0, incidence=1.0,
                                cancer_deaths=0.0)
        with pytest.raises(InvalidCohort):
            Cohort(records=[record], meta=CohortMeta())

    def test_record_rejects_wrong_width(self):
        record = AgeGroupRecord(index=1, age_low=0, age_high=7,
                                population=1000.0, incidence=1.0,
                                cancer_deaths=0.0)
        with pytest.raises(InvalidRecord):
            record.validate()

    def test_record_rejects_negative_counts(self):
        with pytest.raises(InvalidRecord):
            make_record(1, 1000.0, -1.0).validate()
        with pytest.raises(InvalidRecord):
            make_record(1, 1000.0, 1.0, cancer_deaths=-2.0).validate()

    def test_record_rejects_misaligned_age(self):
        record = AgeGroupRecord(index=1, age_low=3, age_high=8,
                                population=1000.0, incidence=1.0,
                                cancer_deaths=0.0)
        with pytest.raises(InvalidRecord):
            record.validate()

    def test_record_rejects_bool_and_non_real_counts(self):
        for value in (True, "100", 1j, 10**400, 10**5000):
            record = make_record(1, 1000.0, 1.0)._replace(population=value)
            with pytest.raises(InvalidRecord) as err:
                record.validate()
            assert (err.value.index, err.value.column) == (1, "population")

    def test_errors_name_ints_too_long_to_print(self):
        # repr of an int over 4,300 digits raises ValueError; no error
        # message may fail that way
        huge = 10**5000
        cohort = ramp_cohort(groups=2)
        for make in (lambda: Cohort(records=[AgeGroupRecord(1, 0, huge, 1000.0, 1.0, 0.0)]),
                     lambda: Cohort(records=[AgeGroupRecord(1, huge, None, 1000.0, 1.0, 0.0)]),
                     lambda: Cohort(records=[AgeGroupRecord(huge, 0, None, 1000.0, 1.0, 0.0)]),
                     lambda: TransitionMatrix(p00=huge, p01=0.0),
                     lambda: StateVector(p_off=huge, p_red=0.0),
                     lambda: red_probability(cohort, huge),
                     lambda: cumulative_rate(cohort, -huge),
                     lambda: cumulative_risk_from_rate(-huge),
                     lambda: conditional_risk(cohort, -huge, 1),
                     lambda: conditional_risk(cohort, 0, -huge),
                     lambda: conditional_risk(cohort, huge, 1)):
            with pytest.raises(CumriskError, match="an integer of 16610 bits"):
                make()

    def test_matrix_keeps_only_the_off_row(self):
        assert TransitionMatrix._fields == ("p00", "p01")

    def test_age_labels(self):
        assert make_record(1, 1000.0, 1.0).age_label == "0-4"
        assert make_record(18, 1000.0, 1.0, open_group=True).age_label == "85+"
