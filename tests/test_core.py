"""Unit tests for the analytic core: estimation, propagation, series, queries."""

import copy
import math
import pickle
import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cumrisk.core import (
    MAX_GROUPS,
    NEWBORN_STATE,
    PROB_TOL,
    AgeGroupRecord,
    Cohort,
    CohortMeta,
    CumriskError,
    InvalidCohort,
    InvalidRecord,
    OutOfRange,
    StateVector,
    TransitionMatrix,
    compare,
    conditional_risk,
    cumulative_rate,
    cumulative_risk_from_rate,
    propagate,
    red_probability,
    risk_series,
    transition_matrices,
)
from helpers import make_cohort, make_record, ramp_cohort, reference_conditional_risk


class TestEstimateTransition:
    """b = 5x / (n + 5dc), read as Cohort().b and transition_matrices()."""

    def test_zero_incidence_gives_identity_row(self):
        (m,) = transition_matrices(make_cohort([(1000.0, 0.0)]))
        assert m.p01 == 0.0
        assert m.p00 == 1.0

    def test_hand_worked_value(self):
        # 5 * 1 / (95 + 5 * 1) = 5 / 100
        cohort = make_cohort([(95.0, 1.0, 1.0)])
        (m,) = transition_matrices(cohort)
        assert cohort.b == (0.05,)
        assert m.p01 == 0.05
        assert m.p00 == 0.95

    def test_diagnosed_row_is_absorbing(self):
        (m,) = transition_matrices(make_cohort([(1000.0, 3.0)]))
        assert m.p10 == 0.0
        assert m.p11 == 1.0

    def test_probability_one_boundary(self):
        # 5 * 20 == 100: every survivor is diagnosed within the group
        (m,) = transition_matrices(make_cohort([(100.0, 20.0)]))
        assert m.p01 == 1.0
        assert m.p00 == 0.0

    def test_rejects_incidence_exceeding_pool(self):
        with pytest.raises(InvalidRecord, match="5x > n \\+ 5dc") as info:
            make_cohort([(100.0, 30.0)])
        assert info.value.index == 1
        assert info.value.column == "incidence"

    def test_rejects_nonpositive_population(self):
        with pytest.raises(InvalidRecord, match="population must be positive") as info:
            make_cohort([(0.0, 0.0)])
        assert info.value.column == "population"

    def test_other_deaths_never_enter_the_estimate(self):
        bare = Cohort([make_record(1, 5000.0, 12.0, cancer_deaths=4.0)])
        with_other = Cohort([make_record(1, 5000.0, 12.0, cancer_deaths=4.0, other_deaths=900.0)])
        assert bare.b == with_other.b
        assert transition_matrices(bare) == transition_matrices(with_other)

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
        for step in (-1, 0, 2):  # -1 and 0 would index the prefixes' last and birth entries
            with pytest.raises(OutOfRange, match=f"^step {step} outside the cohort's range 1..1$"):
                cumulative_rate(cohort, step)


class TestCumulativeRiskFromRate:
    def test_zero_rate_is_zero_risk(self):
        assert cumulative_risk_from_rate(0.0) == 0.0
        assert cumulative_risk_from_rate(0) == 0.0

    def test_log_two_rate_is_exactly_half(self):
        assert cumulative_risk_from_rate(math.log(2.0)) == 0.5

    def test_moderate_rate(self):
        assert cumulative_risk_from_rate(0.7604) == pytest.approx(0.5326, abs=1e-4)

    def test_stays_within_probability_bounds(self):
        assert cumulative_risk_from_rate(20.0) < 1.0
        # at huge rates the subtraction rounds to exactly 1.0, never above
        assert cumulative_risk_from_rate(50.0) == 1.0
        assert cumulative_risk_from_rate(math.inf) == cumulative_risk_from_rate(np.float64(math.inf)) == 1.0

    @pytest.mark.parametrize("rate, message", [
        (-0.1, "cumulative rate must be >= 0, got -0.1"),
        ("a", "cumulative rate must be a real number, got 'a'"),
        (None, "cumulative rate must be a real number, got None"),
        (True, "cumulative rate must be a real number, got True"),
        (10**400, f"cumulative rate must fit in a double, got {10**400!r}"),
        (10**5000, "cumulative rate must fit in a double, got an integer of 16610 bits"),
    ], ids=["negative", "str", "None", "bool", "int beyond the doubles", "int beyond repr"])
    def test_rejects_negative_rate(self, rate, message):
        with pytest.raises(CumriskError) as err:
            cumulative_risk_from_rate(rate)
        assert (type(err.value), str(err.value)) == (CumriskError, message)

    def test_rejects_nan_rate(self):
        with pytest.raises(CumriskError, match="^cumulative rate must be >= 0, got nan$"):
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
        for step in (-1, 0, 2):  # -1 and 0 would index the prefixes' last and birth entries
            with pytest.raises(OutOfRange, match=f"^step {step} outside the cohort's range 1..1$"):
                red_probability(cohort, step)


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
        too_far = r"exceeds the cohort's 3 groups; the maximum age is 15 years \(last group 10-14\)$"
        bad = {(-1, 1): r"^current step must be >= 0, got -1 \(age -5 years\)$",
               (0, 0): r"^horizon must be at least one step \(5 years\), got 0 \(0 years\)$",
               (1, 0): r"^horizon must be at least one step \(5 years\), got 0 \(0 years\)$",
               (2, 2): r"^step 2 \(age 10\) plus horizon 2 \(10 years\) " + too_far,
               (3, 1): r"^step 3 \(age 15\) plus horizon 1 \(5 years\) " + too_far}
        cohort = make_cohort([(1000.0, 20.0)] * 3)
        for swept in (False, True):
            if swept:
                # a kept row answers by index alone, where -1 or a horizon of 0 would wrap round to its end
                for j, h in windows(cohort):
                    conditional_risk(cohort, j, h)
                assert all(cohort._risks)
            for window, message in bad.items():
                with pytest.raises(OutOfRange, match=message):
                    conditional_risk(cohort, *window)
        with pytest.raises(OutOfRange, match=r"^step 0 \(age 0\) plus horizon 1 \(5 years\) exceeds the cohort's "
                                             r"0 groups; the maximum age is 0 years$"):
            conditional_risk(Cohort([]), 0, 1)

    def test_a_numpy_integer_on_a_kept_start_reads_the_kept_row(self):
        cohort = ramp_cohort()
        value = conditional_risk(cohort, 2, 3)
        row = cohort._risks[2]
        assert conditional_risk(cohort, np.int64(2), np.int64(3)).hex() == value.hex()
        assert cohort._risks[2] is row


def windows(cohort):
    """Every (current_step, horizon_steps) a cohort answers, start-major."""
    groups = len(cohort)
    return [(j, h) for j in range(groups) for h in range(1, groups - j + 1)]


class TestConditionalRiskTable:
    """The windows a Cohort keeps once conditional_risk has multiplied them out."""

    def test_threads_sweeping_one_fresh_cohort_get_the_reference_doubles(self):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # so that the threads interleave inside one miss
        try:
            for seed in range(10):
                cohort = ramp_cohort(b_high=0.05 + 0.01 * seed)
                expected = {window: reference_conditional_risk(cohort, *window) for window in windows(cohort)}
                orders = [windows(cohort), windows(cohort)[::-1], sorted(windows(cohort), key=lambda w: w[::-1]),
                          random.Random(seed).sample(windows(cohort), len(expected))]
                results = [None] * len(orders)
                barrier = threading.Barrier(len(orders))

                def sweep(i):
                    barrier.wait(timeout=60)
                    results[i] = {window: conditional_risk(cohort, *window) for window in orders[i]}

                threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(orders))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * len(orders)
        finally:
            sys.setswitchinterval(switch)

    def test_a_copy_of_a_queried_cohort_gives_the_same_doubles(self):
        cohort = ramp_cohort()
        expected = [conditional_risk(cohort, j, h) for j, h in windows(cohort)]
        for clone in (copy.copy(cohort), copy.deepcopy(cohort), pickle.loads(pickle.dumps(cohort))):
            assert [conditional_risk(clone, j, h) for j, h in windows(clone)] == expected

    def test_a_full_sweep_of_an_eighteen_group_cohort_keeps_a_few_kilobytes(self):
        cohort = ramp_cohort(groups=18)
        conditional_risk(cohort, 1, 1)  # one row kept before the count starts, as any first miss allocates
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for j, h in windows(cohort):
                conditional_risk(cohort, j, h)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 152 more doubles in 16 arrays; row 0 and the list that holds the rows were made with the Cohort
        assert kept <= 6 * 1024


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
        for a, b in ((empty, ramp_cohort()), (ramp_cohort(), empty)):
            with pytest.raises(CumriskError) as err:
                compare(a, b)
            assert (type(err.value), str(err.value)) == \
                (CumriskError, "both cohorts need at least one age group to compare")


class TestCohortPrefixes:
    def test_prefixes_start_at_birth(self):
        cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
        assert cohort.b == (0.1, 0.2)
        assert cohort.p_off == (1.0, 0.9, 0.9 * (1.0 - 0.2))
        assert cohort.cum_rate == (0.0, 5.0 * 0.02, 5.0 * (0.02 + 0.04))
        # row 0 of the table, the risk by each step, is built with the prefixes; the other row waits for a query
        assert list(map(float.hex, cohort._risks[0])) == \
            list(map(float.hex, (0.0, 1.0 - 0.9, 1.0 - 0.9 * (1.0 - 0.2))))
        assert cohort._risks[1:] == [()]

    def test_cohort_is_frozen(self):
        cohort = make_cohort([(1000.0, 20.0)])
        with pytest.raises(AttributeError):
            cohort.records = ()
        with pytest.raises(AttributeError):
            del cohort.b
        assert len(cohort.records) == 1 and cohort.b == (0.1,)

    def test_copy_and_pickle_rebuild_the_cohort(self):
        cohort = ramp_cohort()
        conditional_risk(cohort, 2, 1)
        for clone in (copy.copy(cohort), copy.deepcopy(cohort), pickle.loads(pickle.dumps(cohort))):
            assert (clone.records, clone.meta, clone.b, clone.p_off, clone.cum_rate) == \
                (cohort.records, cohort.meta, cohort.b, cohort.p_off, cohort.cum_rate)
            # a copy keeps row 0 of the table alone: the row the query stored is built again on demand
            assert list(map(float.hex, clone._risks[0])) == list(map(float.hex, cohort._risks[0]))
            assert clone._risks[1:] == [()] * (len(cohort) - 1)

    def test_a_cohort_holds_at_most_max_groups(self):
        row = (1000.0, 1.0)
        assert len(make_cohort([row] * MAX_GROUPS)) == MAX_GROUPS
        with pytest.raises(InvalidCohort) as err:
            make_cohort([row] * (MAX_GROUPS + 1))
        assert (err.value.index, err.value.column, err.value.line) == (MAX_GROUPS + 1, None, None)
        assert str(err.value) == f"group {MAX_GROUPS + 1}: a cohort may hold at most {MAX_GROUPS} age groups"
        # refused before any record is looked at: these are no records at all
        with pytest.raises(InvalidCohort, match=f"at most {MAX_GROUPS} age groups$"):
            Cohort([None] * (MAX_GROUPS + 1))

    def test_no_record_past_the_cap_is_drawn(self):
        def records():
            for index in range(1, MAX_GROUPS + 2):
                yield make_record(index, 1000.0, 1.0)
            raise RuntimeError("a record past the cap was drawn")

        with pytest.raises(InvalidCohort) as err:
            Cohort(records())
        assert err.value.index == MAX_GROUPS + 1

    def test_errors_name_the_group_and_column(self):
        with pytest.raises(InvalidRecord) as err:
            make_cohort([(1000.0, 20.0), (100.0, 30.0)])
        assert (err.value.index, err.value.column, err.value.line) == (2, "incidence", None)
        assert str(err.value).startswith("group 2, column 'incidence': 5x > n + 5dc")

    def test_overflowing_counts_are_rejected(self):
        # the pool overflows (5x / (n + 5dc) is inf / inf), or the rate does
        for row in ((1e308, 1e308, 1e308), (1e-300, 1e300, 1e300)):
            with pytest.raises(InvalidRecord) as err:
                make_cohort([(1000.0, 20.0), row])
            assert (err.value.index, err.value.column) == (2, "incidence")


class TestTypeInvariants:
    def test_matrix_rejects_leaky_absorbing_row(self):
        with pytest.raises(TypeError):
            TransitionMatrix(p00=0.9, p01=0.1, p10=0.1, p11=0.9)

    def test_matrix_rejects_unnormalised_live_row(self):
        with pytest.raises(CumriskError):
            TransitionMatrix(p00=0.6, p01=0.5)

    def test_matrix_rejects_out_of_range_entry(self):
        # and the rounding noise a state tolerates, entries that are not real numbers, and a _replace that
        # would break the row
        for make in (lambda: TransitionMatrix(p00=-0.5, p01=1.5),
                     lambda: TransitionMatrix(p00=1.0 + 1e-13, p01=-1e-13),
                     lambda: TransitionMatrix(p00="0.5", p01="0.5"),
                     lambda: TransitionMatrix(p00=True, p01=False),
                     lambda: TransitionMatrix(p00=0.5, p01=0.5)._replace(p01=1.5)):
            with pytest.raises(CumriskError):
                make()

    def test_state_rejects_unnormalised_vector(self):
        with pytest.raises(CumriskError):
            StateVector(p_off=0.6, p_red=0.5)

    def test_state_rejects_negative_mass(self):
        # and a mass one ulp past the slack, though 1.0 + p_red rounds to within PROB_TOL of 1; masses that
        # are not real numbers; and a _replace that would break the sum
        for make in (lambda: StateVector(p_off=1.1, p_red=-0.1),
                     lambda: StateVector(p_off=1.0, p_red=math.nextafter(-PROB_TOL, -math.inf)),
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

    def test_cohort_lets_an_error_inside_the_records_iterator_through(self):
        # only a value that cannot be iterated is "not an iterable"
        def records():
            yield 1 + "a"

        with pytest.raises(TypeError, match="unsupported operand"):
            Cohort(records())
        with pytest.raises(InvalidCohort, match="records must be an iterable of AgeGroupRecord, got int"):
            Cohort(5)

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
