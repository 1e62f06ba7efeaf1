"""Property-based checks of the model's algebraic identities."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cumrisk.simulate as simulator
from cumrisk.core import (
    NEWBORN_STATE,
    PROB_TOL,
    CumriskError,
    StateVector,
    TransitionMatrix,
    compare,
    conditional_risk,
    propagate,
    red_probability,
    risk_series,
    transition_matrices,
)
from cumrisk.io import emit_cohort, emit_series, parse_cohort
from cumrisk.simulate import SimulationConfig, simulate
from helpers import (
    ODD_ROWS,
    make_cohort,
    make_record,
    reference_comparison,
    reference_conditional_risk,
    reference_off_counts,
    reference_propagate,
    reference_record_check,
    reference_value_check,
    series_documents,
)

TOL = 1e-12


@st.composite
def cohorts(draw, max_groups=18):
    groups = draw(st.integers(min_value=1, max_value=max_groups))
    open_last = draw(st.booleans())
    rows = []
    for _ in range(groups):
        population = draw(st.integers(min_value=1, max_value=1_000_000))
        cancer_deaths = draw(st.integers(min_value=0, max_value=max(1, population // 5)))
        pool = population + 5 * cancer_deaths
        incidence = draw(st.integers(min_value=0, max_value=pool // 5))
        rows.append((float(population), float(incidence), float(cancer_deaths)))
    return make_cohort(rows, open_last=open_last)


@st.composite
def edge_cohorts(draw, max_groups=18):
    """Cohorts whose groups may have b = 0 or b = 1 exactly, as well as any b."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_groups))):
        kind = draw(st.sampled_from(("any", "zero", "one")))
        population = draw(st.integers(min_value=1, max_value=1_000_000))
        population += -population % 5 if kind == "one" else 0  # so that 5x = n + 5dc is exact
        cancer_deaths = draw(st.integers(min_value=0, max_value=max(1, population // 5)))
        pool = population + 5 * cancer_deaths
        if kind == "any":
            incidence = draw(st.integers(min_value=0, max_value=pool // 5))
        else:
            incidence = 0 if kind == "zero" else pool // 5
        rows.append((float(population), float(incidence), float(cancer_deaths)))
    return make_cohort(rows, open_last=draw(st.booleans()))


@given(cohorts())
@settings(deadline=None)
def test_closed_form_matches_propagation(cohort):
    state = NEWBORN_STATE
    for t, matrix in enumerate(transition_matrices(cohort), start=1):
        state = propagate(state, [matrix])
        assert abs(red_probability(cohort, t) - state.p_red) <= TOL
        assert abs(state.p_off + state.p_red - 1.0) <= TOL


@given(cohorts())
@settings(deadline=None)
def test_series_is_monotone_and_consistent(cohort):
    previous = 0.0
    for step in risk_series(cohort):
        assert step.p_red >= previous
        previous = step.p_red
        assert 0.0 <= step.p_red <= 1.0
        assert step.p_red == red_probability(cohort, step.t)
    for matrix in transition_matrices(cohort):
        assert matrix.p10 == 0.0 and matrix.p11 == 1.0
        assert abs(matrix.p00 + matrix.p01 - 1.0) <= TOL


@given(cohorts(max_groups=12))
@settings(max_examples=60, deadline=None)
def test_survival_chain_rule(cohort):
    groups = len(cohort.records)
    for t in range(1, groups + 1):
        survive_t = 1.0 - red_probability(cohort, t)
        for j in range(0, t):
            survive_j = 1.0 - red_probability(cohort, j) if j > 0 else 1.0
            conditional = conditional_risk(cohort, j, t - j)
            assert abs(survive_t - survive_j * (1.0 - conditional)) <= TOL


@given(cohorts())
@settings(deadline=None)
def test_conditional_from_birth_is_the_unconditional_risk(cohort):
    groups = len(cohort.records)
    assert conditional_risk(cohort, 0, groups) == red_probability(cohort, groups)


@given(cohorts())
@settings(deadline=None)
def test_cohort_round_trip(cohort):
    text = emit_cohort(cohort)
    parsed = parse_cohort(text)
    assert parsed.records == cohort.records
    assert emit_cohort(parsed) == text


@given(cohorts())
@settings(deadline=None)
def test_series_emission_round_trips(cohort):
    series = risk_series(cohort)
    text = emit_series(series)
    assert emit_series(series) == text
    for line, step in zip(text.splitlines()[1:], series):
        cells = line.split(",")
        assert float(cells[2]) == step.b
        assert float(cells[5]) == step.p_red
        assert float(cells[6]) == step.p_off


@given(st.one_of(cohorts(), edge_cohorts()), edge_cohorts(), st.data())
@settings(deadline=None)
def test_a_series_writes_the_plain_documents_of_its_rows_through_any_edits(cohort, other, data):
    # emissions in any order between edits of the steps; the pool holds rows of another cohort, rows equal
    # to the series' own whose t is a float (equal values, other texts), and rows of odd values
    series = risk_series(cohort)
    pool = (series.steps + risk_series(other).steps + [step._replace(t=float(step.t)) for step in series.steps]
            + ODD_ROWS)
    rows = st.sampled_from(pool)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        edit = data.draw(st.sampled_from(("csv", "json", "append", "replace", "del", "reassign")))
        if edit in ("csv", "json"):
            document = emit_series(series, edit)
            assert document == emit_series(list(series.steps), edit) == series_documents(series.steps)[edit]
        elif edit == "append":
            series.steps.append(data.draw(rows))
        elif edit == "reassign":
            series.steps = data.draw(st.lists(rows, max_size=20))
        elif series.steps:
            at = data.draw(st.integers(min_value=0, max_value=len(series.steps) - 1))
            if edit == "del":
                del series.steps[at]
            else:
                series.steps[at] = data.draw(rows)
    for format in ("csv", "json"):
        assert emit_series(series, format) == series_documents(series.steps)[format]


@given(cohorts(max_groups=8), cohorts(max_groups=8))
@settings(deadline=None)
def test_compare_is_antisymmetric(a, b):
    forward = compare(a, b)
    backward = compare(b, a)
    assert forward.truncated == backward.truncated
    for f, r in zip(forward.rows, backward.rows):
        assert f.delta_b == -r.delta_b
        assert f.delta_cum_rate == -r.delta_cum_rate
        assert f.delta_cum_risk == -r.delta_cum_risk
        assert f.delta_p_red == -r.delta_p_red
        assert f.delta_p_off == -r.delta_p_off


@given(edge_cohorts(), edge_cohorts())
@settings(deadline=None)
def test_compare_equals_the_difference_of_the_two_tables(a, b):
    forward = compare(a, b)
    # repr tells every double apart, the sign of a zero too
    assert list(map(repr, forward.rows)) == list(map(repr, reference_comparison(a, b)))
    assert (forward.steps_a, forward.steps_b) == (len(a), len(b))
    for f, r in zip(forward.rows, compare(b, a).rows):
        assert f[2:] == tuple(-delta for delta in r[2:])


@given(edge_cohorts(), st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**64 - 1))
@settings(deadline=None)
def test_both_simulator_kernels_give_the_reference_counts(cohort, n_bulbs, seed):
    # these runs are under the default budget, which gives them the Python kernel; a budget of 0, numpy's
    config = SimulationConfig(cohort, n_bulbs, seed)
    expected = reference_off_counts(cohort, n_bulbs, seed)
    assert [step.off_count for step in simulate(config).steps] == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_SMALL_BULB_STEPS", 0)
        assert [step.off_count for step in simulate(config).steps] == expected


@given(edge_cohorts())
@settings(deadline=None)
def test_query_kernels_give_the_doubles_of_the_plain_loops(cohort):
    groups = len(cohort)
    # row 0 of the table, which red_probability reads, is the plain loop from birth
    by_step = [repr(reference_conditional_risk(cohort, 0, t)) for t in range(1, groups + 1)]
    assert list(map(repr, cohort._risks[0])) == ["0.0"] + by_step
    windows = [(s, h) for s in range(groups) for h in range(1, groups - s + 1)]
    assert [repr(conditional_risk(cohort, s, h)) for s, h in windows] == \
        [repr(reference_conditional_risk(cohort, s, h)) for s, h in windows]
    matrices = transition_matrices(cohort)
    assert list(map(repr, matrices)) == [repr(TransitionMatrix(1.0 - b, b)) for b in cohort.b]
    state = expected = NEWBORN_STATE
    for matrix in matrices:
        state, expected = propagate(state, (matrix,)), reference_propagate(expected, (matrix,))
        assert repr(state) == repr(expected)
    assert repr(propagate(NEWBORN_STATE, matrices)) == repr(reference_propagate(NEWBORN_STATE, matrices))


class _Real(float):
    """A float subclass: not the exact type the constructors' fast path takes."""


def _neighbours(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


EDGE_ENTRIES = (
    0.0, -0.0, 0.5, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, sys.float_info.min / 2,
    *_neighbours(0.0), *_neighbours(1.0),
    *_neighbours(PROB_TOL), *_neighbours(-PROB_TOL), *_neighbours(1.0 + PROB_TOL),
    *_neighbours(1.0 - PROB_TOL), *_neighbours(-2 * PROB_TOL),
    0, 1, True, False, np.float64(0.5), np.float64(1.0), np.float64(math.nan), _Real(0.25), _Real(1.0),
    "0.5", None,
)


@st.composite
def entry_pairs(draw):
    """Two entries from EDGE_ENTRIES, or a pair whose sum misses 1 by about PROB_TOL, a few ulps either way."""
    if draw(st.booleans()):
        return draw(st.sampled_from(EDGE_ENTRIES)), draw(st.sampled_from(EDGE_ENTRIES))
    first = draw(st.floats(min_value=0.0, max_value=1.0))
    second = 1.0 - first + draw(st.sampled_from((PROB_TOL, -PROB_TOL)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        second = math.nextafter(second, draw(st.sampled_from((-math.inf, math.inf))))
    return (first, second) if draw(st.booleans()) else (second, first)


@given(st.sampled_from((TransitionMatrix, StateVector)), entry_pairs())
@settings(max_examples=500, deadline=None)
def test_value_constructors_accept_and_reject_as_the_plain_checks(cls, pair):
    expected = reference_value_check(cls, *pair)
    try:
        value = cls(*pair)
    except CumriskError as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None
        assert all(got is given for got, given in zip(value, pair))


COUNT_FIELDS = ("population", "incidence", "cancer_deaths", "other_deaths")
COUNT_VALUES = (
    0.0, -0.0, 5e-324, 1.0, sys.float_info.max, -5e-324, -1.0, math.nan, math.inf, -math.inf,
    _Real(1.0), np.float64(1.0), 3, 10**400, True, "1", None,
)


def _validate_outcome(record):
    try:
        record.validate()
    except CumriskError as exc:
        return type(exc), exc.index, exc.column, str(exc)
    return None


@pytest.mark.parametrize("value", COUNT_VALUES, ids=repr)
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_record_validation_accepts_and_rejects_as_the_plain_checks(field, value):
    record = make_record(2, 1000.0, 2.0, 1.0, other_deaths=4.0)._replace(**{field: value})
    assert _validate_outcome(record) == reference_record_check(record)


@given(st.one_of(cohorts(), edge_cohorts()), st.data())
@settings(max_examples=300, deadline=None)
def test_a_cohort_record_with_one_count_replaced_validates_as_the_plain_checks(cohort, data):
    record = data.draw(st.sampled_from(cohort.records))
    assert _validate_outcome(record) is None is reference_record_check(record)
    value = data.draw(st.one_of(st.sampled_from(COUNT_VALUES), st.floats()))
    record = record._replace(**{data.draw(st.sampled_from(COUNT_FIELDS)): value})
    assert _validate_outcome(record) == reference_record_check(record)


@st.composite
def tiny_b_cohorts(draw, max_groups=18):
    """Cohorts whose transition probabilities may be tiny (1e-6 to 1e-3), as well as any b."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_groups))):
        # at most 0.99, so that 5x never rounds past n; edge_cohorts covers b = 1
        b = draw(st.one_of(st.floats(min_value=1e-6, max_value=1e-3), st.floats(min_value=0.0, max_value=0.99)))
        population = draw(st.floats(min_value=1.0, max_value=1e9))
        rows.append((population, b * population / 5.0))
    return make_cohort(rows, open_last=draw(st.booleans()))


ULP_OF_ONE_HALF = Fraction(1, 2**53)


def _exact_risk(cohort, s, h):
    off = Fraction(1)
    for b in cohort.b[s:s + h]:
        off *= 1 - Fraction(b)
    return 1 - off


@given(tiny_b_cohorts())
@settings(deadline=None)
def test_window_products_are_within_their_rounding_bound_of_the_exact_value(cohort):
    # h rounded 1 - b, h - 1 rounded products and the final subtraction, each
    # within 2**-53 of a value no larger than 1
    groups = len(cohort)
    for s in range(groups):
        for h in range(1, groups - s + 1):
            exact = _exact_risk(cohort, s, h)
            assert abs(Fraction(conditional_risk(cohort, s, h)) - exact) <= (2 * h + 1) * ULP_OF_ONE_HALF
            if s == 0:
                assert abs(Fraction(red_probability(cohort, h)) - exact) <= (2 * h + 1) * ULP_OF_ONE_HALF


any_b_cohorts = st.one_of(tiny_b_cohorts(), edge_cohorts())


@given(st.one_of(cohorts(), edge_cohorts(), tiny_b_cohorts()))
@settings(deadline=None)
def test_transition_matrices_are_the_rows_the_checked_constructor_builds(cohort):
    matrices = transition_matrices(cohort)
    assert all(type(m) is TransitionMatrix for m in matrices)
    assert matrices == [TransitionMatrix(1.0 - b, b) for b in cohort.b]


@given(st.one_of(cohorts(), edge_cohorts(), tiny_b_cohorts()),
       st.sampled_from(("start-major", "horizon-major", "shuffled", "repeated")), st.randoms())
@settings(deadline=None)
def test_every_window_is_the_reference_double_in_any_query_order(cohort, order, rng):
    # the first query from a start keeps the windows of all horizons from it; each later one reads them
    groups = len(cohort)
    windows = [(j, h) for j in range(groups) for h in range(1, groups - j + 1)]
    if order == "horizon-major":
        windows.sort(key=lambda window: window[::-1])
    elif order == "shuffled":
        rng.shuffle(windows)
    elif order == "repeated":
        windows = [window for window in windows for _ in range(2)] + windows
    for j, h in windows:
        assert conditional_risk(cohort, j, h).hex() == reference_conditional_risk(cohort, j, h).hex(), (j, h)

# Half the smallest subnormal: the most a result that rounds into the subnormal range loses.
HALF_SUBNORMAL = Fraction(1, 2**1075)
# The relative error of b after four roundings: 5.0 * x, 5.0 * dc, the pool n + 5dc and the quotient.
B_RELATIVE = (1 + ULP_OF_ONE_HALF)**2 / (1 - 2 * ULP_OF_ONE_HALF - ULP_OF_ONE_HALF**2) - 1


def _exact_columns(cohort):
    """Per step, each analytic column's exact value and the bound on the error of its double.

    b and cum_rate are exact from the stored counts, cum_risk is 1 - exp(-rate)
    of the exact rate in 60-digit Decimal, and p_red and p_off are exact from
    the stored b, as for the window products above.
    """
    u = ULP_OF_ONE_HALF
    rows = []
    annual_sum = Fraction(0)
    off = Fraction(1)
    for t, (record, b) in enumerate(zip(cohort.records, cohort.b), start=1):
        population, incidence, cancer_deaths = map(Fraction, (record.population, record.incidence,
                                                              record.cancer_deaths))
        exact_b = 5 * incidence / (population + 5 * cancer_deaths)
        annual_sum += incidence / population
        rate = 5 * annual_sum
        with localcontext() as context:
            context.prec = 60
            survive = Fraction((-Decimal(rate.numerator) / Decimal(rate.denominator)).exp())
        off *= 1 - Fraction(b)
        rows.append({
            # a quotient that rounds into the subnormal range also loses up to HALF_SUBNORMAL
            "b": (exact_b, B_RELATIVE * exact_b + HALF_SUBNORMAL),
            # t quotients, t - 1 additions and the final * 5.0; 5.0 scales each quotient's subnormal loss
            "cum_rate": (rate, (2 * t + 1) * u * rate + (5 * t + 1) * HALF_SUBNORMAL),
            # the rate's error through exp(-rate), then the rounding of exp and of the subtraction
            "cum_risk": (1 - survive, ((2 * t + 1) * rate * survive + 2) * u),
            "p_red": (1 - off, (2 * t + 1) * u),
            "p_off": (off, (2 * t + 1) * u),
        })
    return rows


@given(any_b_cohorts)
@settings(deadline=None)
def test_series_columns_are_within_their_rounding_bounds_of_the_exact_values(cohort):
    for step, exact in zip(risk_series(cohort), _exact_columns(cohort)):
        for column, (value, bound) in exact.items():
            assert abs(Fraction(getattr(step, column)) - value) <= bound, (step.t, column)


@given(any_b_cohorts, any_b_cohorts)
@settings(deadline=None)
def test_comparison_deltas_are_within_their_columns_bounds_of_the_exact_differences(a, b):
    steps = zip(compare(a, b).rows, risk_series(a), risk_series(b), _exact_columns(a), _exact_columns(b))
    for row, step_a, step_b, exact_a, exact_b in steps:
        for column in exact_a:
            (value_a, bound_a), (value_b, bound_b) = exact_a[column], exact_b[column]
            # one more rounding: the difference of the two columns' doubles
            difference = Fraction(getattr(step_a, column)) - Fraction(getattr(step_b, column))
            bound = bound_a + bound_b + ULP_OF_ONE_HALF * abs(difference)
            assert abs(Fraction(getattr(row, f"delta_{column}")) - (value_a - value_b)) <= bound, (row.t, column)
