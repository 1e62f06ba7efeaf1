"""Analytic engine for cumulative cancer risk from age-grouped incidence tables.

The population model has two states: OFF (alive and never diagnosed) and RED
(ever diagnosed). RED is absorbing. Every five-year age group contributes one
transition matrix estimated from its annual incidence and cancer-death counts;
propagating the newborn state (1, 0) through the first t matrices gives the
probability of a diagnosis by age 5t. The classical cumulative rate/risk pair
is computed alongside, so the two estimators can be compared step by step.

All counts are annual. The factor 5 appearing throughout converts them to the
five-year step: over one step the at-risk pool is population + 5*cancer_deaths
(people who died of cancer during the step started it alive and cancer free),
of which 5*incidence receive a diagnosis. Deaths from other causes are carried
in the records but deliberately excluded from every computation: the model,
like the classical cumulative risk, assumes cancer is the only cause of death.
"""

import math
import numbers
import operator
import sys
from collections import namedtuple

__all__ = [
    "PROB_TOL",
    "NEWBORN_STATE",
    "CumriskError",
    "InvalidRecord",
    "InvalidCohort",
    "NegativeCount",
    "InconsistentRecord",
    "NonContiguousAges",
    "OutOfRange",
    "NegativeRate",
    "EmptyOverlap",
    "AgeGroupRecord",
    "CohortMeta",
    "Cohort",
    "TransitionMatrix",
    "StateVector",
    "RiskStep",
    "RiskSeries",
    "ComparisonRow",
    "ComparisonReport",
    "estimate_transition",
    "transition_matrices",
    "cumulative_rate",
    "cumulative_risk_from_rate",
    "propagate",
    "red_probability",
    "risk_series",
    "conditional_risk",
    "compare",
]

# Tolerance for probability identities (row sums, state normalization).
PROB_TOL = 1e-12

_DOUBLE_MAX = sys.float_info.max


class CumriskError(ValueError):
    """Base class for every validation or domain error in this package.

    ``index`` (the 1-based age group), ``line`` (of the input document) and
    ``column`` locate the fault where it is known; the message starts with
    the line, or else the group, and the column.
    """

    def __init__(self, message: str, *, index: int | None = None, column: str | None = None,
                 line: int | None = None):
        super().__init__(message)
        self.index = index
        self.column = column
        self.line = line

    def __str__(self) -> str:
        where = []
        if self.line is not None or self.index is not None:
            where.append(f"line {self.line}" if self.line is not None else f"group {self.index}")
        if self.column is not None:
            where.append(f"column {self.column!r}")
        message = super().__str__()
        return f"{', '.join(where)}: {message}" if where else message


class InvalidRecord(CumriskError):
    """An age-group record violates its invariants (counts or geometry)."""


class InvalidCohort(CumriskError):
    """Records do not form a contiguous, correctly indexed cohort."""


class NegativeCount(InvalidRecord):
    """A count is below zero."""


class InconsistentRecord(InvalidRecord):
    """Counts that cannot describe a population: no one at risk, or 5x > n + 5dc."""


class NonContiguousAges(InvalidRecord, InvalidCohort):
    """Groups are not contiguous five-year spans from age 0: a record's own
    width or alignment, or a gap or a group after the open-ended one."""


class OutOfRange(CumriskError):
    """A step index falls outside the cohort's data horizon."""


class NegativeRate(CumriskError):
    """Cumulative rates must be nonnegative."""


class EmptyOverlap(CumriskError):
    """Cohort comparison needs at least one step on both sides."""


def _show(value, convert=repr) -> str:
    # For error messages, which must not fail themselves: CPython refuses to
    # print an int of more than sys.get_int_max_str_digits() digits.
    try:
        return convert(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _is_number(value, kind) -> bool:
    # bool is an int subclass, but True is no count or age. This ABC test is
    # slow, so callers first accept the exact type the parser makes.
    return isinstance(value, kind) and not isinstance(value, bool)


class AgeGroupRecord(namedtuple("AgeGroupRecord", "index age_low age_high population incidence cancer_deaths "
                                                  "other_deaths", defaults=(None,))):
    """One five-year age group of an incidence table.

    ``age_high`` is exclusive, so the 0-4 years group is ``age_low=0,
    age_high=5``; ``None`` marks the open-ended final group (85+).
    ``incidence`` and the death counts are annual figures on a basis of
    ``population`` persons alive and never diagnosed. ``other_deaths`` is
    validated and carried through parsing and emission, but no estimate
    uses it.
    """

    __slots__ = ()

    @property
    def is_open(self) -> bool:
        return self.age_high is None

    @property
    def age_label(self) -> str:
        low, high = self.age_low, self.age_high
        return f"{low}+" if high is None else f"{low}-{high - 1}"

    def validate(self) -> None:
        """Raise InvalidRecord describing the first violated invariant."""
        # unpacked once: a field read by name is a slower path than a tuple unpacking
        index, low, high, population, incidence, cancer_deaths, _ = self
        for name in ("population", "incidence", "cancer_deaths", "other_deaths"):
            value = getattr(self, name)
            if value is None and name == "other_deaths":
                continue
            # Compared exactly, an int too large for a double fails here; math.isfinite would overflow.
            if (type(value) is not float and not (_is_number(value, numbers.Real) and abs(value) <= _DOUBLE_MAX)
                    or not math.isfinite(value)):
                raise InvalidRecord(f"{name} must be a finite real number, got {_show(value)}",
                                    index=index, column=name)
            if value < 0:
                raise NegativeCount(f"{name} must be >= 0, got {_show(value)}", index=index, column=name)
        if population <= 0:
            raise InconsistentRecord("population must be positive", index=index, column="population")
        if 5.0 * incidence > population + 5.0 * cancer_deaths:
            raise InconsistentRecord(
                f"5x > n + 5dc (5*{_show(incidence)} exceeds the at-risk pool "
                f"{_show(population)} + 5*{_show(cancer_deaths)})",
                index=index,
                column="incidence",
            )
        if type(low) is not int and not _is_number(low, numbers.Integral) or low < 0 or low % 5:
            raise NonContiguousAges(f"age_low must be a nonnegative multiple of 5, got {_show(low)}",
                                    index=index, column="age_low")
        if high is not None and (type(high) is not int and not _is_number(high, numbers.Integral)
                                 or high - low != 5):
            raise NonContiguousAges(
                f"closed groups must span exactly 5 years, got {_show(low, str)}..{_show(high)}",
                index=index,
                column="age_high",
            )


# Free-text labels saying where a cohort came from.
CohortMeta = namedtuple("CohortMeta", "region year sex", defaults=("", "", ""))


class Cohort:
    """Ordered, validated age-group records for one region/year/sex.

    Indices must run 1..G without gaps, ages must be contiguous starting at
    0, and an open-ended group may only appear last. An empty record list is
    permitted at this level (file parsing rejects it) so that downstream
    operations can report it in their own terms.

    Construction is the one place records are validated, and the same pass
    builds the prefixes every query reads: ``b[i]`` is the transition
    probability of group i + 1 and ``p00[i] = 1.0 - b[i]`` its chance of
    staying OFF, while ``p_off[t]`` (the probability of no diagnosis by age
    5t) and ``cum_rate[t]`` have index 0 at birth. A Cohort is immutable:
    assigning to or deleting an attribute raises AttributeError.
    """

    __slots__ = ("records", "meta", "b", "p00", "p_off", "cum_rate")

    def __init__(self, records, meta: CohortMeta = CohortMeta()):
        try:
            records = tuple(records)
        except TypeError:
            raise InvalidCohort(f"records must be an iterable of AgeGroupRecord, "
                                f"got {type(records).__name__}") from None
        b, p00, p_off, cum_rate = [], [], [1.0], [0.0]
        off = 1.0
        annual_sum = 0.0
        expected_low = 0
        for position, record in enumerate(records, start=1):
            if not isinstance(record, AgeGroupRecord):
                raise InvalidCohort(f"record at position {position} must be an AgeGroupRecord, "
                                    f"got {type(record).__name__}", index=position)
            index, age_low, age_high, population, incidence, cancer_deaths, _ = record
            # True == 1 and 1.0 == 1, but neither is an index
            if type(index) is not int or index != position:
                raise InvalidCohort(f"record at position {position} has index {_show(index)}; "
                                    "indices must run 1..G", index=position)
            record.validate()
            if expected_low is None:
                raise NonContiguousAges("no group may follow an open-ended group", index=position)
            if age_low != expected_low:
                raise NonContiguousAges(f"age_low {_show(age_low, str)} breaks contiguity (expected "
                                        f"{expected_low})", index=position, column="age_low")
            step_b = _transition_probability(population, incidence, cancer_deaths)
            stay = 1.0 - step_b
            off *= stay
            annual_sum += incidence / population
            rate = 5.0 * annual_sum
            if not 0.0 <= step_b <= 1.0:
                raise InconsistentRecord(f"5x / (n + 5dc) = {step_b!r} is not a probability",
                                         index=position, column="incidence")
            if not math.isfinite(rate):
                raise InconsistentRecord(f"the cumulative rate overflows to {rate!r}",
                                         index=position, column="incidence")
            b.append(step_b)
            p00.append(stay)
            p_off.append(off)
            cum_rate.append(rate)
            expected_low = age_high  # None after an open-ended group
        prefixes = (records, meta, tuple(b), tuple(p00), tuple(p_off), tuple(cum_rate))
        for name, value in zip(Cohort.__slots__, prefixes):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of an immutable Cohort")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return type(self), (self.records, self.meta)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _check_probability(name: str, value, slack: float) -> None:
    if type(value) is not float and not _is_number(value, numbers.Real):
        raise CumriskError(f"{name} must be a real number, got {_show(value)}")
    if not -slack <= value <= 1.0 + slack:
        raise CumriskError(f"{name} must lie in [0, 1], got {_show(value)}")


class TransitionMatrix(namedtuple("TransitionMatrix", "p00 p01")):
    """Row-stochastic 2x2 one-step matrix; RED (second state) is absorbing.

    The RED row is fixed: a diagnosis is never undone. The OFF row must sum
    to 1 within PROB_TOL.
    """

    __slots__ = ()
    p10 = 0.0
    p11 = 1.0

    def __new__(cls, p00: float, p01: float):
        # one test for the common case; the checks below give the message, or accept an int or a numpy float
        if not (type(p00) is float and type(p01) is float and 0.0 <= p00 <= 1.0 and 0.0 <= p01 <= 1.0):
            _check_probability("p00", p00, 0.0)
            _check_probability("p01", p01, 0.0)
        if abs(p00 + p01 - 1.0) > PROB_TOL:
            raise CumriskError(f"OFF row must sum to 1, got {_show(p00)} + {_show(p01)}")
        return tuple.__new__(cls, (p00, p01))

    # namedtuple's own _make, which _replace calls, would skip the checks in __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class StateVector(namedtuple("StateVector", "p_off p_red")):
    """Occupancy probabilities (OFF, RED) after some number of steps."""

    __slots__ = ()

    def __new__(cls, p_off: float, p_red: float):
        if not (type(p_off) is float and type(p_red) is float and 0.0 <= p_off <= 1.0 and 0.0 <= p_red <= 1.0):
            _check_probability("p_off", p_off, PROB_TOL)
            _check_probability("p_red", p_red, PROB_TOL)
        if abs(p_off + p_red - 1.0) > PROB_TOL:
            raise CumriskError(f"state must sum to 1, got {_show(p_off)} + {_show(p_red)}")
        return tuple.__new__(cls, (p_off, p_red))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # as for TransitionMatrix


# Every cohort starts from the same place: alive and cancer free.
NEWBORN_STATE = StateVector(p_off=1.0, p_red=0.0)


# One row of the per-step risk table (the data behind the figures), in column
# order: b is the per-step OFF -> RED transition probability, cum_rate 5 * the
# summed annual incidence rates (can exceed 1), cum_risk 1 - exp(-cum_rate).
RiskStep = namedtuple("RiskStep", "t age_label b cum_rate cum_risk p_red p_off")


class RiskSeries:
    """Per-step risk table for a whole cohort."""

    __slots__ = ("steps",)

    def __init__(self, steps: list[RiskStep]):
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


# Differences (first cohort minus second) for one shared step, in column order.
ComparisonRow = namedtuple("ComparisonRow",
                           "t age_label delta_b delta_cum_rate delta_cum_risk delta_p_red delta_p_off")


class ComparisonReport:
    """Aligned per-step differences between two cohorts.

    Rows cover the shared prefix of steps; ``steps_a``/``steps_b`` record the
    original lengths so truncation is never silent.
    """

    __slots__ = ("rows", "steps_a", "steps_b")

    def __init__(self, rows: list[ComparisonRow], steps_a: int, steps_b: int):
        self.rows = rows
        self.steps_a = steps_a
        self.steps_b = steps_b

    @property
    def truncated(self) -> bool:
        return self.steps_a != self.steps_b

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _transition_probability(population: float, incidence: float, cancer_deaths: float) -> float:
    # 5x / (n + 5dc); callers validate the record first
    return 5.0 * incidence / (population + 5.0 * cancer_deaths)


def estimate_transition(record: AgeGroupRecord) -> TransitionMatrix:
    """Estimate the one-step transition matrix for an age group.

    The probability that an OFF individual turns RED during the group's five
    years is 5*incidence / (population + 5*cancer_deaths). Deaths from other
    causes are ignored by design.

    Raises:
        InvalidRecord: if the record violates its invariants, in particular
            when 5*incidence exceeds the at-risk pool (that would imply a
            transition probability above 1, i.e. inconsistent data).
    """
    record.validate()
    p01 = _transition_probability(record.population, record.incidence, record.cancer_deaths)
    return TransitionMatrix(p00=1.0 - p01, p01=p01)


def transition_matrices(cohort: Cohort) -> list[TransitionMatrix]:
    """Estimated matrices for every group of the cohort, in step order."""
    return [TransitionMatrix(p00, b) for p00, b in zip(cohort.p00, cohort.b)]


def _step_index(name: str, value) -> int:
    # bool is an Integral, but True is no step
    if not _is_number(value, numbers.Integral):
        raise OutOfRange(f"{name} must be an integer, got {_show(value)}")
    return operator.index(value)


def _check_step(cohort: Cohort, t) -> int:
    t = _step_index("step", t)
    if not 1 <= t <= len(cohort.records):
        raise OutOfRange(f"step {_show(t, str)} outside the cohort's range 1..{len(cohort.records)}")
    return t


def cumulative_rate(cohort: Cohort, t: int) -> float:
    """Cumulative incidence rate by age 5t: five times the summed annual rates.

    This is a rate, not a probability; with enough groups it can exceed 1.

    Raises:
        OutOfRange: unless t is an integer and 1 <= t <= number of groups.
    """
    if type(t) is not int or not 1 <= t <= len(cohort.records):
        t = _check_step(cohort, t)
    return cohort.cum_rate[t]


def cumulative_risk_from_rate(rate: float) -> float:
    """Convert a cumulative rate into the cumulative risk 1 - exp(-rate).

    Raises:
        NegativeRate: for rate < 0 (or NaN).
    """
    if not rate >= 0.0:
        raise NegativeRate(f"cumulative rate must be >= 0, got {_show(rate)}")
    return 1.0 - math.exp(-rate)


def propagate(state: StateVector, matrices) -> StateVector:
    """Apply transition matrices to a state vector, left to right.

    An empty sequence returns the starting state unchanged.
    """
    p10, p11 = TransitionMatrix.p10, TransitionMatrix.p11  # the fixed RED row
    p_off, p_red = state
    for p00, p01 in matrices:
        p_off, p_red = p_off * p00 + p_red * p10, p_off * p01 + p_red * p11
    return StateVector(p_off, p_red)


def red_probability(cohort: Cohort, t: int) -> float:
    """Probability of a diagnosis by age 5t, via the closed-form product.

    Equals 1 minus the product of the per-group survival factors (1 - b_i)
    for i = 1..t. Algebraically identical to propagating the newborn state
    through the first t matrices; in floating point the two agree to well
    within PROB_TOL.

    Raises:
        OutOfRange: unless t is an integer and 1 <= t <= number of groups.
    """
    if type(t) is not int or not 1 <= t <= len(cohort.records):
        t = _check_step(cohort, t)
    return 1.0 - cohort.p_off[t]


def risk_series(cohort: Cohort) -> RiskSeries:
    """Assemble the full per-step table: b, cumulative rate/risk, state split.

    The RED/OFF columns come from the same prefixes as ``red_probability``,
    so the two agree exactly.
    """
    prefixes = zip(cohort.records, cohort.b, cohort.cum_rate[1:], cohort.p_off[1:])
    return RiskSeries([RiskStep(record.index, record.age_label, b, rate, cumulative_risk_from_rate(rate),
                                1.0 - off, off) for record, b, rate, off in prefixes])


def conditional_risk(cohort: Cohort, current_step: int, horizon_steps: int) -> float:
    """Chance of a diagnosis within the next ``horizon_steps`` steps.

    Conditions on still being OFF at the end of ``current_step`` (step 0 is
    birth), so ``conditional_risk(cohort, 0, t)`` equals
    ``red_probability(cohort, t)``: both multiply the same survival factors
    ``cohort.p00`` from 1.0, left to right. The window is multiplied out
    rather than taken as a ratio of prefixes, which would divide by zero
    after a group with b = 1.

    Raises:
        OutOfRange: unless both arguments are integers, 0 <= current_step,
            1 <= horizon_steps and current_step + horizon_steps <= number of
            groups; the message gives the ages too.
    """
    groups = len(cohort.records)
    if (type(current_step) is not int or type(horizon_steps) is not int
            or not 0 <= current_step < current_step + horizon_steps <= groups):
        current_step = _step_index("current step", current_step)
        horizon_steps = _step_index("horizon", horizon_steps)
        if current_step < 0:
            raise OutOfRange(f"current step must be >= 0, got {_show(current_step, str)} "
                             f"(age {_show(5 * current_step, str)} years)")
        if horizon_steps < 1:
            raise OutOfRange(f"horizon must be at least one step (5 years), got {_show(horizon_steps, str)} "
                             f"({_show(5 * horizon_steps, str)} years)")
        if current_step + horizon_steps > groups:
            last = f" (last group {cohort.records[-1].age_label})" if groups else ""
            raise OutOfRange(
                f"step {_show(current_step, str)} (age {_show(5 * current_step, str)}) plus horizon "
                f"{_show(horizon_steps, str)} ({_show(5 * horizon_steps, str)} years) exceeds the cohort's "
                f"{groups} groups; the maximum age is {5 * groups} years{last}"
            )
    return 1.0 - math.prod(cohort.p00[current_step:current_step + horizon_steps], start=1.0)


def compare(a: Cohort, b: Cohort) -> ComparisonReport:
    """Per-step differences (a minus b) over the shared prefix of steps.

    Cohorts of different lengths are truncated to the shorter one; the report
    keeps both original lengths. Negating every delta of compare(a, b) gives
    exactly compare(b, a).

    Raises:
        EmptyOverlap: if either cohort has no groups.
    """
    if len(a.records) == 0 or len(b.records) == 0:
        raise EmptyOverlap("both cohorts need at least one age group to compare")
    # The deltas of the risk_series columns, read from the prefixes in the
    # same operation order, so every double is the one the tables would give.
    prefixes = zip(a.records, a.b, b.b, a.cum_rate[1:], b.cum_rate[1:], a.p_off[1:], b.p_off[1:])
    rows = [ComparisonRow(record.index, record.age_label, ba - bb, ra - rb,
                          cumulative_risk_from_rate(ra) - cumulative_risk_from_rate(rb),
                          (1.0 - oa) - (1.0 - ob), oa - ob)
            for record, ba, bb, ra, rb, oa, ob in prefixes]
    return ComparisonReport(rows=rows, steps_a=len(a.records), steps_b=len(b.records))
