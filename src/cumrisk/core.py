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
from dataclasses import dataclass, field

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


def _is_number(value, kind) -> bool:
    # bool is an int subclass, but True is no count or age. This ABC test is
    # slow, so callers first accept the exact type the parser makes.
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class AgeGroupRecord:
    """One five-year age group of an incidence table.

    ``age_high`` is exclusive, so the 0-4 years group is ``age_low=0,
    age_high=5``; ``None`` marks the open-ended final group (85+).
    ``incidence`` and the death counts are annual figures on a basis of
    ``population`` persons alive and never diagnosed. ``other_deaths`` is
    validated and carried through parsing and emission, but no estimate
    uses it.
    """

    index: int
    age_low: int
    age_high: int | None
    population: float
    incidence: float
    cancer_deaths: float
    other_deaths: float | None = None

    @property
    def is_open(self) -> bool:
        return self.age_high is None

    @property
    def age_label(self) -> str:
        if self.is_open:
            return f"{self.age_low}+"
        return f"{self.age_low}-{self.age_high - 1}"

    def validate(self) -> None:
        """Raise InvalidRecord describing the first violated invariant."""
        for name in ("population", "incidence", "cancer_deaths", "other_deaths"):
            value = getattr(self, name)
            if value is None and name == "other_deaths":
                continue
            if type(value) is not float and not _is_number(value, numbers.Real) or not math.isfinite(value):
                raise InvalidRecord(f"{name} must be a finite real number, got {value!r}",
                                    index=self.index, column=name)
            if value < 0:
                raise NegativeCount(f"{name} must be >= 0, got {value!r}", index=self.index, column=name)
        if self.population <= 0:
            raise InconsistentRecord("population must be positive", index=self.index, column="population")
        if 5.0 * self.incidence > self.population + 5.0 * self.cancer_deaths:
            raise InconsistentRecord(
                f"5x > n + 5dc (5*{self.incidence!r} exceeds the at-risk pool "
                f"{self.population!r} + 5*{self.cancer_deaths!r})",
                index=self.index,
                column="incidence",
            )
        low, high = self.age_low, self.age_high
        if type(low) is not int and not _is_number(low, numbers.Integral) or low < 0 or low % 5:
            raise NonContiguousAges(f"age_low must be a nonnegative multiple of 5, got {low!r}",
                                    index=self.index, column="age_low")
        if high is not None and (type(high) is not int and not _is_number(high, numbers.Integral)
                                 or high - low != 5):
            raise NonContiguousAges(
                f"closed groups must span exactly 5 years, got {low}..{high!r}",
                index=self.index,
                column="age_high",
            )


@dataclass(frozen=True)
class CohortMeta:
    """Free-text labels saying where a cohort came from."""

    region: str = ""
    year: str = ""
    sex: str = ""


@dataclass(frozen=True)
class Cohort:
    """Ordered, validated age-group records for one region/year/sex.

    Indices must run 1..G without gaps, ages must be contiguous starting at
    0, and an open-ended group may only appear last. An empty record list is
    permitted at this level (file parsing rejects it) so that downstream
    operations can report it in their own terms.

    Construction is the one place records are validated, and the same pass
    builds the prefixes every query reads: ``b[i]`` is the transition
    probability of group i + 1, while ``p_off[t]`` (the probability of no
    diagnosis by age 5t) and ``cum_rate[t]`` have index 0 at birth.
    """

    records: tuple[AgeGroupRecord, ...]
    meta: CohortMeta = field(default_factory=CohortMeta)
    b: tuple[float, ...] = field(init=False, repr=False, compare=False)
    p_off: tuple[float, ...] = field(init=False, repr=False, compare=False)
    cum_rate: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        records = tuple(self.records)
        b, p_off, cum_rate = [], [1.0], [0.0]
        off = 1.0
        annual_sum = 0.0
        expected_low = 0
        for position, record in enumerate(records, start=1):
            record.validate()
            if record.index != position:
                raise InvalidCohort(f"record at position {position} has index {record.index}; "
                                    "indices must run 1..G", index=position)
            if expected_low is None:
                raise NonContiguousAges("no group may follow an open-ended group", index=position)
            if record.age_low != expected_low:
                raise NonContiguousAges(f"age_low {record.age_low} breaks contiguity (expected "
                                        f"{expected_low})", index=position, column="age_low")
            step_b = _transition_probability(record)
            off *= 1.0 - step_b
            annual_sum += record.incidence / record.population
            rate = 5.0 * annual_sum
            if not 0.0 <= step_b <= 1.0:
                raise InconsistentRecord(f"5x / (n + 5dc) = {step_b!r} is not a probability",
                                         index=position, column="incidence")
            if not math.isfinite(rate):
                raise InconsistentRecord(f"the cumulative rate overflows to {rate!r}",
                                         index=position, column="incidence")
            b.append(step_b)
            p_off.append(off)
            cum_rate.append(rate)
            expected_low = record.age_high  # None after an open-ended group
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "p_off", tuple(p_off))
        object.__setattr__(self, "cum_rate", tuple(cum_rate))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 2x2 one-step matrix; RED (second state) is absorbing.

    The RED row is fixed: a diagnosis is never undone. The OFF row must sum
    to 1 within PROB_TOL.
    """

    p00: float
    p01: float
    p10 = 0.0
    p11 = 1.0

    def __post_init__(self):
        for name in ("p00", "p01"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CumriskError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.p00 + self.p01 - 1.0) > PROB_TOL:
            raise CumriskError(f"OFF row must sum to 1, got {self.p00!r} + {self.p01!r}")


@dataclass(frozen=True)
class StateVector:
    """Occupancy probabilities (OFF, RED) after some number of steps."""

    p_off: float
    p_red: float

    def __post_init__(self):
        for name in ("p_off", "p_red"):
            value = getattr(self, name)
            if not -PROB_TOL <= value <= 1.0 + PROB_TOL:
                raise CumriskError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.p_off + self.p_red - 1.0) > PROB_TOL:
            raise CumriskError(f"state must sum to 1, got {self.p_off!r} + {self.p_red!r}")


# Every cohort starts from the same place: alive and cancer free.
NEWBORN_STATE = StateVector(p_off=1.0, p_red=0.0)


@dataclass(frozen=True)
class RiskStep:
    """One row of the per-step risk table (the data behind the figures)."""

    t: int
    age_label: str
    b: float          # per-step OFF -> RED transition probability
    cum_rate: float   # 5 * summed annual incidence rates; a rate, can exceed 1
    cum_risk: float   # 1 - exp(-cum_rate)
    p_red: float
    p_off: float


@dataclass
class RiskSeries:
    """Per-step risk table for a whole cohort."""

    steps: list[RiskStep]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class ComparisonRow:
    """Differences (first cohort minus second) for one shared step."""

    t: int
    age_label: str
    delta_b: float
    delta_cum_rate: float
    delta_cum_risk: float
    delta_p_red: float
    delta_p_off: float


@dataclass
class ComparisonReport:
    """Aligned per-step differences between two cohorts.

    Rows cover the shared prefix of steps; ``steps_a``/``steps_b`` record the
    original lengths so truncation is never silent.
    """

    rows: list[ComparisonRow]
    steps_a: int
    steps_b: int

    @property
    def truncated(self) -> bool:
        return self.steps_a != self.steps_b

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _transition_probability(record: AgeGroupRecord) -> float:
    # 5x / (n + 5dc); callers validate the record first
    return 5.0 * record.incidence / (record.population + 5.0 * record.cancer_deaths)


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
    p01 = _transition_probability(record)
    return TransitionMatrix(p00=1.0 - p01, p01=p01)


def transition_matrices(cohort: Cohort) -> list[TransitionMatrix]:
    """Estimated matrices for every group of the cohort, in step order."""
    return [TransitionMatrix(p00=1.0 - b, p01=b) for b in cohort.b]


def _check_step(cohort: Cohort, t: int) -> None:
    if not 1 <= t <= len(cohort.records):
        raise OutOfRange(f"step {t} outside the cohort's range 1..{len(cohort.records)}")


def cumulative_rate(cohort: Cohort, t: int) -> float:
    """Cumulative incidence rate by age 5t: five times the summed annual rates.

    This is a rate, not a probability; with enough groups it can exceed 1.

    Raises:
        OutOfRange: unless 1 <= t <= number of groups.
    """
    _check_step(cohort, t)
    return cohort.cum_rate[t]


def cumulative_risk_from_rate(rate: float) -> float:
    """Convert a cumulative rate into the cumulative risk 1 - exp(-rate).

    Raises:
        NegativeRate: for rate < 0 (or NaN).
    """
    if not rate >= 0.0:
        raise NegativeRate(f"cumulative rate must be >= 0, got {rate!r}")
    return 1.0 - math.exp(-rate)


def propagate(state: StateVector, matrices) -> StateVector:
    """Apply transition matrices to a state vector, left to right.

    An empty sequence returns the starting state unchanged.
    """
    p_off, p_red = state.p_off, state.p_red
    for m in matrices:
        p_off, p_red = (
            p_off * m.p00 + p_red * m.p10,
            p_off * m.p01 + p_red * m.p11,
        )
    return StateVector(p_off=p_off, p_red=p_red)


def red_probability(cohort: Cohort, t: int) -> float:
    """Probability of a diagnosis by age 5t, via the closed-form product.

    Equals 1 minus the product of the per-group survival factors (1 - b_i)
    for i = 1..t. Algebraically identical to propagating the newborn state
    through the first t matrices; in floating point the two agree to well
    within PROB_TOL.

    Raises:
        OutOfRange: unless 1 <= t <= number of groups.
    """
    _check_step(cohort, t)
    return 1.0 - cohort.p_off[t]


def risk_series(cohort: Cohort) -> RiskSeries:
    """Assemble the full per-step table: b, cumulative rate/risk, state split.

    The RED/OFF columns come from the same prefixes as ``red_probability``,
    so the two agree exactly.
    """
    prefixes = zip(cohort.records, cohort.b, cohort.cum_rate[1:], cohort.p_off[1:])
    return RiskSeries([
        RiskStep(
            t=record.index,
            age_label=record.age_label,
            b=b,
            cum_rate=rate,
            cum_risk=cumulative_risk_from_rate(rate),
            p_red=1.0 - off,
            p_off=off,
        )
        for record, b, rate, off in prefixes
    ])


def conditional_risk(cohort: Cohort, current_step: int, horizon_steps: int) -> float:
    """Chance of a diagnosis within the next ``horizon_steps`` steps.

    Conditions on still being OFF at the end of ``current_step`` (step 0 is
    birth), so ``conditional_risk(cohort, 0, t)`` equals
    ``red_probability(cohort, t)``: both multiply the same survival factors
    from 1.0. The window is multiplied out rather than taken as a ratio of
    prefixes, which would divide by zero after a group with b = 1.

    Raises:
        OutOfRange: unless 0 <= current_step, 1 <= horizon_steps and
            current_step + horizon_steps <= number of groups.
    """
    groups = len(cohort.records)
    if current_step < 0:
        raise OutOfRange(f"current step must be >= 0, got {current_step}")
    if horizon_steps < 1:
        raise OutOfRange(f"horizon must be at least one step, got {horizon_steps}")
    if current_step + horizon_steps > groups:
        raise OutOfRange(
            f"step {current_step} plus horizon {horizon_steps} exceeds the "
            f"cohort's {groups} groups"
        )
    off = 1.0
    for b in cohort.b[current_step:current_step + horizon_steps]:
        off *= 1.0 - b
    return 1.0 - off


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
    series_a = risk_series(a)
    series_b = risk_series(b)
    shared = min(len(series_a.steps), len(series_b.steps))
    rows = []
    for step_a, step_b in zip(series_a.steps[:shared], series_b.steps[:shared]):
        rows.append(
            ComparisonRow(
                t=step_a.t,
                age_label=step_a.age_label,
                delta_b=step_a.b - step_b.b,
                delta_cum_rate=step_a.cum_rate - step_b.cum_rate,
                delta_cum_risk=step_a.cum_risk - step_b.cum_risk,
                delta_p_red=step_a.p_red - step_b.p_red,
                delta_p_off=step_a.p_off - step_b.p_off,
            )
        )
    return ComparisonReport(rows=rows, steps_a=len(series_a.steps), steps_b=len(series_b.steps))
