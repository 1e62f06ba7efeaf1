"""Builders for synthetic cohorts shared across the test modules."""

import json
import math
import numbers
import sys

import numpy as np
from numpy.random import Generator, Philox

from cumrisk.core import (
    PROB_TOL,
    AgeGroupRecord,
    Cohort,
    CohortMeta,
    ComparisonRow,
    CumriskError,
    InvalidRecord,
    RiskStep,
    StateVector,
    TransitionMatrix,
    risk_series,
)
from cumrisk.io import SERIES_COLUMNS


def make_record(index, population, incidence, cancer_deaths=0.0, other_deaths=None,
                open_group=False):
    low = 5 * (index - 1)
    return AgeGroupRecord(
        index=index,
        age_low=low,
        age_high=None if open_group else low + 5,
        population=float(population),
        incidence=float(incidence),
        cancer_deaths=float(cancer_deaths),
        other_deaths=other_deaths,
    )


def make_cohort(rows, open_last=False, meta=None):
    """rows: one (population, incidence[, cancer_deaths]) tuple per group."""
    records = [
        make_record(i + 1, *row, open_group=open_last and i == len(rows) - 1)
        for i, row in enumerate(rows)
    ]
    return Cohort(records=records, meta=meta or CohortMeta())


def ramp_cohort(groups=18, b_low=0.001, b_high=0.12):
    """Synthetic cohort whose transition probabilities ramp b_low -> b_high.

    The cubic ramp keeps childhood probabilities low and old-age ones high,
    the shape real incidence tables show. Cancer deaths are pinned at 1% of
    population, inside the regime where the rate-based risk and the chain
    estimate stay within a couple of percentage points of each other.
    """
    rows = []
    for i in range(groups):
        fraction = i / (groups - 1)
        b = b_low + (b_high - b_low) * fraction**3
        population = 200_000.0
        cancer_deaths = 0.01 * population
        incidence = b * (population + 5.0 * cancer_deaths) / 5.0
        rows.append((population, incidence, cancer_deaths))
    return make_cohort(rows, open_last=True)


def reference_off_counts(cohort, n_bulbs, seed):
    """Per-step OFF counts from the one-shot, step-major loop.

    All n draws of a step come from one call on a fresh Philox stream keyed
    by (seed, step), the plainest reading of the simulator's contract; the
    chunked, threaded simulator must reproduce these counts exactly.
    """
    off = np.ones(n_bulbs, dtype=bool)
    counts = []
    for t, b in enumerate(cohort.b):
        key = np.array([seed, t], dtype=np.uint64)
        off &= Generator(Philox(key=key)).random(n_bulbs) >= b
        counts.append(int(off.sum()))
    return counts


def reference_comparison(a, b):
    """Comparison rows from two whole risk tables, subtracted column by column.

    The plainest reading of ``compare``; the version that reads the cohorts'
    prefixes directly must reproduce every double exactly.
    """
    series_a, series_b = risk_series(a), risk_series(b)
    return [
        ComparisonRow(step_a.t, step_a.age_label, step_a.b - step_b.b, step_a.cum_rate - step_b.cum_rate,
                      step_a.cum_risk - step_b.cum_risk, step_a.p_red - step_b.p_red,
                      step_a.p_off - step_b.p_off)
        for step_a, step_b in zip(series_a.steps, series_b.steps)
    ]


def reference_conditional_risk(cohort, current_step, horizon_steps):
    """The window's survival product as a plain loop over ``cohort.b``.

    The plainest reading of ``conditional_risk``; every row of the Cohort's
    table of risks must reproduce these doubles exactly.
    """
    off = 1.0
    for b in cohort.b[current_step:current_step + horizon_steps]:
        off *= 1.0 - b
    return 1.0 - off


def reference_propagate(state, matrices):
    """Propagation that reads every entry by name, including the fixed RED row."""
    p_off, p_red = state.p_off, state.p_red
    for m in matrices:
        p_off, p_red = (
            p_off * m.p00 + p_red * m.p10,
            p_off * m.p01 + p_red * m.p11,
        )
    return StateVector(p_off=p_off, p_red=p_red)


def _reference_check_probability(name, value, slack):
    if type(value) is not float and not (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        raise CumriskError(f"{name} must be a real number, got {value!r}")
    if not -slack <= value <= 1.0 + slack:
        raise CumriskError(f"{name} must lie in [0, 1], got {value!r}")


def reference_value_check(cls, first, second):
    """What building ``cls(first, second)`` raises, as ``(type, message)``, or None.

    The checks of ``TransitionMatrix`` and ``StateVector`` written out one by
    one, with no fast path for the common case; the constructors must accept
    and reject exactly as this does, with the same message.
    """
    names, slack, what = {
        TransitionMatrix: (("p00", "p01"), 0.0, "OFF row"),
        StateVector: (("p_off", "p_red"), PROB_TOL, "state"),
    }[cls]
    try:
        _reference_check_probability(names[0], first, slack)
        _reference_check_probability(names[1], second, slack)
        if abs(first + second - 1.0) > PROB_TOL:
            raise CumriskError(f"{what} must sum to 1, got {first!r} + {second!r}")
    except CumriskError as exc:
        return type(exc), str(exc)
    return None


def _is_number(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def reference_record_check(record):
    """What ``record.validate()`` raises, as ``(type, index, column, message)``, or None.

    The record's checks written out one field at a time, with no test for
    the common case; ``validate`` must accept and reject exactly as this
    does, with the same error.
    """
    index, low, high = record.index, record.age_low, record.age_high
    try:
        for name in ("population", "incidence", "cancer_deaths", "other_deaths"):
            value = getattr(record, name)
            if name == "other_deaths" and value is None:
                continue
            # an int beyond the doubles is refused before math.isfinite could overflow on it
            if not _is_number(value, numbers.Real) or abs(value) > sys.float_info.max or not math.isfinite(value):
                raise InvalidRecord(f"{name} must be a finite real number, got {value!r}",
                                    index=index, column=name)
            if value < 0:
                raise InvalidRecord(f"{name} must be >= 0, got {value!r}", index=index, column=name)
        if record.population <= 0:
            raise InvalidRecord("population must be positive", index=index, column="population")
        if 5.0 * record.incidence > record.population + 5.0 * record.cancer_deaths:
            raise InvalidRecord(f"5x > n + 5dc (5*{record.incidence!r} exceeds the at-risk pool "
                                f"{record.population!r} + 5*{record.cancer_deaths!r})",
                                index=index, column="incidence")
        if not _is_number(low, numbers.Integral) or low < 0 or low % 5:
            raise InvalidRecord(f"age_low must be a nonnegative multiple of 5, got {low!r}",
                                index=index, column="age_low")
        if high is not None and (not _is_number(high, numbers.Integral) or high - low != 5):
            raise InvalidRecord(f"closed groups must span exactly 5 years, got {low}..{high!r}",
                                index=index, column="age_high")
    except CumriskError as exc:
        return type(exc), exc.index, exc.column, str(exc)
    return None


def series_documents(rows) -> dict:
    """The CSV and JSON documents of rows as the plain writers give them: format(value, "") and json.dumps."""
    csv_lines = [",".join(SERIES_COLUMNS)] + [",".join(format(value, "") for value in row) for row in rows]
    steps = [dict(zip(SERIES_COLUMNS, row)) for row in rows]
    return {"csv": "\n".join(csv_lines) + "\n", "json": json.dumps({"steps": steps}, indent=2) + "\n"}


class ReprFloat(float):
    """A float subclass whose own repr json.dumps must not use; no text of it is kept."""

    def __repr__(self):
        return "ReprFloat()"


# values a risk series of a cohort never holds, which each format writes its own way
ODD_ROWS = [
    RiskStep(1, "0-4", math.nan, math.inf, -math.inf, -0.0, True),
    RiskStep(2, 'a,b "c"', ReprFloat(0.1), None, "100%", "two\nlines", 0.5),
    RiskStep(True, None, 1e300, 5e-324, False, 2**53 + 1, "%s"),
]
