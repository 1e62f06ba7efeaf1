"""Builders for synthetic cohorts shared across the test modules."""

import numpy as np
from numpy.random import Generator, Philox

from cumrisk.core import AgeGroupRecord, Cohort, CohortMeta, ComparisonRow, risk_series


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
