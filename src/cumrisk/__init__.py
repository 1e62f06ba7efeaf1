"""Cumulative cancer-risk engine built on a two-state absorbing chain.

Estimates per-age-group transition probabilities from incidence tables,
propagates OFF/RED state vectors, computes the classical cumulative
rate/risk pair, answers conditional-risk and cohort-comparison queries, and
cross-checks everything against a seeded Monte Carlo population simulator.
"""

from .core import (
    NEWBORN_STATE,
    PROB_TOL,
    AgeGroupRecord,
    Cohort,
    CohortMeta,
    ComparisonReport,
    ComparisonRow,
    CumriskError,
    EmptyOverlap,
    InvalidCohort,
    InvalidRecord,
    NegativeRate,
    OutOfRange,
    RiskSeries,
    RiskStep,
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
from .io import (
    EmptyCohort,
    InconsistentRecord,
    MalformedNumber,
    MissingColumn,
    NegativeCount,
    NonContiguousAges,
    ParseError,
    emit_cohort,
    emit_comparison,
    emit_series,
    parse_cohort,
)
from .simulate import (
    EmpiricalStep,
    SimulationConfig,
    SimulationResult,
    StepCounts,
    empirical_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "NEWBORN_STATE",
    "PROB_TOL",
    "AgeGroupRecord",
    "Cohort",
    "CohortMeta",
    "ComparisonReport",
    "ComparisonRow",
    "CumriskError",
    "EmptyOverlap",
    "InvalidCohort",
    "InvalidRecord",
    "NegativeRate",
    "OutOfRange",
    "RiskSeries",
    "RiskStep",
    "StateVector",
    "TransitionMatrix",
    "compare",
    "conditional_risk",
    "cumulative_rate",
    "cumulative_risk_from_rate",
    "estimate_transition",
    "propagate",
    "red_probability",
    "risk_series",
    "transition_matrices",
    # io
    "EmptyCohort",
    "InconsistentRecord",
    "MalformedNumber",
    "MissingColumn",
    "NegativeCount",
    "NonContiguousAges",
    "ParseError",
    "emit_cohort",
    "emit_comparison",
    "emit_series",
    "parse_cohort",
    # simulate
    "EmpiricalStep",
    "SimulationConfig",
    "SimulationResult",
    "StepCounts",
    "empirical_series",
]
