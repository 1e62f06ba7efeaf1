"""Seeded Monte Carlo cross-check for the analytic chain.

Simulates a pool of idealized "light bulbs", one per person: a bulb starts
OFF and during step i independently turns RED with that group's estimated
transition probability; once RED it stays RED. Per-step OFF/RED counts give
an empirical estimate of the analytic red-state probability, which makes the
simulator an independent oracle for the closed-form math.

Uniform draws come from counter-mode Philox streams keyed by (seed, step),
so the draw consumed by bulb b at step t is a pure function of (seed, t, b).
A given configuration therefore produces bit-identical results no matter how
the population is iterated or partitioned. Every bulb draws at every step;
bulbs that are already RED simply ignore theirs.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import Cohort, CumriskError

__all__ = [
    "SimulationConfig",
    "StepCounts",
    "SimulationResult",
    "EmpiricalStep",
    "simulate",
    "empirical_series",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs that fully determine a simulation run."""

    cohort: Cohort
    n_bulbs: int
    seed: int

    def __post_init__(self):
        if self.n_bulbs < 1:
            raise CumriskError(f"n_bulbs must be >= 1, got {self.n_bulbs}")
        if not 0 <= self.seed < 2**64:
            raise CumriskError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class StepCounts:
    t: int
    off_count: int
    red_count: int


@dataclass
class SimulationResult:
    """Per-step OFF/RED counts plus an echo of the configuration."""

    n_bulbs: int
    seed: int
    steps: list[StepCounts]


@dataclass(frozen=True)
class EmpiricalStep:
    """Observed state proportions at one step."""

    t: int
    p_red: float
    p_off: float


def _step_uniforms(seed: int, step: int, n_bulbs: int) -> np.ndarray:
    key = np.array([seed, step], dtype=np.uint64)
    return Generator(Philox(key=key)).random(n_bulbs)


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run the bulb population through every age group of the cohort.

    Counts are exact integers; off_count + red_count equals n_bulbs at every
    step and red_count never decreases.
    """
    n = config.n_bulbs
    off = np.ones(n, dtype=bool)
    steps = []
    for t, b in enumerate(config.cohort.b, start=1):
        draws = _step_uniforms(config.seed, t - 1, n)
        off &= draws >= b
        remaining = int(off.sum())
        steps.append(StepCounts(t=t, off_count=remaining, red_count=n - remaining))
    return SimulationResult(n_bulbs=n, seed=config.seed, steps=steps)


def empirical_series(result: SimulationResult) -> list[EmpiricalStep]:
    """Counts as proportions, shaped like the analytic risk table."""
    n = result.n_bulbs
    return [
        EmpiricalStep(t=step.t, p_red=step.red_count / n, p_off=step.off_count / n)
        for step in result.steps
    ]
