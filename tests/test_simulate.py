"""Tests for the bulb-panel Monte Carlo simulator."""

import math
import types

import pytest

from cumrisk.core import CumriskError, red_probability
from cumrisk.simulate import (
    SimulationConfig,
    SimulationResult,
    StepCounts,
    empirical_series,
    simulate,
)
from helpers import make_cohort, ramp_cohort


def test_zero_probability_keeps_every_bulb_off():
    cohort = make_cohort([(1000.0, 0.0)] * 3)
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=500, seed=1))
    assert [s.red_count for s in result.steps] == [0, 0, 0]
    assert [s.off_count for s in result.steps] == [500, 500, 500]


def test_certain_transition_turns_every_bulb_red():
    # 5 * 20 / 100 = 1: every bulb flips on the first step and stays red
    cohort = make_cohort([(100.0, 20.0), (100.0, 0.0)])
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=400, seed=3))
    assert [s.red_count for s in result.steps] == [400, 400]


def test_single_step_frequency_matches_binomial():
    cohort = make_cohort([(1000.0, 20.0)])
    config = SimulationConfig(cohort=cohort, n_bulbs=1_000_000, seed=2024)
    result = simulate(config)
    empirical = result.steps[0].red_count / config.n_bulbs
    sigma = math.sqrt(0.1 * 0.9 / config.n_bulbs)
    assert abs(empirical - 0.1) <= 4.0 * sigma


def test_repeat_run_is_bit_identical():
    cohort = ramp_cohort(groups=6)
    config = SimulationConfig(cohort=cohort, n_bulbs=20_000, seed=99)
    assert simulate(config) == simulate(config)


def test_different_seeds_give_different_panels():
    cohort = make_cohort([(1000.0, 20.0), (1000.0, 40.0)])
    a = simulate(SimulationConfig(cohort=cohort, n_bulbs=100_000, seed=1))
    b = simulate(SimulationConfig(cohort=cohort, n_bulbs=100_000, seed=2))
    assert a != b


def test_counts_conserve_bulbs_and_red_is_absorbing():
    cohort = ramp_cohort()
    config = SimulationConfig(cohort=cohort, n_bulbs=10_000, seed=5)
    result = simulate(config)
    previous_red = 0
    for step in result.steps:
        assert step.off_count + step.red_count == config.n_bulbs
        assert step.red_count >= previous_red
        previous_red = step.red_count


def test_empirical_series_hand_division():
    result = SimulationResult(
        n_bulbs=1_000_000,
        seed=7,
        steps=[
            StepCounts(t=1, off_count=900_000, red_count=100_000),
            StepCounts(t=2, off_count=720_000, red_count=280_000),
        ],
    )
    series = empirical_series(result)
    assert [s.p_red for s in series] == [0.1, 0.28]
    assert [s.p_off for s in series] == [0.9, 0.72]
    assert [s.t for s in series] == [1, 2]


def test_empirical_series_saturates_at_one():
    cohort = make_cohort([(100.0, 20.0)])
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=50, seed=0))
    assert empirical_series(result)[0].p_red == 1.0


def test_large_panel_tracks_analytic_probability():
    cohort = ramp_cohort(groups=8)
    config = SimulationConfig(cohort=cohort, n_bulbs=200_000, seed=11)
    series = empirical_series(simulate(config))
    for step in series:
        p = red_probability(cohort, step.t)
        sigma = math.sqrt(p * (1.0 - p) / config.n_bulbs)
        assert abs(step.p_red - p) <= 4.0 * sigma


def test_config_rejects_empty_panel():
    cohort = ramp_cohort(groups=2)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort=cohort, n_bulbs=0, seed=1)


def test_config_rejects_seed_outside_word_range():
    cohort = ramp_cohort(groups=2)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort=cohort, n_bulbs=10, seed=-1)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort=cohort, n_bulbs=10, seed=2**64)


def test_package_attribute_is_the_simulator_module():
    import cumrisk.simulate as module

    assert isinstance(module, types.ModuleType)
    assert module.simulate is simulate
