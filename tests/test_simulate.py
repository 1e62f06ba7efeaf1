"""Tests for the bulb-panel Monte Carlo simulator."""

import math
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from numpy.random import Generator, Philox

import cumrisk.simulate as simulator
from cumrisk.core import CumriskError, red_probability
from cumrisk.simulate import (
    CHUNK,
    MAX_BULBS,
    SimulationConfig,
    SimulationResult,
    StepCounts,
    empirical_series,
    simulate,
)
from helpers import make_cohort, ramp_cohort, reference_off_counts


def test_zero_probability_keeps_every_bulb_off():
    cohort = make_cohort([(1000.0, 0.0)] * 3)
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=500, seed=1))
    assert [s.red_count for s in result.steps] == [0, 0, 0]
    assert [s.off_count for s in result.steps] == [500, 500, 500]


def test_certain_transition_turns_every_bulb_red(monkeypatch):
    # 5 * 20 / 100 = 1: every bulb flips on the first step and stays red, so no step draws
    drawn = []
    real = simulator._philox_words

    def noted(seed, t, *lanes):
        drawn.append(t)
        return real(seed, t, *lanes)

    monkeypatch.setattr(simulator, "_philox_words", noted)
    cohort = make_cohort([(100.0, 20.0), (100.0, 0.0)])
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=400, seed=3))
    assert [s.red_count for s in result.steps] == [400, 400]
    assert drawn == []


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
    for n_bulbs in (0, 2.5, True, "3", MAX_BULBS + 1, 10**5000):
        with pytest.raises(CumriskError):
            SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=1)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort, 10, 1)._replace(n_bulbs=0)


def test_config_budgets_bulb_steps():
    # every population accepted on an 18-group cohort; one group more and MAX_BULBS is over the budget
    assert SimulationConfig(ramp_cohort(groups=18), MAX_BULBS, 1).n_bulbs == MAX_BULBS
    longer = ramp_cohort(groups=19)
    with pytest.raises(CumriskError) as err:
        SimulationConfig(longer, MAX_BULBS, 1)
    assert str(err.value) == (f"n_bulbs * age groups = {MAX_BULBS} * 19 = {19 * MAX_BULBS} bulb-steps "
                              f"exceeds the limit of {18 * MAX_BULBS}")
    assert SimulationConfig(longer, 18 * MAX_BULBS // 19, 1).n_bulbs == 18 * MAX_BULBS // 19
    with pytest.raises(CumriskError, match="bulb-steps exceeds"):
        SimulationConfig(longer, 10, 1)._replace(n_bulbs=MAX_BULBS)


def test_config_rejects_what_is_not_a_cohort():
    # simulate would fail later, on an attribute the value lacks
    for cohort in ("x", None, ramp_cohort(groups=2).records):
        with pytest.raises(CumriskError, match="cohort must be a Cohort"):
            SimulationConfig(cohort, 10, 1)


def test_config_rejects_seed_outside_word_range():
    cohort = ramp_cohort(groups=2)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort=cohort, n_bulbs=10, seed=-1)
    with pytest.raises(CumriskError):
        SimulationConfig(cohort=cohort, n_bulbs=10, seed=2**64)
    for seed in (1.5, True, "3"):
        with pytest.raises(CumriskError):
            SimulationConfig(cohort=cohort, n_bulbs=10, seed=seed)


def test_package_attribute_is_the_simulator_module():
    import cumrisk.simulate as module

    assert isinstance(module, types.ModuleType)
    assert module.simulate is simulate


def _off_counts(result):
    return [step.off_count for step in result.steps]


def _use_numpy_kernel(monkeypatch):
    # a run of at most _SMALL_BULB_STEPS bulb-steps would take the Python kernel, on one thread
    monkeypatch.setattr(simulator, "_SMALL_BULB_STEPS", 0)


def _use_cpus(monkeypatch, n):
    # the simulator counts the CPUs in its affinity mask where the platform has one
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: n)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_bulbs", [1, 3, 7, 8, 9, 5 * 8 + 3])
def test_chunks_and_spans_change_no_count(monkeypatch, workers, n_bulbs):
    # chunks of 8 bulbs: n is one bulb, less than, exactly or just over one
    # chunk, and several chunks plus a remainder
    monkeypatch.setattr(simulator, "CHUNK", 8)
    _use_numpy_kernel(monkeypatch)
    _use_cpus(monkeypatch, workers)
    cohort = ramp_cohort(b_high=0.5)
    for seed in (0, 2**64 - 1):
        result = simulate(SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=seed))
        assert _off_counts(result) == reference_off_counts(cohort, n_bulbs, seed)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_full_size_chunks_match_the_one_shot_loop(monkeypatch, workers):
    _use_cpus(monkeypatch, workers)
    cohort = ramp_cohort(groups=6)
    for n_bulbs in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        result = simulate(SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=31))
        assert _off_counts(result) == reference_off_counts(cohort, n_bulbs, 31)


def test_more_threads_than_cores_switching_often_lose_no_count(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 4)
    _use_numpy_kernel(monkeypatch)
    _use_cpus(monkeypatch, 8)
    cohort = ramp_cohort(b_high=0.5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            result = simulate(SimulationConfig(cohort=cohort, n_bulbs=203, seed=seed))
            assert _off_counts(result) == reference_off_counts(cohort, 203, seed)
    finally:
        sys.setswitchinterval(interval)


def test_spans_are_whole_chunks_covering_the_panel(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 4)
    assert simulator._spans(1, 8) == [(0, 1)]
    assert simulator._spans(9, 1) == [(0, 9)]
    assert simulator._spans(9, 2) == [(0, 8), (8, 9)]
    assert simulator._spans(9, 3) == [(0, 4), (4, 8), (8, 9)]
    assert simulator._spans(20, 3) == [(0, 8), (8, 16), (16, 20)]


def test_one_chunk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    _use_cpus(monkeypatch, 4)
    monkeypatch.setattr(simulator.threading, "Thread", no_thread)
    cohort = ramp_cohort(groups=3)
    result = simulate(SimulationConfig(cohort=cohort, n_bulbs=CHUNK, seed=5))
    assert _off_counts(result) == reference_off_counts(cohort, CHUNK, 5)


def test_failing_worker_raises_in_the_caller(monkeypatch):
    hooked = []
    real = simulator._off_counts

    def fail_after_first_span(seed, b, start, stop):
        if start > 0:
            raise MemoryError(f"span at {start}")
        return real(seed, b, start, stop)

    monkeypatch.setattr(simulator, "CHUNK", 4)
    _use_numpy_kernel(monkeypatch)
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(simulator, "_off_counts", fail_after_first_span)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    threads_before = threading.active_count()
    with pytest.raises(MemoryError, match="span at 4"):
        simulate(SimulationConfig(cohort=ramp_cohort(groups=3), n_bulbs=12, seed=1))
    assert hooked == []
    assert threading.active_count() == threads_before


def test_failing_caller_span_joins_every_worker_then_raises(monkeypatch):
    hooked, finished = [], []
    real = simulator._off_counts

    def fail_in_first_span(seed, b, start, stop):
        if start == 0:
            raise MemoryError("span at 0")
        time.sleep(0.05)  # the workers are still running when the caller's span fails
        finished.append(start)
        return real(seed, b, start, stop)

    monkeypatch.setattr(simulator, "CHUNK", 4)
    _use_numpy_kernel(monkeypatch)
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(simulator, "_off_counts", fail_in_first_span)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    threads_before = threading.active_count()
    with pytest.raises(MemoryError, match="span at 0"):
        simulate(SimulationConfig(cohort=ramp_cohort(groups=3), n_bulbs=12, seed=1))
    assert sorted(finished) == [4, 8]
    assert hooked == []
    assert threading.active_count() == threads_before


def test_memory_stays_flat_as_the_panel_grows(monkeypatch):
    # each of four workers holds two bool buffers and at most one uint64 draw
    # array, 10 bytes per bulb of a chunk, 2.5 MiB together; the one-shot loop
    # would need about 10 MB per 10**6 bulbs
    _use_cpus(monkeypatch, 4)
    cohort = ramp_cohort(groups=3)
    for n_bulbs in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            simulate(SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (n_bulbs, peak)


def test_workers_follow_the_affinity_mask_not_the_cpu_count(monkeypatch):
    # a container may let the process run on fewer CPUs than the machine has
    started = []
    real_thread = simulator.threading.Thread

    def counted_thread(*args, **kwargs):
        started.append(kwargs["args"][1])
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(simulator, "CHUNK", 4)
    _use_numpy_kernel(monkeypatch)
    monkeypatch.setattr(simulator.threading, "Thread", counted_thread)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 8)
    cohort = ramp_cohort(groups=3)
    for affinity, spans in (({0}, []), ({0, 3}, [(16, 32)]), ({1, 2, 5}, [(12, 24), (24, 32)])):
        started.clear()
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        result = simulate(SimulationConfig(cohort=cohort, n_bulbs=32, seed=4))
        assert started == spans
        assert _off_counts(result) == reference_off_counts(cohort, 32, 4)
    # without an affinity call the CPU count decides
    started.clear()
    monkeypatch.delattr(simulator.os, "sched_getaffinity")
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    simulate(SimulationConfig(cohort=cohort, n_bulbs=32, seed=4))
    assert started == [(12, 24), (24, 32)]


EDGE_PROBABILITIES = (0.0, 5e-324, 1e-9, 0.013, 0.5, 1.0 - 2.0**-53, 1.0)


@pytest.mark.parametrize("b", EDGE_PROBABILITIES)
def test_raw_threshold_keeps_the_bulbs_random_keeps(b):
    # b goes to the kernel as it is, since a cohort cannot carry 5e-324 or
    # 1 - 2**-53 exactly; steps with b = 0 before step t keep every bulb OFF.
    # Both sides keep the draws at or above a threshold of the same words, so
    # equal counts mean equal bits.
    for seed, t in ((0, 0), (2**64 - 1, 3), (12345, 17)):
        counts = simulator._off_counts(seed, (0.0,) * t + (b,), 0, CHUNK)
        key = np.array([seed, t], dtype=np.uint64)
        expected = Generator(Philox(key=key)).random(CHUNK) >= b
        assert counts[t] == int(np.count_nonzero(expected)), (seed, t)


@pytest.mark.parametrize("b", EDGE_PROBABILITIES)
def test_raw_threshold_is_exact_at_the_boundary_words(monkeypatch, b):
    # Random draws never land next to the threshold, so feed both kernels the
    # words on both sides of each multiple of 2**11 near b * 2**64, plus the
    # extremes, and keep those whose Generator.random() value is at least b.
    def uniform(words):
        return (words >> np.uint64(11)) * (1.0 / 2**53)

    key = np.array([5, 2], dtype=np.uint64)
    assert np.array_equal(uniform(Philox(key=key).random_raw(CHUNK)), Generator(Philox(key=key)).random(CHUNK))
    near = math.floor(b * 2**53)
    words = sorted({0, 2**64 - 1} | {w for k in (near, near + 1) for w in ((k << 11) - 1, k << 11)
                                     if 0 <= w < 2**64})
    words = np.array(words, dtype=np.uint64)

    class Words:
        def __init__(self, key):
            pass

        def advance(self, delta):
            return self

        def random_raw(self, size):
            return words[:size]

    monkeypatch.setattr(np.random, "Philox", Words)  # where the numpy kernel looks it up
    monkeypatch.setattr(simulator, "_philox_words", lambda seed, t, *lanes: _lane_ints(words.tolist()))
    expected = [int(np.count_nonzero(uniform(words) >= b))]
    assert simulator._off_counts(0, (b,), 0, len(words)) == expected
    assert simulator._lane_off_counts(0, (b,), 0, len(words)) == expected


def _lane_ints(words):
    """Raw words as the Python kernel holds them: word j of block k in lane k, bits 128k up, of int j."""
    return tuple(sum(word << 128 * k for k, word in enumerate(words[j::4])) for j in range(4))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_lane_words_are_the_philox_raw_words(seed):
    ones = simulator._lanes(5)
    for t in (0, 1, 17, 999):
        for first in (0, 1, 7, 2**40):
            # the block Philox(...).advance(first + k) draws next has counter first + k + 1
            counters = sum((first + k + 1) << 128 * k for k in range(5))
            raw = Philox(key=np.array([seed, t], dtype=np.uint64)).advance(first).random_raw(4 * 5)
            words = simulator._philox_words(seed, t, counters, ones, ones * (2**64 - 1))
            assert words == _lane_ints(raw.tolist()), (t, first)


def test_a_run_at_the_budget_takes_the_python_kernel_and_one_bulb_step_more_numpy(monkeypatch):
    taken = set()

    def noted(name):
        real = getattr(simulator, name)

        def kernel(*args):
            taken.add(name)
            return real(*args)
        return kernel

    for name in ("_lane_off_counts", "_off_counts"):
        monkeypatch.setattr(simulator, name, noted(name))
    cohort = make_cohort([(1000.0, 20.0)])
    budget = simulator._SMALL_BULB_STEPS
    for n_bulbs, kernel in ((budget, "_lane_off_counts"), (budget + 1, "_off_counts")):
        taken.clear()
        result = simulate(SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=6))
        assert taken == {kernel}
        assert _off_counts(result) == reference_off_counts(cohort, n_bulbs, 6)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_certain_and_impossible_steps_in_a_threaded_multichunk_run(monkeypatch, workers):
    # b = 1 turns every bulb RED; its threshold, 2**64, fits no raw word
    _use_cpus(monkeypatch, workers)
    certain = make_cohort([(1000.0, 20.0), (1000.0, 5.0), (5.0, 1.0), (1000.0, 20.0)])
    impossible = make_cohort([(1000.0, 20.0), (1000.0, 0.0), (1000.0, 40.0)])
    assert certain.b[2] == 1.0 and impossible.b[1] == 0.0
    n_bulbs = 3 * CHUNK + 5
    for cohort in (certain, impossible):
        for seed in (8, 2**64 - 1):
            result = simulate(SimulationConfig(cohort=cohort, n_bulbs=n_bulbs, seed=seed))
            assert _off_counts(result) == reference_off_counts(cohort, n_bulbs, seed)
