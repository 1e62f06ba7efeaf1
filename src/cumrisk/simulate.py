"""Seeded Monte Carlo cross-check for the analytic chain.

Simulates a pool of idealized "light bulbs", one per person: a bulb starts
OFF and during step i independently turns RED with that group's estimated
transition probability; once RED it stays RED. Per-step OFF/RED counts give
an empirical estimate of the analytic red-state probability, which makes the
simulator an independent oracle for the closed-form math.

Draws are raw 64-bit words of counter-mode Philox streams keyed by (seed, step),
so the draw consumed by bulb b at step t is a pure function of (seed, t, b).
A given configuration therefore produces bit-identical results no matter how
the population is iterated or partitioned. Every bulb draws at every step up to
one that turns every bulb RED; bulbs that are already RED ignore theirs.

Run time grows with the bulb-steps, bulbs times groups; a run is refused above
MAX_BULBS bulbs or MAX_BULBS * 18 bulb-steps. A run of at most _SMALL_BULB_STEPS
computes its words in Python ints on the calling thread, never importing numpy.
A larger run takes the numpy kernel, in chunks of CHUNK bulbs with flag arrays
of their own for OFF and for staying OFF, so a worker's memory does not grow
with the population; it does grow with the cohort, as a worker keeps one Philox
stream per age group, at most core.MAX_GROUPS of them. Populations above one
chunk are split into contiguous spans, one per CPU, that run on threads: numpy
releases the GIL while it fills raw draws and compares them, and the per-step
counts of the spans are integers whose sum is exact.
"""

import math
import numbers
import os
import threading
from collections import namedtuple

from .core import Cohort, CumriskError, _is_number, _show

__all__ = [
    "MAX_BULBS",
    "SimulationConfig",
    "StepCounts",
    "SimulationResult",
    "EmpiricalStep",
    "simulate",
    "empirical_series",
]

# Run time grows with the bulb-steps, bulbs times age groups, at about 8 ns each in the numpy kernel:
# 0.15 CPU-seconds per 10**6 bulbs on an 18-group cohort. A run may take MAX_BULBS bulbs and at most as
# many bulb-steps as MAX_BULBS bulbs on 18 groups, which bounds it at some 15 CPU-seconds. More is refused.
MAX_BULBS = 10**8
_MAX_BULB_STEPS = MAX_BULBS * 18

# Runs of at most this many bulb-steps take the Python kernel, _lane_off_counts: it costs 150-280 ns a
# bulb-step against the numpy kernel's 4-9 ns, but importing numpy costs 80-150 ms and 19-20 MB (2-vCPU
# VM, CPython 3.11), so below a few hundred thousand bulb-steps it is the faster. At the bound, on one group,
# its ints of 16 bytes per 4 bulbs peak at about 10 MiB together.
_SMALL_BULB_STEPS = 2**17

# Bulbs per chunk. A multiple of 4, because Philox.advance(k) skips 4k draws.
CHUNK = 1 << 16


class SimulationConfig(namedtuple("SimulationConfig", "cohort n_bulbs seed")):
    """Inputs that fully determine a simulation run."""

    __slots__ = ()

    def __new__(cls, cohort: Cohort, n_bulbs: int, seed: int):
        if not isinstance(cohort, Cohort):
            raise CumriskError(f"cohort must be a Cohort, got {type(cohort).__name__}")
        for name, value in (("n_bulbs", n_bulbs), ("seed", seed)):
            if not _is_number(value, numbers.Integral):
                raise CumriskError(f"{name} must be an integer, got {_show(value)}")
        if not 1 <= n_bulbs <= MAX_BULBS:
            raise CumriskError(f"n_bulbs must be between 1 and {MAX_BULBS}, got {_show(n_bulbs, str)}")
        if n_bulbs * len(cohort) > _MAX_BULB_STEPS:
            raise CumriskError(f"n_bulbs * age groups = {n_bulbs} * {len(cohort)} = {n_bulbs * len(cohort)} "
                               f"bulb-steps exceeds the limit of {_MAX_BULB_STEPS}")
        if not 0 <= seed < 2**64:
            raise CumriskError(f"seed must fit in an unsigned 64-bit integer, got {_show(seed, str)}")
        return tuple.__new__(cls, (cohort, n_bulbs, seed))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks too


StepCounts = namedtuple("StepCounts", "t off_count red_count")

# Per-step OFF/RED counts plus an echo of the configuration.
SimulationResult = namedtuple("SimulationResult", "n_bulbs seed steps")

# Observed state proportions at one step.
EmpiricalStep = namedtuple("EmpiricalStep", "t p_red p_off")


def _off_counts(seed: int, b: tuple[float, ...], start: int, stop: int) -> list[int]:
    """Per-step OFF counts of bulbs start..stop-1; start is a multiple of CHUNK."""
    import numpy as np  # here, so that a small run, which never gets here, does not load numpy
    from numpy.random import Philox
    # Generator.random() is (w >> 11) * 2**-53 for the raw word w, and b * 2**53 is exact
    # for b in [0, 1], so random() >= b exactly when w >= ceil(b * 2**53) << 11. At b = 1
    # that is 2**64: no bulb stays OFF, so that step and the later ones draw nothing.
    live = b.index(1.0) if 1.0 in b else len(b)
    streams = [(Philox(key=np.array([seed, t], dtype=np.uint64)).advance(start // 4),
                np.uint64(math.ceil(b[t] * 2**53) << 11)) for t in range(live)]
    counts = [0] * len(b)
    for low in range(start, stop, CHUNK):
        width = min(CHUNK, stop - low)
        off, stays = np.ones(width, dtype=bool), np.empty(width, dtype=bool)
        for t, (bit_generator, threshold) in enumerate(streams):
            # the draws stay unnamed, so a worker holds one draw array at a time
            np.greater_equal(bit_generator.random_raw(width), threshold, out=stays)
            off &= stays
            counts[t] += int(np.count_nonzero(off))
    return counts


def _lanes(count: int) -> int:
    """An int with a 1 at the low bit of each of ``count`` 128-bit lanes."""
    return int.from_bytes(b"\1".ljust(16, b"\0") * count, "little")


def _philox_words(seed: int, t: int, x0: int, ones: int, mask: int) -> tuple[int, int, int, int]:
    """Words 0-3 of the Philox4x64-10 blocks keyed by (seed, t) whose counters are the lanes of x0, one int per word.

    Lane i of each int, bits 128i to 128i + 63, holds that word of the block whose counter is lane i of
    x0; ``ones`` has a 1 at the low bit of each lane and ``mask`` the 64 low bits. A lane's product with
    a multiplier fits in the lane.
    """
    x1 = x2 = x3 = 0
    k0, k1 = seed, t
    for _ in range(10):
        p0, p1 = x0 * 0xD2E7470EE14C6C93, x2 * 0xCA5A826395121157
        x0, x1, x2, x3 = ((p1 >> 64) & mask ^ x1 ^ k0 * ones, p1 & mask,
                          (p0 >> 64) & mask ^ x3 ^ k1 * ones, p0 & mask)
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) % 2**64, (k1 + 0xBB67AE8584CAA73B) % 2**64  # the Weyl key steps
    return x0, x1, x2, x3


def _lane_off_counts(seed: int, b: tuple[float, ...], start: int, stop: int) -> list[int]:
    """Per-step OFF counts of bulbs start..stop-1, from the words of _philox_words; start is a multiple of 4."""
    n, blocks, first = stop - start, -(-(stop - start) // 4), start // 4
    ones = _lanes(blocks)
    # the counters, the same at every step: lane k holds first + k + 1, that of the block which
    # Philox(key=[seed, t]).advance(first + k) draws next, as numpy's Philox increments it before each block
    x0 = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(first + 1, first + blocks + 1)), "little")
    mask = ones * (2**64 - 1)
    # bulb start + 4k + j draws word j of block k; the lanes past bulb stop - 1 start RED
    off = [_lanes((n - j + 3) // 4) for j in range(4)]
    counts = [0] * len(b)
    for t, p in enumerate(b):
        if p == 1.0:  # no bulb stays OFF, as in _off_counts
            break
        # a bulb stays OFF when its word w >= threshold, as in _off_counts: when w + 2**64 - threshold carries
        carry = (2**64 - (math.ceil(p * 2**53) << 11)) * ones
        off = [lane & ((w + carry) >> 64) for lane, w in zip(off, _philox_words(seed, t, x0, ones, mask))]
        counts[t] = sum(lane.bit_count() for lane in off)
    return counts


def _spans(n: int, workers: int) -> list[tuple[int, int]]:
    """At most ``workers`` contiguous spans covering 0..n-1, each of whole chunks."""
    chunks = -(-n // CHUNK)
    size = -(-chunks // workers) * CHUNK
    return [(low, min(low + size, n)) for low in range(0, n, size)]


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run the bulb population through every age group of the cohort.

    Counts are exact integers; off_count + red_count equals n_bulbs at every
    step and red_count never decreases. The result depends neither on the
    number of CPUs nor on the kernel: each draws the same stream positions.
    """
    n, seed, b = config.n_bulbs, config.seed, config.cohort.b
    # the CPUs this process may use, which a container may set below os.cpu_count()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # a small run takes the Python kernel, on the calling thread alone
    kernel, spans = ((_lane_off_counts, [(0, n)]) if n * len(b) <= _SMALL_BULB_STEPS
                     else (_off_counts, _spans(n, cpus)))
    results = [None] * len(spans)

    def work(i, span):
        # Caught here so that a failure reaches the caller, not threading.excepthook.
        try:
            results[i] = kernel(seed, b, *span)
        except BaseException as exc:
            results[i] = exc

    # span 0 runs on the calling thread, each other span on a thread of its own
    threads = [threading.Thread(target=work, args=item) for item in enumerate(spans[1:], start=1)]
    for thread in threads:
        thread.start()
    work(0, spans[0])
    for thread in threads:
        thread.join()
    for counts in results:
        if isinstance(counts, BaseException):
            raise counts
    totals = [sum(column) for column in zip(*results)]
    steps = [StepCounts(t, off, n - off) for t, off in enumerate(totals, start=1)]
    return SimulationResult(n, seed, steps)


def empirical_series(result: SimulationResult) -> list[EmpiricalStep]:
    """Counts as proportions, shaped like the analytic risk table."""
    n = result.n_bulbs
    return [EmpiricalStep(step.t, step.red_count / n, step.off_count / n) for step in result.steps]
