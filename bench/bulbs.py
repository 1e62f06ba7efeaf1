"""simulate_bulbs: in-process Monte Carlo runs on the 18-group ramp cohort."""

import random
import resource

from cumrisk.io import parse_cohort
from cumrisk.simulate import SimulationConfig, empirical_series, simulate

import inputs
import reference as ref
from corpus import InProcess
from tracer import Tracer

# Large enough that the bulb arrays, not the interpreter and numpy, set the
# peak memory: about 17 bytes per bulb against some 35 MB before the call.
BULBS = 4_000_000
WARMUP_BULBS = 500_000
PAGE_MB = resource.getpagesize() / 2**20


def resident_mb() -> float:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


class SimulateBulbs(InProcess):
    """One operation is one `simulate` call with a seed of its own.

    Each call must keep off + red == n with red nondecreasing, and stay
    within SIGMA_CALL binomial deviations of the reference at every step;
    the counts pooled over the run must stay within SIGMA_RUN. The warm-up
    call is repeated with one seed in every set-up and must give identical
    counts each time.
    """

    name = "simulate_bulbs"
    SETUP_REPEATS = 15

    def __init__(self, seed: int, tracer, workdir=None, src=None):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.traced = isinstance(tracer, Tracer)
        rows = inputs.ramp_rows()
        self.document = inputs.render(rows)
        self.expected = ref.reference(rows)
        self.warmup_seed = self.rng.getrandbits(64)
        self.warmup_counts = []
        self.pooled_red = [0] * len(rows)
        self.calls = 0

    def prepare(self) -> None:
        """Build the cohort and warm up with a small run of a fixed seed."""
        self.cohort = parse_cohort(self.document)
        result = simulate(SimulationConfig(self.cohort, WARMUP_BULBS, self.warmup_seed))
        self.warmup_counts.append([(s.off_count, s.red_count) for s in result.steps])

    def ops(self, round_index: int) -> list:
        seed = self.rng.getrandbits(64)
        return [(self._runner(seed), self._check)]

    def _runner(self, seed: int):
        config = SimulationConfig(self.cohort, BULBS, seed)
        tracer = self.tracer

        def run():
            before = resident_mb() if self.traced else 0.0
            with tracer.span("simulate.simulate"):
                result = simulate(config)
            if self.traced:
                tracer.sample("simulate.rss_growth_mb", self.peak_rss_mb() - before)
            return result
        return run

    def _check(self, result) -> bool:
        ref.exact("simulated bulbs", result.n_bulbs, BULBS)
        off = [s.off_count for s in result.steps]
        red = [s.red_count for s in result.steps]
        ref.check_off_red(off, red, BULBS)
        ref.check_counts(red, BULBS, self.expected.p_red, ref.SIGMA_CALL)
        self.pooled_red = [total + count for total, count in zip(self.pooled_red, red)]
        self.calls += 1
        if self.traced:
            with self.tracer.span("simulate.empirical_series"):
                empirical = empirical_series(result)
            ref.exact("empirical p_red", [e.p_red for e in empirical], [r / BULBS for r in red])
            self.tracer.sample("simulate.bulb_steps", BULBS * len(result.steps))
        return True

    def finish(self) -> None:
        if self.calls:
            ref.check_counts(self.pooled_red, BULBS * self.calls, self.expected.p_red,
                             ref.SIGMA_RUN, f"counts pooled over {self.calls} calls")
        for counts in self.warmup_counts[1:]:
            ref.exact("counts for a repeated seed", counts, self.warmup_counts[0])

