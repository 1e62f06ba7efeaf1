#!/usr/bin/env python3
"""Benchmark for cumrisk: run one workload, check every output, print metrics.

    python3 bench/run.py --workload corpus_build --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A manifest with every result goes to bench/out/, and a traced run also
writes its spans there. See bench/README.md.
"""

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import reference as ref
from tracer import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Latency samples kept at most; the buffer is allocated whole before the timed loop
LATENCY_CAPACITY = 1 << 18

# workload name -> (module, class); modules are imported only when used, so
# the cli_cold harness never loads the program into its own process
WORKLOADS = {
    "cli_cold": ("cli_cold", "CliCold"),
    "corpus_build": ("corpus", "CorpusBuild"),
    "corpus_query": ("corpus", "CorpusQuery"),
    "simulate_bulbs": ("bulbs", "SimulateBulbs"),
}

# Rounds of the other in-process workloads a traced run adds, so that every
# traced run reaches every layer
PROBE_ROUNDS = {"corpus_build": 20, "corpus_query": 1, "simulate_bulbs": 2}

US_PER_CALL = {
    "io.parse_cohort.us_per_call": "io.parse_cohort",
    "io.parse_cohort.reject_us_per_call": "io.parse_cohort.reject",
    "io.emit_series.csv.us_per_call": "io.emit_series.csv",
    "io.emit_series.json.us_per_call": "io.emit_series.json",
    "io.emit_comparison.us_per_call": "io.emit_comparison",
    "core.Cohort.us_per_call": "core.Cohort",
    "core.risk_series.us_per_call": "core.risk_series",
    "core.compare.us_per_call": "core.compare",
    "core.conditional_risk.us_per_call": "core.conditional_risk",
    "core.red_probability.us_per_call": "core.red_probability",
    "core.cumulative_rate.us_per_call": "core.cumulative_rate",
    "core.transition_matrices.us_per_call": "core.transition_matrices",
    "core.propagate.us_per_call": "core.propagate",
    "simulate.empirical_series.us_per_call": "simulate.empirical_series",
}
CLI_SUBCOMMANDS = ("compute", "conditional", "compare", "figures", "simulate")


class Latencies:
    """Operation latencies in a buffer of fixed size.

    The peak memory of an in-process workload is that of the benchmark's own
    process, so the harness's memory must not grow with the number of
    operations. When the buffer is full, every second sample is dropped and
    from then on only every second operation is kept, so the samples stay
    spread evenly over the run.
    """

    def __init__(self):
        self.buffer = array("q", [0]) * LATENCY_CAPACITY
        self.size = 0
        self.stride = 1
        self.seen = 0

    def add(self, ns: int) -> None:
        if self.seen % self.stride == 0:
            if self.size == len(self.buffer):
                # the capacity is even, so this operation is kept at the new stride too
                for i in range(self.size // 2):
                    self.buffer[i] = self.buffer[2 * i]
                self.size //= 2
                self.stride *= 2
            self.buffer[self.size] = ns
            self.size += 1
        self.seen += 1

    def values(self):
        return self.buffer[:self.size]


class Stats:
    """What the timed loop saw: per-operation latency and run totals."""

    def __init__(self):
        self.latencies_ns = Latencies()
        self.peak_rss_mb = 0.0    # read as the timed loop ends, before any summary
        self.busy_ns = 0          # wall time spent inside operations
        self.cpu_ns = 0           # CPU time spent inside operations
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []        # why operations failed (the first 20)
        self.problems = []        # outputs shown wrong; any makes the run incorrect

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def ops_per_s(self) -> float:
        """Operations completed per second spent inside operations."""
        return self.attempted * 1e9 / self.busy_ns

    def cpu_ms_per_op(self) -> float:
        return self.cpu_ns / self.attempted / 1e6

    def latency_p50_ms(self) -> float:
        return statistics.median(self.latencies_ns.values()) / 1e6

    def latency_p90_ms(self) -> float:
        return statistics.quantiles(self.latencies_ns.values(), n=10, method="inclusive")[8] / 1e6


def set_up(workload) -> float:
    """Prepare the workload once; return the wall time in seconds."""
    start = time.perf_counter_ns()
    workload.prepare()
    return (time.perf_counter_ns() - start) / 1e9


def measure(workload, tracer, seconds: float | None = None, rounds: int | None = None,
            setup_s: list | None = None) -> Stats:
    """Run whole rounds of operations until `seconds` have passed or `rounds` are done.

    Only the operations themselves are timed; generating inputs and checking
    outputs happen between them. Given `seconds` and `setup_s`, the set-up
    times so far, the workload is also prepared again between rounds, at
    times spread evenly over the run, until `setup_s` holds SETUP_REPEATS
    times. The host has fast and slow spells of about a second, and set-ups
    made back to back would all fall into one.
    """
    stats = Stats()
    begin = time.perf_counter_ns()
    deadline = begin + int(seconds * 1e9) if seconds is not None else None
    while True:
        for run, check in workload.ops(stats.rounds):
            cpu_start = workload.cpu_ns()
            start = time.perf_counter_ns()
            try:
                with tracer.span("op"):
                    out = run()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                out, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter_ns() - start
            stats.cpu_ns += workload.cpu_ns() - cpu_start
            stats.busy_ns += elapsed
            stats.latencies_ns.add(elapsed)
            stats.attempted += 1
            if error is not None:
                stats.fail(f"operation raised {type(error).__name__}: {error}")
                continue
            try:
                if not check(out):
                    stats.fail(f"operation {stats.attempted} did not succeed")
            except Exception as exc:  # any error in checking means the output is not shown correct
                stats.problem(f"{workload.name}: {type(exc).__name__}: {exc}")
        stats.rounds += 1
        now = time.perf_counter_ns()
        if setup_s is not None:
            # the last round is past the deadline, so every set-up is due by then
            due = 1 + (workload.SETUP_REPEATS - 1) * (now - begin) // (deadline - begin)
            while len(setup_s) < min(due, workload.SETUP_REPEATS):
                setup_s.append(set_up(workload))
        if rounds is not None and stats.rounds >= rounds:
            break
        if deadline is not None and now >= deadline:
            break
    stats.peak_rss_mb = workload.peak_rss_mb()
    try:
        workload.finish()
    except ref.CheckFailed as exc:
        stats.problem(f"{workload.name}: {exc}")
    return stats


def make_workload(name: str, seed: int, tracer, workdir: Path):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed, tracer, workdir, SRC)


def end_to_end(stats: Stats, setup_s: list) -> dict:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (stats.ops_per_s(), "1/s"),
        "latency_p50_ms": (stats.latency_p50_ms(), "ms"),
        "cpu_ms_per_op": (stats.cpu_ms_per_op(), "ms"),
        "peak_rss_mb": (stats.peak_rss_mb, "MB"),
    }


def run_probes(tracer: Tracer, workload: str, seed: int, workdir: Path, stats: Stats) -> None:
    """Reach every layer the workload's own loop did not, so each traced run reports all."""
    import cli_cold

    probe_seed = seed + 1_000_003
    for name, rounds in PROBE_ROUNDS.items():
        if name == workload:
            continue
        probe = make_workload(name, probe_seed, tracer, workdir)
        probe.prepare()
        for message in measure(probe, tracer, rounds=rounds).problems:
            stats.problem(f"probe {message}")
    cli_cold.probe_startup(tracer, SRC)
    probe_dir = workdir / "cli_main"
    probe_dir.mkdir()
    for message in cli_cold.probe_cli_main(tracer, cli_cold.CliCold(probe_seed, tracer, probe_dir, SRC)):
        stats.problem(message)


def per_layer(tracer: Tracer, stats: Stats) -> dict:
    median = statistics.median
    metrics = {
        "startup.python_ms": (median(tracer.samples["startup.python_ms"]), "ms"),
        "startup.import_cumrisk_ms": (median(tracer.samples["startup.import_cumrisk_ms"]), "ms"),
        "startup.import_numpy_ms": (median(tracer.samples["startup.import_numpy_ms"]), "ms"),
    }
    for subcommand in CLI_SUBCOMMANDS:
        metrics[f"cli.main_ms.{subcommand}"] = (tracer.median_per_call_ns(f"cli.main.{subcommand}") / 1e6, "ms")
    for metric, span in US_PER_CALL.items():
        metrics[metric] = (tracer.median_per_call_ns(span) / 1e3, "us")
    simulate_ms = tracer.median_per_call_ns("simulate.simulate") / 1e6
    bulb_steps = median(tracer.samples["simulate.bulb_steps"])
    metrics.update({
        "io.parse_cohort.rows": (tracer.totals["io.parse_cohort.rows"], "count"),
        "io.emit_series.bytes": (tracer.totals["io.emit_series.bytes"], "count"),
        "core.query.calls": (tracer.totals["core.query.calls"], "count"),
        "simulate.simulate.ms_per_call": (simulate_ms, "ms"),
        "simulate.bulb_steps_per_s": (bulb_steps / simulate_ms * 1e3, "1/s"),
        # computed, not measured: one 8-byte double drawn per bulb per step
        "simulate.draw_bytes": (8 * bulb_steps, "bytes-computed"),
        "simulate.rss_growth_mb": (median(tracer.samples["simulate.rss_growth_mb"]), "MB"),
        "traced.ops_per_s": (stats.ops_per_s(), "1/s"),
    })
    return metrics


def git_sha() -> str:
    """The checked-out commit, or `unknown` outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(args, workdir: Path) -> tuple:
    tracer = Tracer() if args.trace else NullTracer()
    workload = make_workload(args.workload, args.seed, tracer, workdir)
    setup_s = [set_up(workload)]
    stats = measure(workload, tracer, seconds=args.seconds, setup_s=setup_s)
    extra = {"operations": stats.attempted, "rounds": stats.rounds, "setup_s_samples": setup_s}
    if args.trace:
        run_probes(tracer, args.workload, args.seed, workdir, stats)
        metrics = per_layer(tracer, stats)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
        tracer.write(trace_path)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(stats, setup_s)
        # a tail percentile needs at least ten samples beyond it
        if stats.attempted >= 100:
            extra["latency_p90_ms"] = stats.latency_p90_ms()
    return stats, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cumrisk" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC / 'cumrisk'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        stats, metrics, extra = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"manifest": manifest(args), **result, "problems": stats.problems,
              "failures": stats.failures, "extra": extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for message in stats.problems:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'attempted':40s} {stats.attempted:14d}\n{'failed':40s} {stats.failed:14d}")
    print(json.dumps(result))
    return 0 if stats.correct else 1


if __name__ == "__main__":
    sys.exit(main())
