"""cli_cold: fresh `python -m cumrisk.cli` processes, one at a time.

This module does not import the program into the benchmark's process: the
untraced run only starts children, so its figures are those of the
processes a command-line user waits for. The traced run adds in-process
`cli.main` calls and start-up probes (see ``probe_startup`` and
``probe_cli_main``).
"""

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference as ref

BULBS = 5000
CHILD_TIMEOUT_S = 60
STARTUP_REPEATS = 5
CLI_MAIN_REPEATS = 3


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCold:
    """One round is eight invocations; the eighth reads a non-UTF-8 file.

    That invocation counts as failed unless it ends the way every bad input
    should: exit status 1 and exactly one stderr line starting `error: `.
    """

    name = "cli_cold"
    SETUP_REPEATS = 11

    def __init__(self, seed: int, tracer, workdir: Path, src: Path):
        rng = random.Random(seed)
        self.tracer = tracer
        self.env = child_env(src)
        self.rows_a = inputs.cohort_rows(rng)
        self.rows_b = inputs.cohort_rows(rng)
        self.ref_a = ref.reference(self.rows_a)
        self.ref_b = ref.reference(self.rows_b)
        groups = len(self.rows_a)
        self.upto = 5 * rng.randint(0, groups - 1)
        step = rng.randint(0, groups - 1)
        self.age, self.horizon = 5 * step, 5 * rng.randint(1, groups - step)
        self.sim_seed = rng.getrandbits(64)
        self.path_a = workdir / "cohort_a.csv"
        self.path_b = workdir / "cohort_b.csv"
        self.path_bad = workdir / "not_utf8.csv"
        self.figures_dir = workdir / "figures"
        self._csv_rows = None
        self._first_simulation = None

    # -- set-up ---------------------------------------------------------

    def write_inputs(self) -> None:
        self.path_a.write_text(inputs.render(self.rows_a), encoding="utf-8")
        self.path_b.write_text(inputs.render(self.rows_b), encoding="utf-8")
        self.path_bad.write_bytes(inputs.NON_UTF8_DOCUMENT)

    def prepare(self) -> None:
        """Write the inputs and start one process, so later ones find warm caches."""
        self.write_inputs()
        rc, _, err = self._spawn(["compute", str(self.path_a)])
        if rc != 0:
            raise RuntimeError(f"warm-up `cumrisk compute` failed with status {rc}: {err}")

    # -- operations -----------------------------------------------------

    def commands(self) -> list:
        """(subcommand, argv, check) for one round, in order."""
        a, b = str(self.path_a), str(self.path_b)
        return [
            ("compute", ["compute", a], self._check_compute_csv),
            ("compute", ["compute", a, "--format", "json"], self._check_compute_json),
            ("compute", ["compute", a, "--upto", str(self.upto)], self._check_compute_upto),
            ("conditional", ["conditional", a, "--age", str(self.age), "--horizon", str(self.horizon)],
             self._check_conditional),
            ("compare", ["compare", a, b], self._check_compare),
            ("figures", ["figures", a, "--out", str(self.figures_dir)], self._check_figures),
            ("simulate", ["simulate", a, "--bulbs", str(BULBS), "--seed", str(self.sim_seed)],
             self._check_simulate),
            ("compute", ["compute", str(self.path_bad)], self._check_clean_error),
        ]

    def ops(self, round_index: int) -> list:
        return [(self._runner(sub, argv), check) for sub, argv, check in self.commands()]

    def _runner(self, subcommand: str, argv: list):
        def run():
            with self.tracer.span("cli.process." + subcommand):
                return self._spawn(argv)
        return run

    def _spawn(self, argv: list) -> tuple:
        proc = subprocess.run(
            [sys.executable, "-m", "cumrisk.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
            errors="replace",
        )
        return proc.returncode, proc.stdout, proc.stderr

    def cpu_ns(self) -> int:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return int((usage.ru_utime + usage.ru_stime) * 1e9)

    def peak_rss_mb(self) -> float:
        # ru_maxrss of RUSAGE_CHILDREN is that of the largest child reaped
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def finish(self) -> None:
        pass

    # -- checks ---------------------------------------------------------

    @staticmethod
    def _succeeded(out) -> bool:
        rc, _, err = out
        return rc == 0 and err == ""

    def _check_compute_csv(self, out) -> bool:
        if not self._succeeded(out):
            return False
        rows = ref.parse_csv_rows(out[1], ref.SERIES_COLUMNS)
        ref.check_series(rows, self.ref_a)
        self._csv_rows = rows
        return True

    def _check_compute_json(self, out) -> bool:
        if not self._succeeded(out):
            return False
        rows = ref.parse_json_rows(out[1], ref.SERIES_COLUMNS)
        ref.check_series(rows, self.ref_a, "JSON series")
        if self._csv_rows is not None:
            ref.check_roundtrip("CSV vs JSON", rows, self._csv_rows)
        return True

    def _check_compute_upto(self, out) -> bool:
        if not self._succeeded(out):
            return False
        rows = ref.parse_csv_rows(out[1], ref.SERIES_COLUMNS)
        ref.check_series(rows, self.ref_a, f"--upto {self.upto}", steps=self.upto // 5 + 1)
        return True

    def _check_conditional(self, out) -> bool:
        if not self._succeeded(out):
            return False
        ref.check_conditional_text(out[1], self.ref_a.conditional(self.age // 5, self.horizon // 5))
        return True

    def _check_compare(self, out) -> bool:
        if not self._succeeded(out):
            return False
        rows = ref.parse_csv_rows(out[1], ref.COMPARISON_COLUMNS, comment_ok=True)
        ref.check_comparison(rows, self.ref_a, self.ref_b)
        return True

    def _check_figures(self, out) -> bool:
        if not self._succeeded(out):
            return False
        names = ("fig4_transitions.csv", "fig5_red.csv", "fig6_summary.csv")
        ref.exact("figures stdout", out[1].splitlines(), [str(self.figures_dir / n) for n in names])
        docs = [(self.figures_dir / n).read_text(encoding="utf-8") for n in names]
        # so that the next invocation must write them again
        for n in names:
            (self.figures_dir / n).unlink()
        for doc, column, name in ((docs[0], self.ref_a.b, "b"), (docs[1], self.ref_a.p_red, "p_red")):
            rows = ref.parse_csv_rows(doc, ("t", "age_label", name))
            ref.exact(f"figure of {name}: steps", len(rows), len(column))
            for (t, _, value), want in zip(rows, column):
                ref.close_abs(f"figure of {name} at t={t}", value, want)
        ref.check_series(ref.parse_csv_rows(docs[2], ref.SERIES_COLUMNS), self.ref_a, "fig6")
        return True

    def _check_simulate(self, out) -> bool:
        if not self._succeeded(out):
            return False
        rows = ref.parse_csv_rows(out[1], ref.SIMULATION_COLUMNS)
        ref.exact("simulation steps", len(rows), len(self.ref_a))
        reds = []
        for (t, label, empirical, analytic, diff), want in zip(rows, self.ref_a.p_red):
            ref.close_abs(f"analytic_p_red at t={t}", analytic, want)
            ref.exact(f"diff at t={t}", diff, empirical - analytic)
            red = round(empirical * BULBS)
            ref.exact(f"empirical_p_red at t={t} as a count over {BULBS}", red / BULBS, empirical)
            reds.append(red)
        ref.check_counts(reds, BULBS, self.ref_a.p_red, ref.SIGMA_CALL, "cli simulate")
        if self._first_simulation is None:
            self._first_simulation = out[1]
        ref.exact("simulate output for a repeated seed", out[1], self._first_simulation)
        return True

    @staticmethod
    def _check_clean_error(out) -> bool:
        rc, stdout, err = out
        lines = err.splitlines()
        return rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")


def _import_ms(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1000
    raise ValueError(f"`-X importtime` output has no line for {module}")


def probe_startup(tracer, src: Path) -> None:
    """Bare interpreter start, then the import times of cumrisk and of numpy."""
    env = child_env(src)
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, timeout=CHILD_TIMEOUT_S)
        tracer.sample("startup.python_ms", (time.perf_counter_ns() - start) / 1e6)
        for module in ("cumrisk", "numpy"):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                                  check=True, capture_output=True, text=True, env=env,
                                  timeout=CHILD_TIMEOUT_S)
            tracer.sample(f"startup.import_{module}_ms", _import_ms(proc.stderr, module))


def probe_cli_main(tracer, workload: CliCold) -> list:
    """In-process `cli.main` for each subcommand, checked like the processes.

    Returns the messages of any check that failed.
    """
    from cumrisk import cli

    workload.write_inputs()
    problems = []
    for _ in range(CLI_MAIN_REPEATS):
        for subcommand, argv, check in workload.commands()[:-1]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with tracer.span("cli.main." + subcommand):
                    rc = cli.main(argv)
            try:
                if not check((rc, stdout.getvalue(), stderr.getvalue())):
                    problems.append(f"in-process `cumrisk {' '.join(argv)}` exited {rc}")
            except ref.CheckFailed as exc:
                problems.append(f"in-process `cumrisk {subcommand}`: {exc}")
    return problems
