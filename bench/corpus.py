"""corpus_build and corpus_query: in-process parse/compute/emit and queries."""

import random
import resource
import time

from cumrisk.core import (
    NEWBORN_STATE,
    Cohort,
    CumriskError,
    compare,
    conditional_risk,
    cumulative_rate,
    propagate,
    red_probability,
    risk_series,
    transition_matrices,
)
from cumrisk.io import emit_comparison, emit_series, parse_cohort

import inputs
import reference as ref
from tracer import Tracer


def series_rows(series) -> list:
    return [(s.t, s.age_label, s.b, s.cum_rate, s.cum_risk, s.p_red, s.p_off) for s in series.steps]


def comparison_rows(report) -> list:
    return [(r.t, r.age_label, r.delta_b, r.delta_cum_rate, r.delta_cum_risk, r.delta_p_red,
             r.delta_p_off) for r in report.rows]


class InProcess:
    """CPU time and peak memory of the benchmark's own process."""

    def cpu_ns(self) -> int:
        return time.process_time_ns()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def finish(self) -> None:
        pass


class CorpusBuild(InProcess):
    """One operation takes one fresh document through the whole pipeline.

    A round is ten documents, one of them malformed in the way the round's
    number selects. Consecutive pairs of valid documents are also compared.
    """

    name = "corpus_build"
    SETUP_REPEATS = 15
    DOCS_PER_ROUND = 10
    WARMUP_ROUNDS = 10

    def __init__(self, seed: int, tracer, workdir=None, src=None):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.traced = isinstance(tracer, Tracer)
        self.warmup = [self._docs(r) for r in range(self.WARMUP_ROUNDS)]
        self._prev_cohort = None   # last valid cohort parsed, for the next pair
        self._prev = None          # (cohort, reference) of the last valid document checked

    def _docs(self, round_index: int) -> list:
        bad = self.rng.randrange(self.DOCS_PER_ROUND)
        kind = inputs.MALFORMED_KINDS[round_index % len(inputs.MALFORMED_KINDS)]
        return [inputs.malformed_doc(self.rng, kind) if i == bad else inputs.valid_doc(self.rng)
                for i in range(self.DOCS_PER_ROUND)]

    def prepare(self) -> None:
        """Warm up: take the warm-up documents through the pipeline, unchecked."""
        for docs in self.warmup:
            for run, _ in self._ops_for(docs):
                run()

    def ops(self, round_index: int) -> list:
        return self._ops_for(self._docs(round_index))

    def _ops_for(self, docs: list) -> list:
        ops = []
        valid_seen = 0
        for doc in docs:
            if doc.error_line is not None:
                ops.append((self._reject_runner(doc), self._reject_checker(doc)))
                continue
            pair_format = ("csv", "json")[(valid_seen // 2) % 2] if valid_seen % 2 else None
            valid_seen += 1
            ops.append((self._runner(doc, pair_format), self._checker(doc, pair_format)))
        return ops

    def _reject_runner(self, doc):
        def run():
            with self.tracer.span("io.parse_cohort.reject"):
                try:
                    parse_cohort(doc.text)
                except CumriskError as exc:
                    return exc
            return None
        return run

    def _reject_checker(self, doc):
        def check(exc) -> bool:
            ref.check_rejection(exc, doc.error_line, CumriskError)
            return True
        return check

    def _runner(self, doc, pair_format):
        tracer = self.tracer

        def run():
            with tracer.span("io.parse_cohort"):
                cohort = parse_cohort(doc.text)
            with tracer.span("core.risk_series"):
                series = risk_series(cohort)
            with tracer.span("io.emit_series.csv"):
                csv_doc = emit_series(series, "csv")
            with tracer.span("io.emit_series.json"):
                json_doc = emit_series(series, "json")
            report = comparison = None
            if pair_format is not None:
                previous = self._prev_cohort
                with tracer.span("core.compare"):
                    report = compare(previous, cohort)
                with tracer.span("io.emit_comparison"):
                    comparison = emit_comparison(report, pair_format)
            self._prev_cohort = cohort
            tracer.add("io.parse_cohort.rows", len(cohort.records))
            tracer.add("io.emit_series.bytes", len(csv_doc) + len(json_doc))
            return cohort, series, csv_doc, json_doc, report, comparison
        return run

    def _checker(self, doc, pair_format):
        def check(out) -> bool:
            cohort, series, csv_doc, json_doc, report, comparison = out
            expected = ref.reference(doc.rows)
            rows = series_rows(series)
            ref.check_series(rows, expected)
            ref.check_roundtrip("CSV", ref.parse_csv_rows(csv_doc, ref.SERIES_COLUMNS), rows)
            ref.check_roundtrip("JSON", ref.parse_json_rows(json_doc, ref.SERIES_COLUMNS), rows)
            if pair_format is not None:
                previous, previous_ref = self._prev
                rows_ab = comparison_rows(report)
                ref.check_comparison(rows_ab, previous_ref, expected)
                ref.check_antisymmetric(rows_ab, comparison_rows(compare(cohort, previous)))
                if pair_format == "csv":
                    parsed = ref.parse_csv_rows(comparison, ref.COMPARISON_COLUMNS, comment_ok=True)
                else:
                    parsed = ref.parse_json_rows(comparison, ref.COMPARISON_COLUMNS)
                ref.check_roundtrip(f"{pair_format} comparison", parsed, rows_ab)
            self._prev = (cohort, expected)
            if self.traced:
                # validation alone: a Cohort built from records that are already parsed
                with self.tracer.span("core.Cohort"):
                    Cohort(records=cohort.records, meta=cohort.meta)
            return True
        return check


class CorpusQuery(InProcess):
    """One operation is a full query sweep of one cohort built in set-up.

    A round sweeps every cohort once.
    """

    name = "corpus_query"
    # one set-up takes under 10 ms, so many are needed for a steady median
    SETUP_REPEATS = 61
    COHORTS = 48

    def __init__(self, seed: int, tracer, workdir=None, src=None):
        rng = random.Random(seed)
        self.tracer = tracer
        self.docs = [inputs.valid_doc(rng) for _ in range(self.COHORTS)]
        self.refs = [ref.reference(doc.rows) for doc in self.docs]
        self.windows = [r.conditional_table() for r in self.refs]
        self.cohorts = []
        self._series = {}

    def prepare(self) -> None:
        """Build the cohorts the queries read."""
        self.cohorts = [parse_cohort(doc.text) for doc in self.docs]
        self._series = {}

    def ops(self, round_index: int) -> list:
        return [(self._runner(i), self._checker(i)) for i in range(len(self.cohorts))]

    def _runner(self, i: int):
        cohort = self.cohorts[i]
        tracer = self.tracer

        def run():
            groups = len(cohort.records)
            windows = groups * (groups + 1) // 2
            with tracer.span("core.conditional_risk", calls=windows):
                conditional = [conditional_risk(cohort, j, h)
                               for j in range(groups) for h in range(1, groups - j + 1)]
            with tracer.span("core.red_probability", calls=groups):
                red = [red_probability(cohort, t) for t in range(1, groups + 1)]
            with tracer.span("core.cumulative_rate", calls=groups):
                rate = [cumulative_rate(cohort, t) for t in range(1, groups + 1)]
            with tracer.span("core.transition_matrices"):
                matrices = transition_matrices(cohort)
            with tracer.span("core.propagate", calls=groups):
                states = []
                state = NEWBORN_STATE
                for matrix in matrices:
                    state = propagate(state, (matrix,))
                    states.append(state)
            tracer.add("core.query.calls", windows + 3 * groups + 1)
            return conditional, red, rate, matrices, states
        return run

    def _checker(self, i: int):
        expected = self.refs[i]
        windows = self.windows[i]

        def check(out) -> bool:
            conditional, red, rate, matrices, states = out
            if i not in self._series:
                self._series[i] = [s.p_red for s in risk_series(self.cohorts[i]).steps]
            p_red = self._series[i]
            ref.exact("conditional windows", len(conditional), len(windows))
            for got, ((j, h), want) in zip(conditional, windows.items()):
                ref.close_abs(f"conditional_risk({j}, {h})", got, want)
            ref.exact("red_probability(t) == series.p_red", red, p_red)
            from_birth = [conditional[h - 1] for h in range(1, len(red) + 1)]
            ref.exact("conditional_risk(0, t) == red_probability(t)", from_birth, red)
            for t, (got, want) in enumerate(zip(rate, expected.cum_rate), start=1):
                ref.close_rel(f"cumulative_rate({t})", got, want)
            for t, (matrix, want) in enumerate(zip(matrices, expected.b), start=1):
                ref.close_abs(f"transition p01 at t={t}", matrix.p01, want)
                ref.close_abs(f"transition row sum at t={t}", matrix.p00 + matrix.p01, 1.0)
            for t, (state, want) in enumerate(zip(states, expected.p_red), start=1):
                ref.close_abs(f"propagated p_red at t={t}", state.p_red, want)
                ref.close_abs(f"propagated p_off at t={t}", state.p_off, expected.p_off[t - 1])
            return True
        return check
