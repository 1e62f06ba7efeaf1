"""Self-tests of the benchmark: its generator, reference, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from cli_cold import CliCold, _import_ms  # noqa: E402
from corpus import comparison_rows, series_rows  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

from cumrisk.core import CumriskError, compare, risk_series  # noqa: E402
from cumrisk.io import emit_series, parse_cohort  # noqa: E402


def program_rows(doc):
    return series_rows(risk_series(parse_cohort(doc.text)))


def test_generator_is_a_pure_function_of_its_seed():
    def corpus(seed):
        rng = random.Random(seed)
        docs = [inputs.valid_doc(rng) for _ in range(5)]
        docs += [inputs.malformed_doc(rng, kind) for kind in inputs.MALFORMED_KINDS]
        return docs

    assert corpus(7) == corpus(7)
    assert corpus(7) != corpus(8)
    a, b = CliCold(3, NullTracer(), Path("unused"), None), CliCold(3, NullTracer(), Path("unused"), None)
    assert (a.rows_a, a.rows_b, a.upto, a.age, a.horizon, a.sim_seed) == \
        (b.rows_a, b.rows_b, b.upto, b.age, b.horizon, b.sim_seed)


@pytest.mark.parametrize("kind", inputs.MALFORMED_KINDS)
def test_malformed_documents_are_rejected_at_the_line_they_name(kind):
    rng = random.Random(kind)
    for _ in range(20):
        doc = inputs.malformed_doc(rng, kind)
        with pytest.raises(CumriskError) as caught:
            parse_cohort(doc.text)
        ref.check_rejection(caught.value, doc.error_line, CumriskError)


def test_reference_agrees_with_the_program_on_generated_cohorts():
    rng = random.Random(11)
    for _ in range(20):
        doc = inputs.valid_doc(rng)
        ref.check_series(program_rows(doc), ref.reference(doc.rows))


def test_reference_conditional_windows_match_the_direct_product():
    expected = ref.reference(inputs.ramp_rows())
    table = expected.conditional_table()
    assert len(table) == 18 * 19 // 2
    assert table[0, 18] == expected.p_red[-1]
    assert table[8, 2] == expected.conditional(8, 2)


def perturbed(rows, index, column, delta=None, factor=None, nudge=False):
    """A copy of rows with one value moved by delta, scaled by factor, or nudged one ulp."""
    rows = [list(row) for row in rows]
    value = rows[index][column]
    if nudge:
        rows[index][column] = math.nextafter(value, math.inf)
    else:
        rows[index][column] = value + delta if delta is not None else value * factor
    return [tuple(row) for row in rows]


@pytest.fixture(scope="module")
def case():
    doc = inputs.valid_doc(random.Random(5))
    return doc, program_rows(doc), ref.reference(doc.rows)


@pytest.mark.parametrize("column,change", [
    (5, {"delta": 1e-9}),         # p_red
    (6, {"delta": -1e-9}),        # p_off
    (2, {"delta": 1e-9}),         # b
    (3, {"factor": 1 + 1e-10}),   # cum_rate, relative
    (4, {"factor": 1 - 1e-10}),   # cum_risk, relative
])
def test_series_check_rejects_a_perturbed_value(case, column, change):
    _, rows, expected = case
    ref.check_series(rows, expected)
    with pytest.raises(ref.CheckFailed):
        ref.check_series(perturbed(rows, 9, column, **change), expected)


def test_series_check_rejects_a_wrong_label_or_length(case):
    _, rows, expected = case
    with pytest.raises(ref.CheckFailed):
        ref.check_series(perturbed(rows[:3], 0, 0, delta=1) + rows[3:], expected)
    with pytest.raises(ref.CheckFailed):
        ref.check_series(rows[:-1], expected)


def test_nondecreasing_rejects_a_dip():
    ref.nondecreasing("p_red", [0.0, 0.1, 0.1, 0.2])
    with pytest.raises(ref.CheckFailed):
        ref.nondecreasing("p_red", [0.0, 0.2, 0.2 - 1e-15])


def test_rejection_check_needs_the_right_error_at_the_right_line():
    doc = inputs.malformed_doc(random.Random(1), "pool")
    try:
        parse_cohort(doc.text)
    except CumriskError as exc:
        error = exc
    ref.check_rejection(error, doc.error_line, CumriskError)
    with pytest.raises(ref.CheckFailed):
        ref.check_rejection(error, doc.error_line + 1, CumriskError)
    with pytest.raises(ref.CheckFailed):
        ref.check_rejection(None, doc.error_line, CumriskError)
    with pytest.raises(ref.CheckFailed):
        ref.check_rejection(ValueError("bad"), doc.error_line, CumriskError)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_round_trip_check_rejects_a_neighbouring_double(case, format):
    doc, rows, _ = case
    document = emit_series(risk_series(parse_cohort(doc.text)), format)
    if format == "csv":
        parsed = ref.parse_csv_rows(document, ref.SERIES_COLUMNS)
    else:
        parsed = ref.parse_json_rows(document, ref.SERIES_COLUMNS)
    ref.check_roundtrip(format, parsed, rows)
    with pytest.raises(ref.CheckFailed):
        ref.check_roundtrip(format, parsed, perturbed(rows, 4, 5, nudge=True))


def test_json_check_rejects_non_standard_constants():
    with pytest.raises(ref.CheckFailed):
        ref.parse_json_rows('{"steps": [{"t": 1, "cum_rate": Infinity}]}', ("t", "cum_rate"))


def test_comparison_checks_reject_perturbed_deltas():
    rng = random.Random(2)
    doc_a, doc_b = inputs.valid_doc(rng), inputs.valid_doc(rng)
    a, b = parse_cohort(doc_a.text), parse_cohort(doc_b.text)
    rows, back = comparison_rows(compare(a, b)), comparison_rows(compare(b, a))
    ref_a, ref_b = ref.reference(doc_a.rows), ref.reference(doc_b.rows)
    ref.check_comparison(rows, ref_a, ref_b)
    ref.check_antisymmetric(rows, back)
    with pytest.raises(ref.CheckFailed):
        ref.check_comparison(perturbed(rows, 7, 5, delta=1e-9), ref_a, ref_b)
    with pytest.raises(ref.CheckFailed):
        ref.check_antisymmetric(rows, perturbed(back, 7, 2, delta=1e-17))


def test_conditional_text_check_allows_six_decimals_only():
    ref.check_conditional_text("0.123457\n", 0.12345678)
    with pytest.raises(ref.CheckFailed):
        ref.check_conditional_text("0.123459\n", 0.12345678)
    with pytest.raises(ref.CheckFailed):
        ref.check_conditional_text("nan-ish\n", 0.1)


def test_count_checks_reject_broken_simulations():
    expected = ref.reference(inputs.ramp_rows())
    n = 1_000_000
    red = [round(n * p) for p in expected.p_red]
    ref.check_counts(red, n, expected.p_red, ref.SIGMA_RUN)
    ref.check_off_red([n - r for r in red], red, n)
    far = list(red)
    far[-1] += int(5 * math.sqrt(n * expected.p_red[-1] * (1 - expected.p_red[-1])))
    with pytest.raises(ref.CheckFailed):
        ref.check_counts(far, n, expected.p_red, ref.SIGMA_RUN)
    dip = list(red)
    dip[5] = dip[4] - 1
    with pytest.raises(ref.CheckFailed):
        ref.check_counts(dip, n, expected.p_red, ref.SIGMA_CALL)
    with pytest.raises(ref.CheckFailed):
        ref.check_off_red([n - r for r in red[:-1]] + [n - red[-1] + 1], red, n)


def test_clean_error_check_counts_a_traceback_as_failed():
    assert CliCold._check_clean_error((1, "", "error: line 3: bad value\n"))
    assert not CliCold._check_clean_error((1, "", "Traceback (most recent call last):\n  ...\n"))
    assert not CliCold._check_clean_error((0, "ok\n", ""))


def test_import_time_is_read_from_the_cumulative_column():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |       4500 |   numpy.core\n"
              "import time:       310 |      98765 | numpy\n")
    assert _import_ms(stderr, "numpy") == 98.765
    with pytest.raises(ValueError):
        _import_ms(stderr, "cumrisk")


def test_tracer_records_nesting_and_per_call_time():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("core.conditional_risk", calls=4):
            pass
    (op, inner) = tracer.spans
    assert op[3] == -1 and inner[3] == 0
    assert op[1] <= inner[1] <= inner[2] <= op[2]
    assert tracer.per_call_ns("core.conditional_risk") == [(inner[2] - inner[1]) / 4]


def test_corpus_workloads_run_a_round_cleanly():
    import run

    for name in ("corpus_build", "corpus_query"):
        tracer = Tracer()
        workload = run.make_workload(name, 9, tracer, None)
        workload.prepare()
        stats = run.measure(workload, tracer, rounds=2)
        assert stats.correct, stats.problems
        assert stats.attempted > 0 and stats.failed == 0


def test_query_check_rejects_a_perturbed_window():
    import run

    workload = run.make_workload("corpus_query", 4, NullTracer(), None)
    workload.prepare()
    (run_op, check), *_ = workload.ops(0)
    conditional, red, rate, matrices, states = run_op()
    assert check((conditional, red, rate, matrices, states))
    bad = list(conditional)
    bad[30] += 1e-9
    with pytest.raises(ref.CheckFailed):
        check((bad, red, rate, matrices, states))
    with pytest.raises(ref.CheckFailed):
        check((conditional, red[:-1] + [math.nextafter(red[-1], 0.0)], rate, matrices, states))


def test_latency_buffer_keeps_a_fixed_size_and_an_even_spread(monkeypatch):
    import run

    monkeypatch.setattr(run, "LATENCY_CAPACITY", 8)
    latencies = run.Latencies()
    for ns in range(40):
        latencies.add(ns)
    assert len(latencies.buffer) == 8
    assert list(latencies.values()) == [0, 8, 16, 24, 32]
