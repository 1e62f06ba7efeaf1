"""The mutation catalogue: faults planted in the code one at a time, each of which named tests must catch.

    python tests/mutants.py

For every entry of MUTANTS this copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the entry's old text, which must occur exactly
once in its file, with the new text, and runs the entry's tests there with
``python -m pytest -x -q``. A mutant whose tests all pass survives. The script
names every survivor and exits 1 if there is one. An old text that does not
occur exactly once is an error: the script says so and exits 2 before any
test runs.

The tests run in the copy, never in the checkout with the mutant reached
through PYTHONPATH: pyproject.toml's ``pythonpath = ["src"]`` puts the
checkout's own src/ first on sys.path, so such a mutant would not be imported.

A mutation the tests catch goes in as an entry, and an entry goes only with the
code it mutates. EQUIVALENT lists mutations that no input tells apart from the
code; they are kept for the record and not run. The file's name does not start
with ``test_``, so the tier-1 suite does not collect it; ``tests/test_mutants.py``
checks that the table stays in step with the code.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what the mutation does; the file, from the repository root; a text that occurs in it exactly once; the text
# that replaces it; and pytest node ids, at least one of which must fail
Mutant = namedtuple("Mutant", "what file old new tests")

CORE = "src/cumrisk/core.py"
CLI = "src/cumrisk/cli.py"
IO = "src/cumrisk/io.py"
SIM = "src/cumrisk/simulate.py"
TEST_CORE = "tests/test_core.py::"
TEST_SIM = "tests/test_simulate.py::"
BAD_WINDOWS = TEST_CORE + "TestConditionalRisk::test_rejects_bad_windows"
SINGLE_STEP = TEST_CORE + "TestConditionalRisk::test_single_step_equals_transition_probability"
THREADS = TEST_CORE + "TestConditionalRiskTable::test_threads_sweeping_one_fresh_cohort_get_the_reference_doubles"
CAP = TEST_CORE + "TestCohortPrefixes::test_a_cohort_holds_at_most_max_groups"
PLAIN_CHECKS = "tests/test_properties.py::test_value_constructors_accept_and_reject_as_the_plain_checks"
BOUNDARY_WORDS = TEST_SIM + "test_raw_threshold_is_exact_at_the_boundary_words"
BUDGET = TEST_SIM + "test_config_budgets_bulb_steps"
LANE_WORDS = TEST_SIM + "test_lane_words_are_the_philox_raw_words"
KERNELS = "tests/test_properties.py::test_both_simulator_kernels_give_the_reference_counts"
SELECTION = TEST_SIM + "test_a_run_at_the_budget_takes_the_python_kernel_and_one_bulb_step_more_numpy"
TEST_IO = "tests/test_io.py::"
TEST_CLI = "tests/test_cli.py::"
KEPT = TEST_IO + "TestKeptTexts::"
KEPT_EDITS = "tests/test_properties.py::test_a_series_writes_the_plain_documents_of_its_rows_through_any_edits"
JSON_DUMPS = TEST_IO + "test_json_writer_gives_the_bytes_of_json_dumps"

MUTANTS = (
    # the cohort's cap on records
    Mutant("the cap at >=", CORE,
           "if len(records) > MAX_GROUPS:", "if len(records) >= MAX_GROUPS:", (CAP,)),
    Mutant("list(iterator) without islice", CORE,
           "records = list(islice(iterator, MAX_GROUPS + 1))", "records = list(iterator)",
           (TEST_CORE + "TestCohortPrefixes::test_no_record_past_the_cap_is_drawn",)),
    Mutant("islice to MAX_GROUPS", CORE,
           "islice(iterator, MAX_GROUPS + 1)", "islice(iterator, MAX_GROUPS)", (CAP,)),
    Mutant("parse_cohort hands Cohort a list of its records", IO,
           "records=_records(csv.reader(stream), lines)", "records=list(_records(csv.reader(stream), lines))",
           ("tests/test_io.py::TestParseCohort::test_reading_stops_at_the_group_over_the_cap",)),
    # the record's one test for the common case
    Mutant("the record's one test without 0.0 <= incidence", CORE,
           "0.0 <= incidence <= _DOUBLE_MAX", "incidence <= _DOUBLE_MAX",
           (TEST_CORE + "TestTypeInvariants::test_record_rejects_negative_counts",)),
    Mutant("the record's one test without type(other_deaths) is float", CORE,
           "or type(other_deaths) is float and 0.0 <= other_deaths", "or 0.0 <= other_deaths",
           ("tests/test_properties.py::test_record_validation_accepts_and_rejects_as_the_plain_checks",)),
    # row 0 of the table of risks and the matrices
    Mutant("row 0 from p_off without the 1.0 -", CORE,
           "risk.append(1.0 - off)", "risk.append(off)",
           (TEST_CORE + "TestRedProbability::test_zero_incidence",)),
    Mutant("(b, 1.0 - b) matrices", CORE,
           "(TransitionMatrix, (1.0 - b, b))", "(TransitionMatrix, (b, 1.0 - b))",
           (TEST_CORE + "TestEstimateTransition::test_zero_incidence_gives_identity_row",)),
    # the queries' one test for the common case
    Mutant("dropping t >= 1 in cumulative_rate", CORE,
           "    if type(t) is int and t >= 1:\n        try:\n            return cohort.cum_rate[t]",
           "    if type(t) is int:\n        try:\n            return cohort.cum_rate[t]",
           (TEST_CORE + "TestCumulativeRate::test_step_out_of_range",)),
    Mutant("t >= 0 for t >= 1 in cumulative_rate", CORE,
           "    if type(t) is int and t >= 1:\n        try:\n            return cohort.cum_rate[t]",
           "    if type(t) is int and t >= 0:\n        try:\n            return cohort.cum_rate[t]",
           (TEST_CORE + "TestCumulativeRate::test_step_out_of_range",)),
    Mutant("dropping t >= 1 in red_probability", CORE,
           "if type(t) is int and t >= 1:  # as in cumulative_rate", "if type(t) is int:  # as in cumulative_rate",
           (TEST_CORE + "TestRedProbability::test_step_out_of_range",)),
    Mutant("t >= 0 for t >= 1 in red_probability", CORE,
           "t >= 1:  # as in cumulative_rate", "t >= 0:  # as in cumulative_rate",
           (TEST_CORE + "TestRedProbability::test_step_out_of_range",)),
    Mutant("dropping current_step >= 0 from conditional_risk's fast path", CORE,
           "and current_step >= 0 and horizon_steps >= 1:", "and horizon_steps >= 1:", (BAD_WINDOWS,)),
    Mutant("dropping horizon_steps >= 1 from conditional_risk's fast path", CORE,
           "current_step >= 0 and horizon_steps >= 1:", "current_step >= 0:", (BAD_WINDOWS,)),
    Mutant("a fast path that indexes h - 1", CORE,
           "return rows[current_step][horizon_steps]", "return rows[current_step][horizon_steps - 1]",
           (TEST_CORE + "TestConditionalRisk::test_from_birth_equals_unconditional_exactly",)),
    # conditional_risk's full check and the rows it builds
    Mutant("no current_step < 0 check on a miss", CORE,
           "if current_step < 0:", "if False:", (BAD_WINDOWS,)),
    Mutant("rows keyed by horizon", CORE,
           "row = rows[current_step]\n", "row = rows[horizon_steps]\n", (BAD_WINDOWS, THREADS)),
    Mutant("rebuilding a kept row", CORE,
           "if not row:  # the first query", "if True:  # the first query",
           (TEST_CORE + "TestConditionalRisk::test_a_numpy_integer_on_a_kept_start_reads_the_kept_row",)),
    Mutant("built rows without their leading 0.0", CORE,
           "risks = [0.0]", "risks = []", (TEST_CORE + "TestConditionalRisk::test_zero_incidence_horizon",)),
    Mutant("rows built only to the asked horizon", CORE,
           "in cohort.b[current_step:]:", "in cohort.b[current_step:current_step + horizon_steps]:", (BAD_WINDOWS,)),
    Mutant("a miss path that indexes h - 1", CORE,
           "return row[horizon_steps]", "return row[horizon_steps - 1]", (SINGLE_STEP,)),
    Mutant("a reversed window product", CORE,
           "in cohort.b[current_step:]:", "in cohort.b[current_step:][::-1]:", (THREADS,)),
    Mutant("a 1e-14 shift of every window result of a built row", CORE,
           "risks.append(1.0 - off)", "risks.append(1.0 - off + 1e-14)",
           (TEST_CORE + "TestConditionalRisk::test_zero_incidence_horizon", THREADS)),
    Mutant("a wrong propagate row", CORE,
           "p_off * p00 + p_red * p10", "p_off * p00 + p_red * p11",
           (TEST_CORE + "TestPropagate::test_two_step_hand_value",)),
    Mutant("a table shared by all cohorts of one length", CORE,
           "rows = cohort._risks", "rows = conditional_risk.__dict__.setdefault(len(cohort), cohort._risks)",
           (THREADS,)),
    # the check of a probability pair
    Mutant("StateVector's one test without the sum", CORE,
           "\n                and abs(p_off + p_red - 1.0) <= PROB_TOL):", "):",
           (PLAIN_CHECKS, TEST_CORE + "TestTypeInvariants::test_state_rejects_unnormalised_vector")),
    Mutant("StateVector's slack 0.0", CORE,
           'PROB_TOL, "state")', '0.0, "state")',
           (PLAIN_CHECKS, TEST_CORE + "TestTypeInvariants::test_state_tolerates_rounding_noise")),
    Mutant("StateVector's one test without 0.0 <= p_red", CORE,
           "and 0.0 <= p_red <= 1.0", "and p_red <= 1.0",
           (PLAIN_CHECKS, TEST_CORE + "TestTypeInvariants::test_state_rejects_negative_mass")),
    Mutant("TransitionMatrix's slack PROB_TOL", CORE,
           '0.0, "OFF row")', 'PROB_TOL, "OFF row")',
           (PLAIN_CHECKS, TEST_CORE + "TestTypeInvariants::test_matrix_rejects_out_of_range_entry")),
    # the numpy kernel's threshold on raw draws, and the simulator's budget
    Mutant("floor for ceil in the threshold", SIM,
           "math.ceil(b[t] * 2**53)", "math.floor(b[t] * 2**53)", (BOUNDARY_WORDS,)),
    Mutant("np.greater for np.greater_equal", SIM,
           "np.greater_equal(bit_generator", "np.greater(bit_generator", (BOUNDARY_WORDS,)),
    Mutant("a threshold one word high", SIM,
           "np.uint64(math.ceil(b[t] * 2**53) << 11)", "np.uint64((math.ceil(b[t] * 2**53) << 11) + 1)",
           (BOUNDARY_WORDS,)),
    Mutant("no stop at the first step with b = 1", SIM,
           "live = b.index(1.0) if 1.0 in b else len(b)", "live = len(b)",
           (TEST_SIM + "test_certain_and_impossible_steps_in_a_threaded_multichunk_run",)),
    Mutant("the draws bound to a name", SIM,
           "            np.greater_equal(bit_generator.random_raw(width), threshold, out=stays)\n",
           "            draws = bit_generator.random_raw(width)\n"
           "            np.greater_equal(draws, threshold, out=stays)\n",
           (TEST_SIM + "test_memory_stays_flat_as_the_panel_grows",)),
    Mutant("the bulb-step budget at >=", SIM,
           "if n_bulbs * len(cohort) > _MAX_BULB_STEPS:", "if n_bulbs * len(cohort) >= _MAX_BULB_STEPS:",
           (BUDGET,)),
    Mutant("no bulb-step budget", SIM,
           "if n_bulbs * len(cohort) > _MAX_BULB_STEPS:", "if False:",
           (BUDGET, "tests/test_cli.py::TestSimulate::test_rejects_bulb_steps_over_the_budget_before_drawing")),
    # the Python kernel: its Philox words, its threshold and the run size that selects it
    Mutant("the lane counters starting at k, not k + 1", SIM,
           "range(first + 1, first + blocks + 1)", "range(first, first + blocks)", (SELECTION, KERNELS)),
    Mutant("a Weyl key increment off by one bit", SIM,
           "(k1 + 0xBB67AE8584CAA73B)", "(k1 + 0xBB67AE8584CAA73A)", (LANE_WORDS,)),
    Mutant("the lanes past the last bulb left OFF", SIM,
           "off = [_lanes((n - j + 3) // 4) for j in range(4)]", "off = [ones] * 4", (KERNELS,)),
    Mutant("no stop at the first step with b = 1 in the Python kernel", SIM,
           "if p == 1.0:", "if False:", (TEST_SIM + "test_certain_transition_turns_every_bulb_red",)),
    Mutant("a Python-kernel threshold one word high", SIM,
           "(math.ceil(p * 2**53) << 11)", "((math.ceil(p * 2**53) << 11) + 1)", (BOUNDARY_WORDS,)),
    Mutant("the Python kernel below the budget only", SIM,
           "n * len(b) <= _SMALL_BULB_STEPS", "n * len(b) < _SMALL_BULB_STEPS", (SELECTION,)),
    # the command line
    Mutant("the empty --out check removed", CLI,
           'if "" in (getattr(args, "out", None)', 'if False and "" in (getattr(args, "out", None)',
           ("tests/test_cli.py::test_an_empty_out_is_one_error_line_before_any_input_is_read",)),
    Mutant("--out - written to a file named -", CLI,
           'in (None, "-")', "in (None,)", (TEST_CLI + "TestCompute::test_out_dash_is_stdout",)),
    Mutant("a bad byte at the start of a line counted on the line before", CLI,
           '(data[:exc.start] + b".").splitlines()', "data[:exc.start].splitlines()",
           (TEST_CLI + "TestCompute::test_a_bad_byte_that_starts_a_line_is_on_that_line",)),
    # the reader and the cohort writer
    Mutant("open read in lower case only", IO,
           'column == "age_high" and raw.lower() == "open"', 'column == "age_high" and raw == "open"',
           (TEST_IO + "TestParseCohort::test_open_does_not_hide_a_malformed_population",)),
    Mutant("a row's width counting other_deaths", IO,
           "width = max(positions[:5]) + 1", "width = max(positions) + 1",
           (TEST_IO + "TestParseCohort::test_a_row_may_end_before_its_other_deaths_cell",)),
    Mutant("a whole count of 2**53 written as an int", IO,
           "abs(f) < 2**53", "abs(f) <= 2**53",
           (TEST_IO + "TestEmitCohort::test_a_whole_count_from_2_53_up_keeps_its_point",)),
    # the texts a series keeps of its numbers
    Mutant("the kept texts reused without the identity check", IO,
           "len(kept[0]) != len(rows) or not all(map(operator.is_, kept[0], rows))", "len(kept[0]) != len(rows)",
           (KEPT + "test_an_edit_of_the_steps_is_written", KEPT_EDITS)),
    Mutant("the kept rows compared by value", IO,
           "not all(map(operator.is_, kept[0], rows))", "kept[0] != rows",
           (KEPT + "test_an_edit_of_the_steps_is_written", KEPT_EDITS)),
    Mutant("the texts kept from the live list, not the rows written", IO,
           "kept = rows, _texts(chain.from_iterable(rows))", "kept = series.steps, _texts(chain.from_iterable(rows))",
           (KEPT + "test_an_edit_of_the_steps_is_written", KEPT_EDITS)),
    Mutant("a nan or inf text kept and written into JSON", IO,
           "type(value) is float and value - value == 0.0 else", "type(value) is float else",
           (KEPT + "test_odd_values_are_written_as_the_plain_writers_write_them", JSON_DUMPS)),
    Mutant("texts kept for rows that are lists", IO,
           "if all(map(isinstance, rows, repeat(tuple))):", "if True:",
           (KEPT + "test_a_list_row_changed_in_place_is_written_as_it_now_is",)),
    Mutant("the kept texts never reused", IO,
           "if kept is None or len(kept[0])", "if True or len(kept[0])",
           (KEPT + "test_a_later_emission_writes_the_kept_texts_until_a_row_changes",)),
)

EQUIVALENT = (
    # for a sum in [0.5, 2], first + second - 1.0 is exact, a multiple of 2**-53, and the double PROB_TOL is none;
    # any other sum is at least 0.5 from 1
    Mutant("the pair's sum test at >=", CORE,
           "if abs(first + second - 1.0) > PROB_TOL:", "if abs(first + second - 1.0) >= PROB_TOL:", ()),
)


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's old text replaced; ValueError unless the old text occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: the old text of {mutant.what!r} occurs {count} times, not once")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    start = time.perf_counter()
    try:
        for mutant in MUTANTS + EQUIVALENT:
            mutate((ROOT / mutant.file).read_text(encoding="utf-8"), mutant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a cached module compiled from one mutant must not serve the next
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(mutate(original, mutant), encoding="utf-8")
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *mutant.tests],
                                  cwd=copy, env=env, capture_output=True, text=True)
            path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 is a survivor, and any other status (a test id not found,
            # say) means the tests never judged the mutant
            verdict = {0: "SURVIVED", 1: "caught"}.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})")
            print(f"{verdict:<10} {mutant.file}: {mutant.what}", flush=True)
            if proc.returncode != 1:
                survivors.append(mutant)
                if proc.returncode != 0:
                    print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught, {len(EQUIVALENT)} listed as "
          f"equivalent, in {time.perf_counter() - start:.0f} s")
    for mutant in survivors:
        print(f"not caught: {mutant.file}: {mutant.what}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
