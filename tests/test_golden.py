"""Byte-for-byte golden outputs of the command line and the cohort emitter.

Each file under tests/golden/ holds the exact bytes one case wrote when it
was recorded. After an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from cumrisk.cli import main
from cumrisk.io import emit_cohort, parse_cohort
from helpers import ramp_cohort

GOLDEN = Path(__file__).resolve().parent / "golden"

DEMO = ("age_low,age_high,population,incidence,cancer_deaths\n"
        "0,5,1000,20,0\n"
        "5,10,1000,40,0\n")
DEMO_OTHER = ("age_low,age_high,population,incidence,cancer_deaths,other_deaths\n"
              "0,5,1000,20,0,7\n"
              "5,10,1000,40,0,\n")

# case name -> CLI arguments; "{x}" names an input file, "{out}" the output path
CLI_CASES = {
    "compute_ramp.csv": ["compute", "{ramp}"],
    "compute_ramp.json": ["compute", "{ramp}", "--format", "json"],
    "compute_ramp_upto40.csv": ["compute", "{ramp}", "--upto", "40"],
    "compute_demo.json": ["compute", "{demo}", "--format", "json"],
    "compare_ramp_lower.csv": ["compare", "{ramp}", "{lower}"],
    "compare_ramp_lower.json": ["compare", "{ramp}", "{lower}", "--format", "json"],
    "compare_ramp_demo.csv": ["compare", "{ramp}", "{demo}"],
    "compare_ramp_demo.json": ["compare", "{ramp}", "{demo}", "--format", "json"],
    "simulate_ramp.csv": ["simulate", "{ramp}", "--bulbs", "1000", "--seed", "42"],
    "simulate_ramp.json": ["simulate", "{ramp}", "--bulbs", "1000", "--seed", "42",
                           "--format", "json"],
    # more than three chunks of bulbs, ending in a partial one
    "simulate_ramp_multichunk.csv": ["simulate", "{ramp}", "--bulbs", "200003", "--seed", "7"],
}
FIGURES = ("fig4_transitions.csv", "fig5_red.csv", "fig6_summary.csv")
CASES = (list(CLI_CASES) + [f"figures_ramp_{name}" for name in FIGURES]
         + ["emit_cohort_ramp.csv", "emit_cohort_demo_other_deaths.csv"])


def render_cases(workdir: Path) -> dict:
    """Run every case in workdir and return {case name: output text}."""
    inputs = {
        "ramp": emit_cohort(ramp_cohort()),
        "lower": emit_cohort(ramp_cohort(b_high=0.08)),
        "demo": DEMO,
    }
    paths = {}
    for name, text in inputs.items():
        paths[name] = workdir / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8")
    outputs = {}
    for case, argv in CLI_CASES.items():
        out = workdir / case
        argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
        if main(argv) != 0:
            raise AssertionError(f"case {case} failed")
        outputs[case] = out.read_text(encoding="utf-8")
    figures = workdir / "figures"
    if main(["figures", str(paths["ramp"]), "--out", str(figures)]) != 0:
        raise AssertionError("figures failed")
    for name in FIGURES:
        outputs[f"figures_ramp_{name}"] = (figures / name).read_text(encoding="utf-8")
    outputs["emit_cohort_ramp.csv"] = inputs["ramp"]
    outputs["emit_cohort_demo_other_deaths.csv"] = emit_cohort(parse_cohort(DEMO_OTHER))
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return render_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden_bytes(outputs, case):
    assert outputs[case].encode("utf-8") == (GOLDEN / case).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for case, text in render_cases(Path(tmp)).items():
            (GOLDEN / case).write_bytes(text.encode("utf-8"))
            print(GOLDEN / case)
