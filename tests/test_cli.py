"""End-to-end tests for the command-line front end (in-process)."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cumrisk
from cumrisk import cli
from cumrisk.cli import main
from cumrisk.core import red_probability
from cumrisk.io import emit_cohort, float_repr, parse_cohort
from helpers import make_cohort, ramp_cohort

DEMO = ("age_low,age_high,population,incidence,cancer_deaths\n"
        "0,5,1000,20,0\n"
        "5,10,1000,40,0\n")


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


@pytest.fixture
def ramp_file(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text(emit_cohort(ramp_cohort()), encoding="utf-8")
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(emit_cohort(make_cohort([(1000.0, 0.0)])), encoding="utf-8")
    return str(path)


class TestCompute:
    def test_table_on_stdout(self, demo_file, capsys):
        assert main(["compute", demo_file]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "t,age_label,b,cum_rate,cum_risk,p_red,p_off"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:2] == ["1", "0-4"]
        assert float(first[2]) == 0.1

    def test_out_file(self, demo_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["compute", demo_file, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_text(encoding="utf-8").splitlines()[0].startswith("t,")

    def test_json_format(self, demo_file, capsys):
        assert main(["compute", demo_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["t"] for s in payload["steps"]] == [1, 2]

    def test_upto_includes_open_group(self, ramp_file, capsys):
        assert main(["compute", ramp_file, "--upto", "85"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 18
        assert lines[-1].split(",")[1] == "85+"

    def test_upto_drops_later_groups(self, ramp_file, capsys):
        assert main(["compute", ramp_file, "--upto", "84"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 17
        assert main(["compute", ramp_file, "--upto", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "0-4"

    def test_upto_keeping_nothing_is_an_error(self, ramp_file, capsys):
        assert main(["compute", ramp_file, "--upto", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")

    def test_missing_file(self, capsys):
        assert main(["compute", "no-such-file.csv"]) == 1
        captured = capsys.readouterr()
        assert "no-such-file.csv" in captured.err
        assert captured.err.startswith("error:")

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(DEMO.replace("1000,40", "10x0,40"), encoding="utf-8")
        assert main(["compute", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "population" in err
        assert "line 3" in err

    def test_non_finite_count_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text(DEMO.replace("1000,40", "nan,40"), encoding="utf-8")
        assert main(["compute", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 3, column 'population': "
                                "population must be a finite real number, got nan\n")

    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        # the bad byte's line is counted as csv counts a parse error's: each line end is one
        bad = tmp_path / "latin1.csv"
        for newline in ("\n", "\r\n", "\r"):
            bad.write_bytes((DEMO + "10,15,1000,1,0 café\n").replace("\n", newline).encode("latin-1"))
            assert main(["compute", str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: line 4: "), (newline, captured.err)
            assert len(captured.err.splitlines()) == 1

    def test_line_ends_are_read_as_in_text_mode(self, demo_file, tmp_path, capsys):
        assert main(["compute", demo_file]) == 0
        expected = capsys.readouterr().out
        for newline in ("\r\n", "\r"):
            path = tmp_path / "newlines.csv"
            path.write_bytes(DEMO.replace("\n", newline).encode("utf-8"))
            assert main(["compute", str(path)]) == 0
            assert capsys.readouterr() == (expected, "")

    def test_input_at_the_cap_is_read_and_one_byte_more_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(DEMO))
        path = tmp_path / "demo.csv"
        path.write_text(DEMO, encoding="utf-8")
        assert main(["compute", str(path)]) == 0
        assert capsys.readouterr().err == ""
        path.write_text(DEMO + "\n", encoding="utf-8")
        assert main(["compute", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(path)!r} is larger than the input limit of {len(DEMO)} bytes\n"


class TestConditional:
    def test_single_group_horizon(self, demo_file, capsys):
        assert main(["conditional", demo_file, "--age", "5", "--horizon", "5"]) == 0
        captured = capsys.readouterr()
        # b = 0.2 for the one group, and 1 - (1 - 0.2) is printed at full precision
        assert captured.out == "0.19999999999999996\n"
        assert captured.err == ""

    def test_full_range_matches_library(self, ramp_file, capsys):
        assert main(["conditional", ramp_file, "--age", "0", "--horizon", "90"]) == 0
        printed = capsys.readouterr().out.strip()
        cohort = parse_cohort(emit_cohort(ramp_cohort()))
        assert printed == float_repr(red_probability(cohort, 18))

    def test_rejects_off_grid_age(self, demo_file, capsys):
        assert main(["conditional", demo_file, "--age", "3", "--horizon", "5"]) == 1
        assert "multiples of 5" in capsys.readouterr().err

    def test_rejects_off_grid_horizon(self, demo_file, capsys):
        assert main(["conditional", demo_file, "--age", "5", "--horizon", "7"]) == 1
        assert "multiples of 5" in capsys.readouterr().err

    def test_window_beyond_data_names_the_limit(self, demo_file, capsys):
        assert main(["conditional", demo_file, "--age", "5", "--horizon", "10"]) == 1
        err = capsys.readouterr().err
        assert "maximum age is 10 years" in err
        assert "5-9" in err


class TestCompare:
    def test_same_file_gives_zero_deltas(self, demo_file, capsys):
        assert main(["compare", demo_file, demo_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("t,")
        for line in lines[1:]:
            assert line.split(",")[2:] == ["0.0"] * 5

    def test_different_lengths_warn_in_a_comment(self, demo_file, zero_file, capsys):
        assert main(["compare", demo_file, zero_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# truncated")

    def test_empty_input_is_diagnosed(self, demo_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("age_low,age_high,population,incidence,cancer_deaths\n",
                         encoding="utf-8")
        assert main(["compare", demo_file, str(empty)]) == 1
        assert "no data rows" in capsys.readouterr().err


class TestSimulate:
    def test_zero_probabilities_stay_dark(self, zero_file, capsys):
        assert main(["simulate", zero_file, "--bulbs", "1", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,age_label,empirical_p_red,analytic_p_red,diff"
        assert lines[1] == "1,0-4,0.0,0.0,0.0"
        assert captured.err == ""

    def test_repeat_runs_are_byte_identical(self, demo_file, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        flags = ["--bulbs", "20000", "--seed", "11"]
        assert main(["simulate", demo_file, *flags, "--out", str(out_a)]) == 0
        assert main(["simulate", demo_file, *flags, "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_payload_echoes_configuration(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--bulbs", "100", "--seed", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3
        assert payload["n_bulbs"] == 100
        assert len(payload["steps"]) == 2

    def test_rejects_empty_panel(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--bulbs", "0"]) == 1
        assert "n_bulbs" in capsys.readouterr().err

    def test_rejects_population_over_the_cap_before_allocating(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--bulbs", "1000000000000"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestFigures:
    def test_writes_three_files(self, demo_file, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert main(["figures", demo_file, "--out", str(outdir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed = captured.out.splitlines()
        assert len(printed) == 3
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["fig4_transitions.csv", "fig5_red.csv", "fig6_summary.csv"]

    def test_transition_and_red_columns(self, demo_file, tmp_path, capsys):
        outdir = tmp_path / "figs"
        main(["figures", demo_file, "--out", str(outdir)])
        capsys.readouterr()
        fig4 = (outdir / "fig4_transitions.csv").read_text(encoding="utf-8").splitlines()
        assert fig4[0] == "t,age_label,b"
        assert [float(line.split(",")[2]) for line in fig4[1:]] == [0.1, 0.2]
        fig5 = (outdir / "fig5_red.csv").read_text(encoding="utf-8").splitlines()
        assert fig5[0] == "t,age_label,p_red"
        cohort = parse_cohort(DEMO)
        assert [float(line.split(",")[2]) for line in fig5[1:]] == [
            red_probability(cohort, 1),
            red_probability(cohort, 2),
        ]

    def test_summary_matches_compute(self, demo_file, tmp_path, capsys):
        outdir = tmp_path / "figs"
        main(["figures", demo_file, "--out", str(outdir)])
        capsys.readouterr()
        assert main(["compute", demo_file]) == 0
        stdout = capsys.readouterr().out
        assert (outdir / "fig6_summary.csv").read_text(encoding="utf-8") == stdout

    def test_nested_directory_is_created(self, demo_file, tmp_path, capsys):
        outdir = tmp_path / "a" / "b" / "c"
        assert main(["figures", demo_file, "--out", str(outdir)]) == 0
        capsys.readouterr()
        assert (outdir / "fig6_summary.csv").exists()

    def test_empty_out_path_is_an_error(self, demo_file, capsys):
        assert main(["figures", demo_file, "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


@pytest.mark.parametrize("argv", (["compute"], ["conditional", "--age", "0", "--horizon", "5"],
                                  ["compare", "{dataset}"], ["simulate", "--bulbs", "10"],
                                  ["figures", "--out", "{figures}"]), ids=lambda argv: argv[0])
def test_closed_stdout_is_one_error_line(argv, demo_file, tmp_path, monkeypatch, capsys):
    # what Python makes of sys.stdout when the shell closed it (`cumrisk compute x.csv >&-`)
    monkeypatch.setattr(sys, "stdout", None)
    argv = [arg.format(dataset=demo_file, figures=tmp_path / "figs") for arg in argv]
    assert main([argv[0], demo_file, *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"
    # the error comes before the subcommand runs, so figures writes nothing
    assert not (tmp_path / "figs").exists()


IMPORT_PROBE = """
import contextlib, io, json, sys
import cumrisk
from cumrisk import cli

ramp, figs = sys.argv[1:]
argvs = (["compute", ramp], ["conditional", ramp, "--age", "40", "--horizon", "10"],
         ["compare", ramp, ramp], ["figures", ramp, "--out", figs])
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(argv) for argv in argvs]
print(json.dumps({"statuses": statuses, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules, "all": cumrisk.__all__,
                  "unresolved": [name for name in cumrisk.__all__ if not hasattr(cumrisk, name)]}))
"""


def test_only_simulate_imports_numpy_and_each_public_name_is_listed_once(ramp_file, tmp_path):
    # A fresh interpreter: this test process has numpy loaded already.
    env = {**os.environ, "PYTHONPATH": str(Path(cumrisk.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, ramp_file, str(tmp_path / "figs")],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    probe = json.loads(proc.stdout)
    assert probe["statuses"] == [0, 0, 0, 0]
    assert probe["numpy"] is False
    assert probe["dataclasses"] is False
    assert len(probe["all"]) == len(set(probe["all"]))
    assert probe["unresolved"] == []


def _cli_child(args, limit_bytes):
    """Run ``python -m cumrisk.cli`` in a fresh interpreter with its address space capped."""
    env = {**os.environ, "PYTHONPATH": str(Path(cumrisk.__file__).parents[1])}

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, "-m", "cumrisk.cli", *args], capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=cap_address_space)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_or_oversized_input_is_one_error_line_in_bounded_memory(tmp_path):
    # 400 MB of address space: reading /dev/zero whole would end in a MemoryError traceback
    oversized = tmp_path / "oversized.csv"
    with open(oversized, "wb") as file:
        file.truncate(cli.MAX_INPUT_BYTES + 1)
    for path in ("/dev/zero", str(oversized)):
        proc = _cli_child(["compute", path], 400 * 2**20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {path!r} is larger than the input limit of {cli.MAX_INPUT_BYTES} bytes\n"


BLAS_PROBE = """
import contextlib, io, os, sys
from cumrisk import cli

seen = []

class Spy:  # notes the setting at the moment numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["simulate", sys.argv[1], "--bulbs", "10"])
print(status, seen[:1])
"""


def test_simulate_sets_one_blas_thread_before_numpy_unless_the_user_chose(ramp_file):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cumrisk.__file__).parents[1])
    for preset, expected in ((None, "1"), ("3", "3")):
        child_env = env if preset is None else {**env, "OPENBLAS_NUM_THREADS": preset}
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, ramp_file], capture_output=True,
                              text=True, env=child_env, timeout=60, check=True)
        assert proc.stdout == f"0 [{expected!r}]\n"
