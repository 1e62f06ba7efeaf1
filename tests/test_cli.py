"""End-to-end tests for the command-line front end (in-process)."""

import json

import pytest

from cumrisk.cli import main
from cumrisk.core import red_probability
from cumrisk.io import emit_cohort, parse_cohort
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

    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(DEMO.encode("utf-8") + "10,15,1000,1,0 café\n".encode("latin-1"))
        assert main(["compute", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: ")
        assert len(captured.err.splitlines()) == 1


class TestConditional:
    def test_single_group_horizon(self, demo_file, capsys):
        assert main(["conditional", demo_file, "--age", "5", "--horizon", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.200000\n"
        assert captured.err == ""

    def test_full_range_matches_library(self, ramp_file, capsys):
        assert main(["conditional", ramp_file, "--age", "0", "--horizon", "90"]) == 0
        printed = capsys.readouterr().out.strip()
        cohort = parse_cohort(emit_cohort(ramp_cohort()))
        assert printed == f"{red_probability(cohort, 18):.6f}"

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
