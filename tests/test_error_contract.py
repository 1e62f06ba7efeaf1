"""The command line's error contract, fuzzed over the input files and the flags.

Whatever bytes a subcommand reads (`compare` reads two drawn files), and
whatever flag values it is given, it either exits 0 with nothing on stderr
and output that strict JSON accepts, or exits 1 with exactly one stderr line
that starts with "error: ", or, for a value argparse refuses, exits 2 with a
usage line and one "error: " line. It never ends in a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path, PurePath

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumrisk.cli import main

HEADER = "age_low,age_high,population,incidence,cancer_deaths"
ROWS = ("0,5,1000,20,0", "5,10,1000,40,3", "10,open,900,4,2")
VALID = "\n".join((HEADER, *ROWS, "")).encode("utf-8")
COMMANDS = st.sampled_from((("compute",), ("simulate", "--bulbs", "64", "--seed", "0"), ("compare",)))

# Ages and horizons in years: on the grid within the three groups of VALID, negative, off the
# five-year grid, beyond the data, or thousands of digits (int() refuses more than 4,300).
YEARS = st.one_of(st.sampled_from(("0", "5", "10", "15")), st.integers(min_value=-20, max_value=100).map(str),
                  st.builds("{}{}".format, st.sampled_from(("", "-")),
                            st.integers(min_value=1000, max_value=5000).map("5".__mul__)))
SEEDS = st.one_of(st.sampled_from((-1, 0, 2**64 - 1, 2**64)),
                  st.integers(min_value=-1, max_value=2**64)).map(str)
# Paths are drawn as PurePath names that the test places in its temporary directory: a new file,
# the file it writes before each run, and the directory itself.
OUT_FILES = st.sampled_from((PurePath("new.out"), PurePath("existing.out"), PurePath("."), "-"))
FIGURE_DIRS = st.sampled_from((PurePath("figures"), PurePath("existing.out"), ""))


@st.composite
def commands_with_flags(draw):
    """One of the five subcommands with drawn flag values."""
    command = draw(st.sampled_from(("compute", "conditional", "compare", "simulate", "figures")))
    flags = []
    if command == "compute" and draw(st.booleans()):
        flags += ["--upto", draw(YEARS)]
    elif command == "conditional":
        flags += ["--age", draw(YEARS), "--horizon", draw(YEARS)]
    elif command == "simulate":
        flags += ["--bulbs", str(draw(st.integers(min_value=-1, max_value=200))), "--seed", draw(SEEDS)]
    if command == "figures":
        flags += ["--out", draw(FIGURE_DIRS)]
    elif command != "conditional" and draw(st.booleans()):
        flags += ["--out", draw(OUT_FILES)]
    return (command, *flags)


CELLS = st.one_of(
    st.sampled_from(("", "open", "OPEN", "nan", "inf", "-1", "-0", "0", "1e308", "1e300",
                     "1e-300", "5e-324", "1_000", " 7 ", '"5', "9" * 5000, "other_deaths")),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def near_valid_documents(draw):
    """A valid three-group document with one to three edits to its table."""
    table = [HEADER.split(",")] + [row.split(",") for row in ROWS]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        row = draw(st.integers(min_value=0, max_value=len(table) - 1))
        cells = table[row]
        edit = draw(st.sampled_from(("replace", "delete", "append", "drop_row", "copy_row")))
        if edit == "replace" and cells:
            cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))] = draw(CELLS)
        elif edit == "delete" and cells:
            del cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))]
        elif edit == "append":
            cells.append(draw(CELLS))
        elif edit == "drop_row" and len(table) > 1:
            del table[row]
        elif edit == "copy_row":
            table.insert(row, list(cells))
    return ("\n".join(",".join(cells) for cells in table) + "\n").encode("utf-8")


def _reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@given(document=st.one_of(st.binary(max_size=200), near_valid_documents(), st.just(VALID)),
       format=st.sampled_from(("csv", "json")), command=st.one_of(COMMANDS, commands_with_flags()),
       second=st.one_of(st.binary(max_size=200), near_valid_documents()))
@example(document=f"{HEADER}\n0,5,1000,1,0\n5,open,1000,2,0 caf\xe9\n".encode("latin-1"), format="csv",
         command=("compute",), second=b"")
@example(document=f'{HEADER}\n0,5,1000,2,"{"9" * 131_073}"\n'.encode("utf-8"), format="csv",
         command=("compute",), second=b"")
@example(document=f"{HEADER}\n0,5,1e308,1e308,1e308\n".encode("utf-8"), format="json",
         command=("compute",), second=b"")
@example(document=f"{HEADER}\n0,5,1e-300,1e300,1e300\n".encode("utf-8"), format="json",
         command=("compute",), second=b"")
@example(document=VALID, format="json", command=("compare",),
         second=f"{HEADER}\n0,5,1e-300,1e300,1e300\n".encode("utf-8"))
@example(document=VALID, format="json", command=("compare",),
         second=f"{HEADER}\n0,open,1000,20,0\n".encode("utf-8"))
@example(document=VALID, format="csv", command=("compare",),
         second=f"{HEADER}\n0,5,1000,1,0 caf\xe9\n".encode("latin-1"))
@example(document=VALID, format="csv", command=("conditional", "--age", "5" * 4300, "--horizon", "5"),
         second=b"")
@example(document=VALID, format="csv", command=("conditional", "--age", "5" * 4301, "--horizon", "5"),
         second=b"")
@example(document=VALID, format="json", command=("simulate", "--bulbs", "8", "--seed", str(2**64)), second=b"")
@example(document=VALID, format="json", command=("compute", "--out", PurePath("existing.out")), second=b"")
@example(document=VALID, format="csv", command=("compare", "--out", PurePath(".")), second=VALID)
@example(document=VALID, format="csv", command=("figures", "--out", PurePath("existing.out")), second=b"")
@settings(max_examples=300, deadline=None)
def test_compute_exits_cleanly_or_with_one_error_line(document, format, command, second):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cohort.csv").write_bytes(document)
        (root / "second.csv").write_bytes(second)
        (root / "existing.out").write_bytes(b"written before the run\n")
        argv = [str(root / arg) if isinstance(arg, PurePath) else arg for arg in command]
        argv += [str(root / "cohort.csv"), str(root / "second.csv")][:2 if command[0] == "compare" else 1]
        if command[0] not in ("conditional", "figures"):
            argv += ["--format", format]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        out = argv[argv.index("--out") + 1] if "--out" in argv and command[0] != "figures" else "-"
        if status == 0:
            assert stderr.getvalue() == ""
            if format == "json" and "--format" in argv:
                text = stdout.getvalue() if out == "-" else Path(out).read_text(encoding="utf-8")
                json.loads(text, parse_constant=_reject_constant)
        elif status == 2:
            lines = stderr.getvalue().splitlines()
            assert lines[0].startswith("usage: cumrisk "), lines
            assert [line for line in lines if "error: " in line] == lines[-1:], lines
            assert lines[-1].startswith(f"cumrisk {command[0]}: error: "), lines
        else:
            assert status == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
