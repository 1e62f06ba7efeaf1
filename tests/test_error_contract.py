"""The command line's error contract, fuzzed over the input files.

Whatever bytes `cumrisk compute`, `cumrisk simulate` or `cumrisk compare`
(two drawn files) reads, it either exits 0 with nothing on stderr and output
that strict JSON accepts, or exits 1 with exactly one stderr line that starts
with "error: ". It never ends in a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumrisk.cli import main

HEADER = "age_low,age_high,population,incidence,cancer_deaths"
ROWS = ("0,5,1000,20,0", "5,10,1000,40,3", "10,open,900,4,2")
COMMANDS = st.sampled_from((("compute",), ("simulate", "--bulbs", "64", "--seed", "0"), ("compare",)))

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


@given(document=st.one_of(st.binary(max_size=200), near_valid_documents()),
       format=st.sampled_from(("csv", "json")), command=COMMANDS,
       second=st.one_of(st.binary(max_size=200), near_valid_documents()))
@example(document=f"{HEADER}\n0,5,1000,1,0\n5,open,1000,2,0 caf\xe9\n".encode("latin-1"), format="csv",
         command=("compute",), second=b"")
@example(document=f'{HEADER}\n0,5,1000,2,"{"9" * 131_073}"\n'.encode("utf-8"), format="csv",
         command=("compute",), second=b"")
@example(document=f"{HEADER}\n0,5,1e308,1e308,1e308\n".encode("utf-8"), format="json",
         command=("compute",), second=b"")
@example(document=f"{HEADER}\n0,5,1e-300,1e300,1e300\n".encode("utf-8"), format="json",
         command=("compute",), second=b"")
@example(document="\n".join((HEADER, *ROWS, "")).encode("utf-8"), format="json", command=("compare",),
         second=f"{HEADER}\n0,5,1e-300,1e300,1e300\n".encode("utf-8"))
@example(document="\n".join((HEADER, *ROWS, "")).encode("utf-8"), format="json", command=("compare",),
         second=f"{HEADER}\n0,open,1000,20,0\n".encode("utf-8"))
@example(document="\n".join((HEADER, *ROWS, "")).encode("utf-8"), format="csv", command=("compare",),
         second=f"{HEADER}\n0,5,1000,1,0 caf\xe9\n".encode("latin-1"))
@settings(max_examples=300, deadline=None)
def test_compute_exits_cleanly_or_with_one_error_line(document, format, command, second):
    with tempfile.TemporaryDirectory() as tmp:
        path, second_path = Path(tmp) / "cohort.csv", Path(tmp) / "second.csv"
        path.write_bytes(document)
        second_path.write_bytes(second)
        paths = [str(path), str(second_path)] if command == ("compare",) else [str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main([*command, *paths, "--format", format])
    if status == 0:
        assert stderr.getvalue() == ""
        if format == "json":
            json.loads(stdout.getvalue(), parse_constant=_reject_constant)
    else:
        assert status == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
