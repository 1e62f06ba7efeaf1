"""Seeded generator of cohort documents (standard library only).

Every input the benchmark feeds the program comes from here, driven by a
``random.Random`` built from the run's seed, so the same seed gives the
same documents. Counts are whole numbers, which lets the reference in
``reference.py`` work in exact rational arithmetic.
"""

import random
from dataclasses import dataclass

GROUPS = 18
HEADER = ("age_low", "age_high", "population", "incidence", "cancer_deaths")
COUNT_COLUMNS = ("population", "incidence", "cancer_deaths")
# transition probabilities at the two ends of the ramp cohort
RAMP_B_LOW, RAMP_B_HIGH = 0.001, 0.12

# Ways a document is made invalid; corpus_build cycles through them in order.
MALFORMED_KINDS = (
    "noncontiguous",
    "width",
    "pool",
    "negative",
    "nonnumeric",
    "missing_column",
    "after_open",
)

# Bytes that are not valid UTF-8. The file built from them does not depend on
# the seed, so the invocation that reads it behaves the same in every run.
NON_UTF8_DOCUMENT = (
    b"age_low,age_high,population,incidence,cancer_deaths\n"
    b"0,5,1000,1,0\n"
    b"5,open,1000,2,0 \xff\xfe caf\xe9\n"
)


@dataclass(frozen=True)
class Doc:
    """One cohort document and what the program must make of it.

    ``rows`` holds (population, incidence, cancer_deaths) per group for a
    valid document; ``error_line`` is the line a malformed one must be
    rejected at, and None for a valid one.
    """

    text: str
    rows: tuple
    error_line: int | None = None
    kind: str = "valid"


def cohort_rows(rng: random.Random) -> tuple:
    """Counts for one cohort whose transition probabilities rise with age.

    The cubic ramp from about 0.0005 to 0.15, jittered by up to 50% per
    group, gives the shape of real incidence tables; populations span two
    orders of magnitude and cancer deaths stay under 1% of the population.
    """
    rows = []
    for i in range(GROUPS):
        ramp = (i / (GROUPS - 1)) ** 3
        b = (0.0005 + 0.15 * ramp) * rng.uniform(0.5, 1.5)
        population = rng.randint(20_000, 2_000_000)
        cancer_deaths = rng.randint(0, population // 100)
        incidence = int(b * (population + 5 * cancer_deaths) / 5)
        rows.append((population, incidence, cancer_deaths))
    return tuple(rows)


def ramp_rows() -> tuple:
    """The fixed 18-group ramp cohort the simulator runs on.

    Same shape as the test suite's ``ramp_cohort``: 200,000 people per group,
    cancer deaths at 1%, probabilities on a cubic ramp from RAMP_B_LOW to
    RAMP_B_HIGH, with incidence rounded down to a whole count.
    """
    rows = []
    for i in range(GROUPS):
        b = RAMP_B_LOW + (RAMP_B_HIGH - RAMP_B_LOW) * (i / (GROUPS - 1)) ** 3
        population, cancer_deaths = 200_000, 2_000
        rows.append((population, int(b * (population + 5 * cancer_deaths) / 5), cancer_deaths))
    return tuple(rows)


def _table(rows, other_deaths=None) -> list[list[str]]:
    """Header plus one cell list per group; the last group is open-ended."""
    header = list(HEADER) + (["other_deaths"] if other_deaths else [])
    table = [header]
    for i, (population, incidence, cancer_deaths) in enumerate(rows):
        low = 5 * i
        high = "open" if i == len(rows) - 1 else str(low + 5)
        cells = [str(low), high, str(population), str(incidence), str(cancer_deaths)]
        if other_deaths:
            cells.append(str(other_deaths[i]))
        table.append(cells)
    return table


def _render(table) -> str:
    return "\n".join(",".join(cells) for cells in table) + "\n"


def render(rows) -> str:
    """The document for a list of group counts, in the program's input format."""
    return _render(_table(rows))


def valid_doc(rng: random.Random) -> Doc:
    """A fresh valid cohort; about a third carry the optional other_deaths column."""
    rows = cohort_rows(rng)
    other = None
    if rng.random() < 1 / 3:
        other = [rng.randint(0, population // 20) for population, _, _ in rows]
    return Doc(_render(_table(rows, other)), rows)


def malformed_doc(rng: random.Random, kind: str) -> Doc:
    """A cohort broken in one way, with the line the parser must report."""
    rows = cohort_rows(rng)
    table = _table(rows)
    last = len(rows) - 1
    if kind == "noncontiguous":
        k = rng.randint(0, last)
        table[k + 1][0] = str(5 * k + 5)
        if k != last:
            table[k + 1][1] = str(5 * k + 10)
        line = k + 2
    elif kind == "width":
        k = rng.randint(0, last - 1)
        table[k + 1][1] = str(5 * k + 10)
        line = k + 2
    elif kind == "pool":
        k = rng.randint(0, last)
        population, _, cancer_deaths = rows[k]
        table[k + 1][3] = str((population + 5 * cancer_deaths) // 5 + 1)
        line = k + 2
    elif kind == "negative":
        k = rng.randint(0, last)
        column = 2 + rng.randrange(len(COUNT_COLUMNS))
        table[k + 1][column] = "-" + str(max(1, int(table[k + 1][column])))
        line = k + 2
    elif kind == "nonnumeric":
        k = rng.randint(0, last)
        column = rng.choice((0, 2, 3, 4))
        table[k + 1][column] = rng.choice(("n/a", "12a", "", "1;5"))
        line = k + 2
    elif kind == "missing_column":
        column = rng.randrange(len(HEADER))
        table = [cells[:column] + cells[column + 1:] for cells in table]
        line = 1
    elif kind == "after_open":
        k = rng.randint(0, last - 1)
        table[k + 1][1] = "open"
        line = k + 3
    else:
        raise ValueError(f"unknown malformation {kind!r}")
    return Doc(_render(table), (), line, kind)
