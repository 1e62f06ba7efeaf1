"""Independent reference and property checks for the program's outputs.

Nothing here imports the program. The reference works in exact rational
arithmetic over the generated whole-number counts and rounds to a double
only at the end, so it shares no floating-point path with the code under
test. Each check raises ``CheckFailed`` naming what disagreed.
"""

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

ABS_TOL = 1e-12      # probabilities: b, p_off, p_red, conditional windows
REL_TOL = 1e-12      # rates and risks: cum_rate, cum_risk
CONDITIONAL_TEXT_TOL = 5e-7   # `cumrisk conditional` prints six decimals
SIGMA_RUN = 4.0      # pooled Monte Carlo counts of a run, at every step
SIGMA_CALL = 6.0     # a single Monte Carlo call, at every step

SERIES_COLUMNS = ("t", "age_label", "b", "cum_rate", "cum_risk", "p_red", "p_off")
COMPARISON_COLUMNS = (
    "t", "age_label", "delta_b", "delta_cum_rate", "delta_cum_risk", "delta_p_red", "delta_p_off",
)
SIMULATION_COLUMNS = ("t", "age_label", "empirical_p_red", "analytic_p_red", "diff")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference or a property."""


@dataclass(frozen=True)
class Reference:
    """Per-step values of one cohort, exact until rounded to doubles here."""

    exact_b: tuple          # Fraction per group: 5x / (n + 5dc)
    age_labels: tuple
    b: tuple
    cum_rate: tuple
    cum_risk: tuple
    p_red: tuple
    p_off: tuple

    def __len__(self) -> int:
        return len(self.b)

    def conditional(self, current_step: int, horizon_steps: int) -> float:
        """1 - prod(1 - b_i) over the window of groups after current_step."""
        off = Fraction(1)
        for b in self.exact_b[current_step:current_step + horizon_steps]:
            off *= 1 - b
        return float(1 - off)

    def conditional_table(self) -> dict:
        """Every window (j, h) with 0 <= j, 1 <= h, j + h <= G."""
        table = {}
        groups = len(self.exact_b)
        for j in range(groups):
            off = Fraction(1)
            for h in range(1, groups - j + 1):
                off *= 1 - self.exact_b[j + h - 1]
                table[j, h] = float(1 - off)
        return table


def reference(rows) -> Reference:
    """Reference table for groups of (population, incidence, cancer_deaths).

    b = 5x/(n+5dc), p_off(t) = prod(1-b), p_red = 1 - p_off,
    cum_rate = 5 * sum(x/n), cum_risk = 1 - exp(-cum_rate).
    """
    exact_b, labels, b, rate, risk, red, off_col = [], [], [], [], [], [], []
    off = Fraction(1)
    annual = Fraction(0)
    for i, (population, incidence, cancer_deaths) in enumerate(rows):
        step_b = Fraction(5 * incidence, population + 5 * cancer_deaths)
        off *= 1 - step_b
        annual += Fraction(incidence, population)
        cum_rate = float(5 * annual)
        exact_b.append(step_b)
        labels.append(f"{5 * i}+" if i == len(rows) - 1 else f"{5 * i}-{5 * i + 4}")
        b.append(float(step_b))
        rate.append(cum_rate)
        risk.append(1.0 - math.exp(-cum_rate))
        red.append(float(1 - off))
        off_col.append(float(off))
    return Reference(tuple(exact_b), tuple(labels), tuple(b), tuple(rate), tuple(risk),
                     tuple(red), tuple(off_col))


def close_abs(what: str, got: float, want: float, tol: float = ABS_TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r} (abs tol {tol})")


def close_rel(what: str, got: float, want: float, tol: float = REL_TOL) -> None:
    if not abs(got - want) <= tol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r} (rel tol {tol})")


def exact(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected exactly {want!r}")


def nondecreasing(what: str, values) -> None:
    for t in range(1, len(values)):
        if values[t] < values[t - 1]:
            raise CheckFailed(f"{what} decreases at step {t + 1}: {values[t - 1]!r} -> {values[t]!r}")


def check_series(rows, ref: Reference, what: str = "series", steps: int | None = None) -> None:
    """Rows of (t, age_label, b, cum_rate, cum_risk, p_red, p_off) against the reference.

    ``steps`` is the number of leading steps expected; all of them by default.
    """
    exact(f"{what} length", len(rows), len(ref) if steps is None else steps)
    for i, (t, label, b, cum_rate, cum_risk, p_red, p_off) in enumerate(rows):
        exact(f"{what} t", t, i + 1)
        exact(f"{what} age_label at t={t}", label, ref.age_labels[i])
        close_abs(f"{what} b at t={t}", b, ref.b[i])
        close_rel(f"{what} cum_rate at t={t}", cum_rate, ref.cum_rate[i])
        close_rel(f"{what} cum_risk at t={t}", cum_risk, ref.cum_risk[i])
        close_abs(f"{what} p_red at t={t}", p_red, ref.p_red[i])
        close_abs(f"{what} p_off at t={t}", p_off, ref.p_off[i])
    nondecreasing(f"{what} p_red", [row[5] for row in rows])


def check_comparison(rows, ref_a: Reference, ref_b: Reference) -> None:
    """Rows of (t, age_label, deltas...) are the reference of a minus that of b."""
    exact("comparison length", len(rows), min(len(ref_a), len(ref_b)))
    for i, (t, label, d_b, d_rate, d_risk, d_red, d_off) in enumerate(rows):
        exact("comparison t", t, i + 1)
        exact(f"comparison age_label at t={t}", label, ref_a.age_labels[i])
        close_abs(f"delta_b at t={t}", d_b, ref_a.b[i] - ref_b.b[i])
        close_abs(f"delta_p_red at t={t}", d_red, ref_a.p_red[i] - ref_b.p_red[i])
        close_abs(f"delta_p_off at t={t}", d_off, ref_a.p_off[i] - ref_b.p_off[i])
        for name, got, a, b in (("delta_cum_rate", d_rate, ref_a.cum_rate[i], ref_b.cum_rate[i]),
                                ("delta_cum_risk", d_risk, ref_a.cum_risk[i], ref_b.cum_risk[i])):
            scale = max(abs(a), abs(b))
            close_abs(f"{name} at t={t}", got, a - b, REL_TOL * scale)


def check_antisymmetric(rows_ab, rows_ba) -> None:
    """compare(a, b) is exactly compare(b, a) with every delta negated."""
    exact("antisymmetry length", len(rows_ab), len(rows_ba))
    for ab, ba in zip(rows_ab, rows_ba):
        exact("antisymmetry step", ab[:2], ba[:2])
        exact(f"compare(a, b) == -compare(b, a) at t={ab[0]}", tuple(ab[2:]), tuple(-v for v in ba[2:]))


def parse_csv_rows(document: str, columns: tuple, comment_ok: bool = False) -> list:
    """Parse an emitted CSV back with the stdlib: ints, strings and doubles."""
    lines = document.splitlines()
    if comment_ok and lines and lines[0].startswith("#"):
        lines = lines[1:]
    reader = csv.reader(lines)
    header = next(reader, None)
    exact("CSV header", tuple(header or ()), columns)
    rows = []
    for cells in reader:
        exact("CSV row width", len(cells), len(columns))
        rows.append((int(cells[0]), cells[1], *(float(cell) for cell in cells[2:])))
    return rows


def parse_json_rows(document: str, columns: tuple) -> list:
    """Parse an emitted JSON document's ``steps`` back with the stdlib."""
    try:
        payload = json.loads(document, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"emitted JSON does not parse: {exc}") from None
    rows = []
    for step in payload["steps"]:
        exact("JSON keys", tuple(step), columns)
        rows.append(tuple(step[name] for name in columns))
    return rows


def _reject_constant(name: str):
    raise CheckFailed(f"emitted JSON holds {name}, which JSON does not define")


def check_roundtrip(what: str, parsed_rows, rows) -> None:
    """Parsed-back values are exactly the doubles the program held."""
    exact(f"{what} round trip length", len(parsed_rows), len(rows))
    for parsed, held in zip(parsed_rows, rows):
        exact(f"{what} round trip at t={held[0]}", tuple(parsed), tuple(held))


def check_rejection(exc, expected_line: int, error_type: type) -> None:
    """A malformed document was refused with the package's error at its line."""
    if exc is None:
        raise CheckFailed(f"malformed document accepted; expected a rejection at line {expected_line}")
    if not isinstance(exc, error_type):
        raise CheckFailed(f"malformed document raised {type(exc).__name__}, not {error_type.__name__}: {exc}")
    exact("rejected line", getattr(exc, "line", None), expected_line)


def check_conditional_text(text: str, want: float) -> None:
    """`conditional` prints one number with six decimals."""
    try:
        got = float(text.strip())
    except ValueError:
        raise CheckFailed(f"conditional output is not a number: {text!r}") from None
    close_abs("conditional risk", got, want, CONDITIONAL_TEXT_TOL)


def check_counts(red_counts, n: int, p_red, k_sigma: float, what: str = "simulation") -> None:
    """Counts of RED bulbs per step: within n, nondecreasing, near n * p_red.

    The bound is k_sigma binomial standard deviations plus one count for
    the discreteness of small counts.
    """
    exact(f"{what} steps", len(red_counts), len(p_red))
    nondecreasing(f"{what} red count", red_counts)
    for t, (red, p) in enumerate(zip(red_counts, p_red), start=1):
        if not 0 <= red <= n:
            raise CheckFailed(f"{what}: red count {red} outside 0..{n} at step {t}")
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(red - n * p) > k_sigma * sigma + 1.0:
            raise CheckFailed(
                f"{what}: red count {red} at step {t} is {abs(red - n * p) / max(sigma, 1e-300):.1f} "
                f"sigma from the reference {n * p:.1f} (bound {k_sigma} sigma)"
            )


def check_off_red(off_counts, red_counts, n: int) -> None:
    for t, (off, red) in enumerate(zip(off_counts, red_counts), start=1):
        if off + red != n:
            raise CheckFailed(f"off + red = {off} + {red} != {n} at step {t}")
