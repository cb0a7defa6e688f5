"""Checks of cohdet's outputs against the reference and against properties
the method must have.

Every check returns a list of problems, each a (kind, detail) pair.  One
kind is a known program fault rather than a benchmark verdict:

  zero-residue  a quantity whose exact value is 0 is printed as a nonzero
                number of at most 1e-15 (the rounding residue that
                0.5*(1 - ||Lambda||_1) leaves at p = 1); its detail is the
                number of such cells
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import Reference

ZERO_RESIDUE = "zero-residue"

#: Largest printed magnitude accepted as rounding residue of an exact 0.
RESIDUE_LIMIT = 1e-15

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS = tuple(CSV_HEADER.split(","))
NUMERIC = COLUMNS[:-1]
_O_ERR, _D_ERR, _A_QOD, _P_ERR, _A_D = (NUMERIC.index(n) for n in
                                        ("o_err", "d_err", "a_qod", "p_err_spade", "a_d"))
_FIRST_RESULT = NUMERIC.index("delta")

#: Numeric fields of `cohdet bound --format json`, in order; `useless` follows.
BOUND_FIELDS = (
    "k", "gamma", "theta", "p", "delta", "normalization",
    "lambda_11", "lambda_12", "lambda_22", "eig_low", "eig_high",
    "o_err", "d_err", "a_qod", "p_star",
)

#: The useless flag is compared with det(Lambda) >= 0 only this far from p*.
BOUNDARY_MARGIN = 1e-6

#: Relative agreement required of in-process scalar results.
SCALAR_RTOL = 1e-9


def sig9_tolerance(ref: float) -> float:
    """Half a unit in the 9th significant digit of `ref`, plus a slack far
    below that for the program's own double rounding."""
    if ref == 0.0 or not math.isfinite(ref):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8) + 1e-12 * abs(ref)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """json.loads that also rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class SweepReference:
    """Reference cells of one sweep, as arrays in the CSV's row order."""

    def __init__(self, refs: list[Reference]) -> None:
        n = len(refs)
        self.values = np.zeros((n, len(NUMERIC)))
        self.zero = np.zeros((n, len(NUMERIC)), dtype=bool)
        self.degenerate = np.array([r.degenerate for r in refs])
        self.useless = np.array([bool(r.useless) for r in refs])
        self.check_useless = np.zeros(n, dtype=bool)
        for i, r in enumerate(refs):
            for j, name in enumerate(NUMERIC):
                if name in r.values:
                    self.values[i, j] = r.values[name]
                    self.zero[i, j] = name in r.zeros
            if not r.degenerate:
                self.check_useless[i] = abs(r.values["p"] - r.values["p_star"]) > BOUNDARY_MARGIN
        magnitude = np.abs(self.values)
        with np.errstate(divide="ignore"):
            exponent = np.floor(np.log10(np.where(magnitude > 0, magnitude, 1.0)))
        # sig9_tolerance, elementwise.
        self.tolerance = np.where(magnitude > 0, 0.5 * 10.0 ** (exponent - 8) + 1e-12 * magnitude, 0.0)

    def __len__(self) -> int:
        return len(self.degenerate)


def _compare_cells(ref: SweepReference, values: np.ndarray, useless: list, degenerate: np.ndarray):
    problems = []
    if not np.array_equal(degenerate, ref.degenerate):
        rows = np.flatnonzero(degenerate != ref.degenerate)
        problems.append(("degenerate", f"{len(rows)} rows flagged wrongly, first row {rows[0]}"))
        return problems
    live = ~ref.degenerate
    vals = values[live]
    want = ref.values[live]
    zero = ref.zero[live]
    if np.isnan(vals).any():
        problems.append(("missing", "empty numeric cell in a non-degenerate row"))
        return problems
    close = np.abs(vals - want) <= ref.tolerance[live]
    residue = zero & (vals != 0.0) & (np.abs(vals) <= RESIDUE_LIMIT)
    wrong = ~close & ~residue
    if wrong.any():
        row, col = np.argwhere(wrong)[0]
        problems.append(("value", f"{int(wrong.sum())} cells off the reference, first "
                                  f"{NUMERIC[col]}={vals[row, col]!r} vs {want[row, col]!r}"))
    if residue.any():
        problems.append((ZERO_RESIDUE, int(residue.sum())))
    residue_rows = residue.any(axis=1)
    order = (vals[:, _O_ERR] <= np.minimum(vals[:, _D_ERR], vals[:, _P_ERR])) & (
        vals[:, _A_D] <= vals[:, _A_QOD])
    if (~order & ~residue_rows).any():
        problems.append(("ordering", "o_err > min(d_err, p_err_spade) or a_d > a_qod"))
    flags = np.array([u for u, d in zip(useless, degenerate) if not d], dtype=bool)
    mismatch = (flags != ref.useless[live]) & ref.check_useless[live]
    if mismatch.any():
        problems.append(("useless", f"{int(mismatch.sum())} rows disagree with det(Lambda) >= 0"))
    return problems


def check_sweep_csv(text: str, ref: SweepReference) -> list:
    if not text.endswith("\n"):
        return [("format", "CSV does not end with a newline")]
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        return [("format", f"header {lines[0]!r}")]
    if len(lines) - 1 != len(ref):
        return [("format", f"{len(lines) - 1} rows, expected {len(ref)}")]
    values = np.full((len(ref), len(NUMERIC)), np.nan)
    degenerate = np.zeros(len(ref), dtype=bool)
    useless = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            return [("format", f"row {i} has {len(cells)} cells")]
        flag = cells[-1]
        degenerate[i] = flag == "degenerate"
        if flag not in ("true", "false", "degenerate"):
            return [("format", f"row {i} useless cell {flag!r}")]
        useless.append(flag == "true")
        for j, cell in enumerate(cells[:-1]):
            if cell:
                values[i, j] = float(cell)
        if degenerate[i] and not np.isnan(values[i, _FIRST_RESULT:]).all():
            return [("format", f"degenerate row {i} has numeric results")]
    return _compare_cells(ref, values, useless, degenerate)


def check_sweep_json(text: str, ref: SweepReference) -> list:
    try:
        rows = strict_json(text)
    except ValueError as exc:
        return [("json", str(exc))]
    if not isinstance(rows, list) or len(rows) != len(ref):
        return [("format", f"expected a list of {len(ref)} rows")]
    values = np.full((len(ref), len(NUMERIC)), np.nan)
    degenerate = np.zeros(len(ref), dtype=bool)
    useless = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or tuple(row) != COLUMNS:
            return [("format", f"row {i} keys {list(row)!r}")]
        flag = row["useless"]
        degenerate[i] = flag == "degenerate"
        if not (isinstance(flag, bool) or degenerate[i]):
            return [("format", f"row {i} useless {flag!r}")]
        useless.append(flag is True)
        for j, name in enumerate(NUMERIC):
            value = row[name]
            if value is not None:
                values[i, j] = value
        if degenerate[i] and not np.isnan(values[i, _FIRST_RESULT:]).all():
            return [("format", f"degenerate row {i} has numeric results")]
    return _compare_cells(ref, values, useless, degenerate)


def _close(value, ref: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= sig9_tolerance(ref)


def check_printed_value(name: str, value, ref: Reference) -> list:
    want = ref.values[name]
    if name in ref.zeros:
        if value == 0:
            return []
        if isinstance(value, (int, float)) and abs(value) <= RESIDUE_LIMIT:
            return [(ZERO_RESIDUE, 1)]
    elif _close(value, want):
        return []
    return [("value", f"{name}={value!r}, reference {want!r}")]


def check_bound(returncode: int, stdout: str, ref: Reference) -> list:
    """`cohdet bound --format json` output for one scenario."""
    if returncode != 0:
        return [("exit", f"exit code {returncode}")]
    try:
        record = strict_json(stdout)
    except ValueError as exc:
        return [("json", str(exc))]
    if tuple(record) != BOUND_FIELDS + ("useless",):
        return [("format", f"keys {list(record)!r}")]
    problems = []
    for name in BOUND_FIELDS:
        problems += check_printed_value(name, record[name], ref)
    if abs(ref.values["p"] - ref.values["p_star"]) > BOUNDARY_MARGIN and record["useless"] != ref.useless:
        problems.append(("useless", f"useless={record['useless']!r}, det(Lambda)={ref.det_lambda!r}"))
    return problems


def check_scenario(o_err: float, d_err: float, a_qod: float, a_d: float, useless: bool,
                   ref: Reference) -> list:
    """In-process scalar results, to SCALAR_RTOL relative."""
    problems = []
    for name, value in (("o_err", o_err), ("d_err", d_err), ("a_qod", a_qod), ("a_d", a_d)):
        want = ref.values[name]
        if not abs(value - want) <= SCALAR_RTOL * abs(want):
            problems.append(("value", f"{name}={value!r}, reference {want!r}"))
    if abs(ref.values["p"] - ref.values["p_star"]) > BOUNDARY_MARGIN and useless != ref.useless:
        problems.append(("useless", f"useless={useless!r}, det(Lambda)={ref.det_lambda!r}"))
    return problems


def check_simulate(returncode: int, stdout: str, n_photons: int, p_err: float,
                   epsilon: float | None) -> tuple[list, tuple | None]:
    """`cohdet simulate` output; also returns the (n_errors, n_attempts)
    pair that a repeated seed must reproduce."""
    try:
        record = strict_json(stdout)
    except ValueError as exc:
        return [("json", f"{exc} (exit code {returncode})")], None
    keys = ("n_trials", "n_errors", "error_rate", "std_err", "analytic_p_err", "z_score")
    if epsilon is not None:
        keys += ("n_attempts",)
    if tuple(record) != keys:
        return [("format", f"keys {list(record)!r}")], None
    n_errors = record["n_errors"]
    problems = []
    if record["n_trials"] != n_photons:
        problems.append(("value", f"n_trials={record['n_trials']!r}"))
    sigma = math.sqrt(n_photons * p_err * (1.0 - p_err))
    if not abs(n_errors - n_photons * p_err) <= 5.0 * sigma:
        problems.append(("statistics", f"n_errors={n_errors} is beyond 5 sigma of "
                                       f"{n_photons * p_err:.1f} +- {sigma:.1f}"))
    std_err = math.sqrt(p_err * (1.0 - p_err) / n_photons)
    z = (n_errors / n_photons - p_err) / std_err
    for name, want in (("error_rate", n_errors / n_photons), ("std_err", std_err),
                       ("analytic_p_err", p_err)):
        if not _close(record[name], want):
            problems.append(("value", f"{name}={record[name]!r}, reference {want!r}"))
    if not abs(record["z_score"] - z) <= sig9_tolerance(z) + 1e-9:
        problems.append(("value", f"z_score={record['z_score']!r}, reference {z!r}"))
    if returncode != (0 if abs(record["z_score"]) <= 3.0 else 5):
        problems.append(("exit", f"exit code {returncode} with z_score {record['z_score']!r}"))
    attempts = record.get("n_attempts")
    if epsilon is not None:
        mean = n_photons / epsilon
        spread = math.sqrt(n_photons * (1.0 - epsilon)) / epsilon
        if not (attempts >= n_photons and abs(attempts - mean) <= 5.0 * spread):
            problems.append(("statistics", f"n_attempts={attempts} vs {mean:.0f} +- {spread:.0f}"))
    return problems, (n_errors, attempts)


VERIFY_LINES = ("overlap max abs error", "rho2 max abs error", "helstrom max abs error",
                "tolerance")

#: The agreement `cohdet verify` promises between grid space and closed form.
VERIFY_TOLERANCE = 1e-6


def check_verify(returncode: int, stdout: str) -> list:
    lines = stdout.splitlines()
    if returncode != 0 or lines[-1:] != ["verify: PASS"]:
        return [("verify", f"exit code {returncode}, last line {lines[-1:]!r}")]
    if len(lines) != len(VERIFY_LINES) + 1:
        return [("format", f"{len(lines)} lines")]
    values = {}
    for label, line in zip(VERIFY_LINES, lines):
        key, sep, value = line.partition(" = ")
        if key != label or not sep:
            return [("format", f"line {line!r}")]
        values[key] = float(value)
    if values["tolerance"] != VERIFY_TOLERANCE:
        return [("value", f"tolerance {values['tolerance']!r}")]
    worst = max(values[label] for label in VERIFY_LINES[:-1])
    if not 0.0 <= worst <= VERIFY_TOLERANCE:
        return [("verify", f"maximum error {worst!r} above the tolerance")]
    return []
