"""Deterministic parameter sweeps with a stable text representation.

Rows are produced in row-major order (separation outer, prior inner) and
every number is rendered as a fixed 9-significant-digit decimal without
exponent notation, so identical sweep specs yield byte-identical output
suitable for golden-file regression tests.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError
from .kernel import (
    _TWO_PI, _pair_terms, _prior_terms, _require_count, _require_gamma, _require_normalizable,
    _require_phase, effective_coherence, overlap,
)

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS: tuple[str, ...] = tuple(CSV_HEADER.split(","))

#: The numeric columns lead both COLUMNS and SweepRow's fields.
_NUMERIC = len(COLUMNS) - 1
_JSON_KEYS = tuple(f'"{name}": ' for name in COLUMNS)

#: Sentinel placed in the `useless` column of rows that hit the singular
#: parameter point; their numeric result columns stay empty.
DEGENERATE_SENTINEL = "degenerate"


def format_sig(x: float) -> str:
    """Fixed decimal with 9 significant digits and no exponent notation."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.00000000"
    exponent = math.floor(math.log10(abs(x)))
    for _ in range(2):
        decimals = max(8 - exponent, 0)
        text = f"{x:.{decimals}f}"
        rounded = abs(float(text))
        new_exponent = math.floor(math.log10(rounded)) if rounded > 0.0 else exponent
        if new_exponent == exponent:
            break
        # Rounding crossed into the next decade (e.g. 0.9999999996 -> 1.0).
        exponent = new_exponent
    return text


#: Tokens a rendering's memo holds before it starts afresh: what a grid repeats
#: (axes, d_err, a few k rows' results) in a small, fixed memory footprint.
_MEMO_SIZE = 4096


def formatter(as_json: bool = False) -> Callable[[object], str]:
    """The token function of one rendering (sweep CSV or JSON, `bound`):
    format_sig, run once per distinct number among the last few thousand,
    as a grid repeats most of its values; None is an empty cell and a
    non-finite number stays as it is, except in JSON, which has no token
    for either and gets null."""
    memo: dict[float, str] = {}
    missing = "null" if as_json else ""

    def token(value: object) -> str:
        if value is None:
            return missing
        if value is True or value is False:
            return "true" if value else "false"
        text = memo.get(value)
        if text is None:
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            text = memo[value] = missing if as_json and not math.isfinite(value) else format_sig(value)
        return text

    return token


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values[-1] = hi
    return values


@dataclass(frozen=True)
class SweepSpec:
    """Rectangular (k, p) grid at fixed coherence."""

    k_min: float
    k_max: float
    k_steps: int
    p_min: float
    p_max: float
    p_steps: int
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name, lo, hi, steps in (
            ("k", self.k_min, self.k_max, self.k_steps),
            ("p", self.p_min, self.p_max, self.p_steps),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"invalid {name} range [{lo!r}, {hi!r}]")
            _require_count(steps, 2 if lo < hi else 1, f"{name}_steps must be >= 2 for a true interval")
        if self.k_min < 0.0:
            raise DomainError(f"k range must be nonnegative, got min {self.k_min!r}")
        if self.p_min < 0.0 or self.p_max > 1.0:
            raise DomainError(f"p range must lie in [0, 1], got [{self.p_min!r}, {self.p_max!r}]")
        _require_gamma(self.gamma)
        _require_phase(self.theta)

    def k_values(self) -> list[float]:
        return _linspace(self.k_min, self.k_max, self.k_steps)

    def p_values(self) -> list[float]:
        return _linspace(self.p_min, self.p_max, self.p_steps)


class SweepRow(NamedTuple):
    """Results at one grid point; the result fields are None on the
    degenerate parameter set."""

    k: float
    p: float
    gamma: float
    theta: float
    delta: float | None = None
    o_err: float | None = None
    d_err: float | None = None
    a_qod: float | None = None
    p_err_spade: float | None = None
    a_d: float | None = None
    useless: bool | None = None
    degenerate: bool = False


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """All grid points of `spec` in row-major order (k outer, p inner).

    The kernel's first half runs once per separation, its second half once
    per cell.  The spec is valid, so only the singular point is checked."""
    gamma, theta = spec.gamma, spec.theta
    c = effective_coherence(gamma, theta % _TWO_PI)
    ps = spec.p_values()
    rows: list[SweepRow] = []
    for k in spec.k_values():
        delta = overlap(k)
        try:
            _require_normalizable(delta, c)
        except DegenerateScenarioError:
            rows.extend(SweepRow(k, p, gamma, theta, degenerate=True) for p in ps)
            continue
        pair = _pair_terms(delta, c)
        rows.extend(SweepRow(k, p, gamma, theta, delta, *_prior_terms(pair, p)) for p in ps)
    return rows


def _cells(row: SweepRow, token: Callable[[object], str], sentinel: str) -> list[str]:
    cells = [token(value) for value in row[:_NUMERIC]]
    cells.append(sentinel if row.degenerate else token(row.useless))
    return cells


def render_csv(rows: list[SweepRow]) -> str:
    """UTF-8/LF CSV text; no field ever needs quoting."""
    token = formatter()
    lines = [CSV_HEADER]
    lines.extend(",".join(_cells(row, token, DEGENERATE_SENTINEL)) for row in rows)
    lines.append("")  # the final LF, without copying the text once more
    return "\n".join(lines)


def render_json(rows: list[SweepRow]) -> str:
    """JSON array of row objects using the same fixed decimal tokens as the
    CSV rendering (strings for the sentinel column, numbers elsewhere, null
    for an empty or non-finite value)."""
    token = formatter(as_json=True)
    sentinel = f'"{DEGENERATE_SENTINEL}"'
    entries = [
        "  {" + ", ".join(map(str.__add__, _JSON_KEYS, _cells(row, token, sentinel))) + "}"
        for row in rows
    ]
    return "".join(("[\n", ",\n".join(entries), "\n]\n"))
