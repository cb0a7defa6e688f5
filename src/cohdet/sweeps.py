"""Deterministic parameter sweeps with a stable text representation.

Rows are produced in row-major order (separation outer, prior inner) and
every number is rendered as a fixed 9-significant-digit decimal without
exponent notation, so identical sweep specs yield byte-identical output
suitable for golden-file regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateScenarioError, DomainError
from .helstrom import bound_report
from .spade import spade_advantage, spade_error
from .states import ScenarioParams

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS: tuple[str, ...] = tuple(CSV_HEADER.split(","))

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
            if int(steps) != steps or steps < 1 or (lo < hi and steps < 2):
                raise DomainError(f"{name}_steps must be >= 2 for a true interval, got {steps!r}")
        if self.k_min < 0.0:
            raise DomainError(f"k range must be nonnegative, got min {self.k_min!r}")
        if self.p_min < 0.0 or self.p_max > 1.0:
            raise DomainError(f"p range must lie in [0, 1], got [{self.p_min!r}, {self.p_max!r}]")
        if not math.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")

    def k_values(self) -> list[float]:
        return _linspace(self.k_min, self.k_max, self.k_steps)

    def p_values(self) -> list[float]:
        return _linspace(self.p_min, self.p_max, self.p_steps)


@dataclass(frozen=True)
class SweepRow:
    """Results at one grid point; numeric fields are None on the
    degenerate parameter set."""

    k: float
    p: float
    gamma: float
    theta: float
    delta: float | None
    o_err: float | None
    d_err: float | None
    a_qod: float | None
    p_err_spade: float | None
    a_d: float | None
    useless: bool | None
    degenerate: bool = False


def sweep_row(k: float, p: float, gamma: float, theta: float) -> SweepRow:
    """Evaluate every output quantity at a single grid point."""
    try:
        params = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p)
    except DegenerateScenarioError:
        return SweepRow(k, p, gamma, theta, None, None, None, None, None, None, None, True)
    report = bound_report(params)
    return SweepRow(
        k=k,
        p=p,
        gamma=gamma,
        theta=theta,
        delta=params.delta,
        o_err=report.o_err,
        d_err=report.d_err,
        a_qod=report.a_qod,
        p_err_spade=spade_error(params.delta, params.c, p),
        a_d=spade_advantage(params),
        useless=report.useless,
        degenerate=False,
    )


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """All grid points of `spec` in row-major order (k outer, p inner)."""
    return [
        sweep_row(k, p, spec.gamma, spec.theta)
        for k in spec.k_values()
        for p in spec.p_values()
    ]


def _cell(row: SweepRow, column: str) -> str:
    if column == "useless":
        if row.degenerate:
            return DEGENERATE_SENTINEL
        return "true" if row.useless else "false"
    value = getattr(row, column)
    if value is None:
        return ""
    return format_sig(value)


def render_csv(rows: list[SweepRow]) -> str:
    """UTF-8/LF CSV text; no field ever needs quoting."""
    lines = [CSV_HEADER]
    lines.extend(",".join(_cell(row, name) for name in COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(rows: list[SweepRow]) -> str:
    """JSON array of row objects using the same fixed decimal tokens as the
    CSV rendering (strings for the sentinel column, numbers elsewhere)."""
    entries = []
    for row in rows:
        parts = []
        for name in COLUMNS:
            if name == "useless":
                if row.degenerate:
                    parts.append(f'"useless": "{DEGENERATE_SENTINEL}"')
                else:
                    parts.append(f'"useless": {"true" if row.useless else "false"}')
                continue
            value = getattr(row, name)
            parts.append(f'"{name}": null' if value is None else f'"{name}": {format_sig(value)}')
        entries.append("  {" + ", ".join(parts) + "}")
    return "[\n" + ",\n".join(entries) + "\n]\n"
