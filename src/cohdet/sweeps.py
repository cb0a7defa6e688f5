"""Deterministic parameter sweeps with a stable text representation.

Rows are produced in row-major order (separation outer, prior inner) and
every number is rendered as a fixed 9-significant-digit decimal without
exponent notation, so identical sweep specs yield byte-identical output
suitable for golden-file regression tests.

`stream_sweep` runs the kernel and renders as it goes, one chunk of text per
separation, so a sweep of any size writes in the memory of one grid row;
`sweep_rows` with `render_csv` or `render_json` gives the same text from a
list of rows.  Both render through `_render`, the one copy of the line layout.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError
from .kernel import (
    _TWO_PI, _pair_terms, _prior_terms, _Record, _require_count, _require_gamma,
    _require_normalizable, _require_phase, effective_coherence, overlap,
)

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS: tuple[str, ...] = tuple(CSV_HEADER.split(","))

#: Sentinel placed in the `useless` column of rows that hit the singular
#: parameter point; their numeric result columns stay empty.
DEGENERATE_SENTINEL = "degenerate"

_MIN_NORMAL = sys.float_info.min


def format_sig(x: float) -> str:
    """Fixed decimal with 9 significant digits and no exponent notation."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    magnitude = abs(x)
    if magnitude < _MIN_NORMAL:
        if x == 0.0:
            return "0.00000000"
        # log10 cannot place a subnormal's decade, and a rounded subnormal
        # does not read back exactly; the exponent of the 9-digit scientific
        # token is the decade after rounding.
        exponent = int(f"{x:.8e}".partition("e")[2])
        return f"{x:.{8 - exponent}f}"
    exponent = math.floor(math.log10(magnitude))
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


class SweepSpec(_Record):
    """Rectangular (k, p) grid at fixed coherence."""

    __slots__ = _fields = ("k_min", "k_max", "k_steps", "p_min", "p_max", "p_steps", "gamma", "theta")

    def __init__(
        self, k_min: float, k_max: float, k_steps: int, p_min: float, p_max: float, p_steps: int,
        gamma: float = 0.0, theta: float = 0.0,
    ) -> None:
        for name, lo, hi, steps in (("k", k_min, k_max, k_steps), ("p", p_min, p_max, p_steps)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"invalid {name} range [{lo!r}, {hi!r}]")
            _require_count(steps, 2 if lo < hi else 1, f"{name}_steps must be >= 2 for a true interval")
        if k_min < 0.0:
            raise DomainError(f"k range must be nonnegative, got min {k_min!r}")
        if p_min < 0.0 or p_max > 1.0:
            raise DomainError(f"p range must lie in [0, 1], got [{p_min!r}, {p_max!r}]")
        _require_gamma(gamma)
        _require_phase(theta)
        values = k_min, k_max, k_steps, p_min, p_max, p_steps, gamma, theta
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def k_values(self) -> list[float]:
        return _linspace(self.k_min, self.k_max, self.k_steps)

    def p_values(self) -> list[float]:
        return _linspace(self.p_min, self.p_max, self.p_steps)


class SweepRow(NamedTuple):
    """Results at one grid point; the result fields are None on the
    degenerate parameter set.  The results sit at the same indices (5 to 10)
    as in `_prior_terms`'s record, so `_render` reads either."""

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


def _blocks(spec: SweepSpec) -> Iterator[tuple]:
    """The sweep's kernel pass, one block per separation: (k, gamma, theta,
    delta, ps, records), with the `_prior_terms` record of each prior in ps,
    or records None on the singular point.  The kernel's first half runs
    once per k, its second half once per cell.  The spec is valid, so only
    the singular point is checked."""
    gamma, theta = spec.gamma, spec.theta
    c = effective_coherence(gamma, theta % _TWO_PI)
    ps = spec.p_values()
    for k in spec.k_values():
        delta = overlap(k)
        try:
            _require_normalizable(delta, c)
        except DegenerateScenarioError:
            yield k, gamma, theta, None, ps, None
            continue
        pair = _pair_terms(delta, c)
        yield k, gamma, theta, delta, ps, [_prior_terms(pair, p) for p in ps]


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """All grid points of `spec` in row-major order (k outer, p inner)."""
    rows: list[SweepRow] = []
    for k, gamma, theta, delta, ps, records in _blocks(spec):
        if records is None:
            rows.extend(SweepRow(k, p, gamma, theta, degenerate=True) for p in ps)
        else:
            # tuple.__new__ skips the NamedTuple's keyword-handling constructor.
            rows.extend(
                tuple.__new__(SweepRow, (k, p, gamma, theta, delta, *record[5:], False))
                for p, record in zip(ps, records)
            )
    return rows


def _row_blocks(rows: Iterable[SweepRow]) -> Iterator[tuple]:
    """`rows` regrouped into the blocks `_blocks` yields, by runs of equal
    (k, gamma, theta, delta, degenerate)."""
    for (k, gamma, theta, delta, degenerate), group in groupby(rows, itemgetter(0, 2, 3, 4, 11)):
        group = list(group)
        yield k, gamma, theta, delta, [row[1] for row in group], None if degenerate else group


#: Per format: what opens the text, the text before each column's token (in
#: COLUMNS order), what ends a line, what separates two lines, what closes the text.
_CSV = CSV_HEADER + "\n", ("",) + (",",) * (len(COLUMNS) - 1), "\n", "", ""
_JSON = (
    "[\n", tuple(f'{", " if i else "  {"}"{name}": ' for i, name in enumerate(COLUMNS)),
    "}", ",\n", "\n]\n",
)
_USELESS = "false", "true"


def _render(blocks: Iterable[tuple], as_json: bool) -> Iterator[str]:
    """The text of a sweep, one chunk per block.  Within a block, k and delta
    are formatted once; the p and d_err tokens once per list of priors, which
    a spec's blocks share; the results once per distinct value, in the memo."""
    token = formatter(as_json)
    opening, before, end, sep, closing = _JSON if as_json else _CSV
    b_k, b_p, b_gamma, b_theta, b_delta, b_o, b_d, b_a, b_pe, b_ad, b_u = before
    missing = token(None)
    sentinel = f'"{DEGENERATE_SENTINEL}"' if as_json else DEGENERATE_SENTINEL
    no_results = "".join(f"{b}{missing}" for b in (b_o, b_d, b_a, b_pe, b_ad)) + f"{b_u}{sentinel}{end}"
    yield opening
    lead = ""  # what goes before a block: sep, from the second block on
    last_ps = p_tokens = d_tokens = None
    for k, gamma, theta, delta, ps, records in blocks:
        if ps is not last_ps:
            last_ps, p_tokens, d_tokens = ps, [token(p) for p in ps], None
        head = f"{b_k}{token(k)}{b_p}"
        coherence = f"{b_gamma}{token(gamma)}{b_theta}{token(theta)}{b_delta}"
        if records is None:
            tail = f"{coherence}{missing}{no_results}"
            lines = [f"{head}{p}{tail}" for p in p_tokens]
        else:
            if d_tokens is None:  # d_err = min(p, 1 - p) depends on the prior alone
                d_tokens = [f"{b_d}{token(record[6])}{b_a}" for record in records]
            mid = f"{coherence}{token(delta)}{b_o}"
            lines = [
                f"{head}{p}{mid}{token(r[5])}{d}{token(r[7])}{b_pe}{token(r[8])}"
                f"{b_ad}{token(r[9])}{b_u}{_USELESS[r[10]]}{end}"
                for p, d, r in zip(p_tokens, d_tokens, records)
            ]
        yield lead + sep.join(lines)
        lead = sep
    yield closing


def stream_sweep(spec: SweepSpec, as_json: bool = False) -> Iterator[str]:
    """The CSV or JSON text of `spec`, computed and rendered one separation
    at a time, so that a caller can write each chunk as it comes."""
    return _render(_blocks(spec), as_json)


def render_csv(rows: Iterable[SweepRow]) -> str:
    """UTF-8/LF CSV text; no field ever needs quoting."""
    return "".join(_render(_row_blocks(rows), as_json=False))


def render_json(rows: Iterable[SweepRow]) -> str:
    """JSON array of row objects using the same fixed decimal tokens as the
    CSV rendering (strings for the sentinel column, numbers elsewhere, null
    for an empty or non-finite value)."""
    return "".join(_render(_row_blocks(rows), as_json=True))
