"""Deterministic parameter sweeps with a stable text representation.

Rows are produced in row-major order (separation outer, prior inner) and
every number is rendered by `format_sig`, 9 significant digits as a plain
decimal without exponent notation (every integer digit from 10**9 up), so
identical sweep specs yield byte-identical output suitable for golden-file
regression tests.

`stream_sweep` runs the kernel and renders as it goes, one chunk of text per
separation, so a sweep writes in the memory of one grid row of priors;
`sweep_rows` with `render_csv` or `render_json` gives the same text from a
list of rows, each holding a number in every numeric field unless degenerate.
Both render through `_render`, the one renderer, which formats a value once
where the grid repeats it exactly: p once per spec, d_err once per run of
equal values, k and delta once per separation, and o_err, a_qod and a_d not
where they repeat d_err or the previous cell's value: the golden map formats
2.9 values per cell for its 10 numeric columns.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError
from .kernel import (
    _TWO_PI, _pair_terms, _prior_terms, _Record, _require_count, _require_gamma, _require_phase,
    _separation_terms,
)

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS: tuple[str, ...] = tuple(CSV_HEADER.split(","))

#: Sentinel placed in the `useless` column of rows that hit the singular
#: parameter point; their numeric result columns stay empty.
DEGENERATE_SENTINEL = "degenerate"

#: The most priors a sweep takes: its spec holds one row of them, at a peak of some
#: 1.3 KiB per prior in CSV and 1.6 KiB in JSON; more are a DomainError.
MAX_PRIORS = 10**5

_MAX_FINITE = sys.float_info.max

#: The format spec of each decade e a double can round into: the decimals
#: that leave 9 significant digits, and none from 10**8 up.
_SPEC = {e: f".{8 - e}f" if e < 8 else ".0f" for e in range(-324, 310)}


def format_sig(x: float) -> str:
    """x as a plain decimal with no exponent, rounded half-even from its exact
    binary value to max(8 - e, 0) decimals, where e is the decade the rounded
    value falls in: 9 significant digits below 10**9, and from there up x
    rounded to an integer with every digit printed (4e12 prints as
    4000000000000).  Zero prints as 0.00000000, and nan and the infinities as
    Python prints them: nan, inf and -inf."""
    magnitude = abs(x)
    if 0.0 < magnitude <= _MAX_FINITE:
        exponent = math.floor(math.log10(magnitude))
        text = f"{x:{_SPEC[exponent]}}"
        # The token sits in the next decade only if its rounding crossed into
        # it (0.9999999996 -> 1.000000000) or log10 undershot, and the text
        # alone tells: below 1, the first significant place then holds a 0;
        # from 1 to 10**8, the unsigned token has 11 characters, not 10; from
        # 10**8 up, both decades print no decimals.
        if exponent < 0:
            if text[1 - exponent + (x < 0.0)] != "0":
                return text
        elif exponent >= 8 or len(text) - (x < 0.0) == 10:
            return text
        return f"{x:{_SPEC[exponent + 1]}}"
    if x == 0.0:
        return "0.00000000"
    return f"{x}"


def _json_number(x: float) -> str:
    """format_sig, or null for a non-finite x, which JSON has no token for."""
    return format_sig(x) if math.isfinite(x) else "null"


def _linspace(lo: float, hi: float, n: int) -> Iterator[float]:
    """n evenly spaced values from lo to hi, one at a time; the last is hi.
    n - 1 must convert to a double, as `SweepSpec` checks."""
    gaps = float(n - 1)
    for i in range(n - 1):
        yield lo + (hi - lo) * i / gaps
    yield hi


class SweepSpec(_Record):
    """Rectangular (k, p) grid at fixed coherence, checked whole when built.
    _c (c as `ScenarioParams` forms it) and _ps (the priors) serve every k."""

    _fields = ("k_min", "k_max", "k_steps", "p_min", "p_max", "p_steps", "gamma", "theta")
    __slots__ = (*_fields, "_c", "_ps")

    def __init__(
        self, k_min: float, k_max: float, k_steps: int, p_min: float, p_max: float, p_steps: int,
        gamma: float = 0.0, theta: float = 0.0,
    ) -> None:
        counts = []
        for name, lo, hi, steps in (("k", k_min, k_max, k_steps), ("p", p_min, p_max, p_steps)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"invalid {name} range [{lo!r}, {hi!r}]")
            counts.append(_require_count(
                steps, 2 if lo < hi else 1, f"{name}_steps must be >= 2 for a true interval"))
        k_steps, p_steps = counts
        if k_min < 0.0:
            raise DomainError(f"k range must be nonnegative, got min {k_min!r}")
        if p_min < 0.0 or p_max > 1.0:
            raise DomainError(f"p range must lie in [0, 1], got [{p_min!r}, {p_max!r}]")
        _require_gamma(gamma)
        _require_phase(theta)
        for lo, hi, steps in (k_min, k_max, k_steps), (p_min, p_max, p_steps):
            try:  # a count beyond a double has no spacing
                float(steps - 1)
            except OverflowError:
                raise DomainError(f"range {lo!r}:{hi!r} has too many steps for a floating-point spacing"
                                  " (about 1.8e308 at most)") from None
        if p_steps > MAX_PRIORS:
            raise DomainError(f"p_steps must be at most {MAX_PRIORS}, got {p_steps}")
        c, ps = gamma * math.cos(theta % _TWO_PI), tuple(_linspace(p_min, p_max, p_steps))
        values = k_min, k_max, k_steps, p_min, p_max, p_steps, gamma, theta, c, ps
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


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
    or records None on the singular point, the one check left to a sweep.
    The kernel's first half runs once per k, its second half once per cell."""
    gamma, theta, c, ps = spec.gamma, spec.theta, spec._c, spec._ps
    # Each k from its index, so a sweep holds no list of its separations.
    for k in _linspace(spec.k_min, spec.k_max, spec.k_steps):
        delta, dm = _separation_terms(k)
        try:
            pair = _pair_terms(delta, dm, c)
        except DegenerateScenarioError:
            yield k, gamma, theta, None, ps, None
            continue
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


def _render(blocks: Iterable[tuple], as_json: bool) -> Iterator[str]:
    """The text of a sweep, one chunk per block, every number formatted by
    format_sig, or in JSON by `_json_number`; a None result in a block that
    is not degenerate raises TypeError.

    Each value is formatted once where the grid repeats it: k and delta once
    per block; p once per run of blocks with equal priors and d_err once per
    run with equal d_err values, each every block of a spec; o_err not at all
    where it equals d_err (the useless region); a_qod and a_d only where they
    differ from the previous cell's (a_qod = 1 across the useless region,
    a_d = 1/r11 for every p < 1/2).  Equal floats print equal tokens, -0.0
    and 0.0 included, and NaN equals nothing, so the text is that of
    formatting every value."""
    number = _json_number if as_json else format_sig
    opening, before, end, sep, closing = _JSON if as_json else _CSV
    b_k, b_p, b_gamma, b_theta, b_delta, b_o, b_d, b_a, b_pe, b_ad, b_u = before
    missing = "null" if as_json else ""
    sentinel = f'"{DEGENERATE_SENTINEL}"' if as_json else DEGENERATE_SENTINEL
    no_results = "".join(f"{b}{missing}" for b in (b_o, b_d, b_a, b_pe, b_ad)) + f"{b_u}{sentinel}{end}"
    useless_ends = f"{b_u}false{end}", f"{b_u}true{end}"
    yield opening
    lead = ""  # what goes before a block: sep, from the second block on
    last_ps = p_tokens = last_ds = d_cells = None
    last_a = last_ad = math.nan  # the previous cell's a_qod and a_d
    for k, gamma, theta, delta, ps, records in blocks:
        if ps != last_ps:
            last_ps, p_tokens = ps, [number(p) for p in ps]
        head = f"{b_k}{number(k)}{b_p}"
        coherence = f"{b_gamma}{number(gamma)}{b_theta}{number(theta)}{b_delta}"
        if records is None:
            tail = f"{coherence}{missing}{no_results}"
            lines = [f"{head}{p}{tail}" for p in p_tokens]
        else:
            ds = [r[6] for r in records]
            if ds != last_ds:
                last_ds, d_cells = ds, [(d, t, f"{b_d}{t}{b_a}") for d, t in zip(ds, map(number, ds))]
            mid = f"{coherence}{number(delta)}{b_o}"
            lines = []
            for p, (d_err, d_token, d_cell), r in zip(p_tokens, d_cells, records):
                if r[7] != last_a:
                    last_a, a_cell = r[7], f"{number(r[7])}{b_pe}"
                if r[9] != last_ad:
                    last_ad, ad_cell = r[9], f"{b_ad}{number(r[9])}"
                o_token = d_token if r[5] == d_err else number(r[5])
                lines.append(
                    f"{head}{p}{mid}{o_token}{d_cell}{a_cell}{number(r[8])}{ad_cell}{useless_ends[r[10]]}")
        yield lead + sep.join(lines)
        lead = sep
    yield closing


def stream_sweep(spec: SweepSpec, as_json: bool = False) -> Iterator[str]:
    """The CSV or JSON text of `spec`, one chunk per separation as it is
    computed; the spec was checked whole when built, so no chunk is refused."""
    return _render(_blocks(spec), as_json)


def render_csv(rows: Iterable[SweepRow]) -> str:
    """UTF-8/LF CSV text; no field ever needs quoting.  A None in a numeric
    field of a row that is not degenerate raises TypeError."""
    return "".join(_render(_row_blocks(rows), False))


def render_json(rows: Iterable[SweepRow]) -> str:
    """JSON array of row objects using the same fixed decimal tokens as the
    CSV rendering (strings for the sentinel column, numbers elsewhere, null
    for a degenerate row's results and a non-finite value); a None in a
    numeric field of a row that is not degenerate raises TypeError."""
    return "".join(_render(_row_blocks(rows), True))
