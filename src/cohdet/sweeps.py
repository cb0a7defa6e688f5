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
Both render through `_render`, the one renderer, which formats each block as
one run of `_format_run`, the one token path, and a value the grid repeats
exactly once: p, gamma and theta once per spec, d_err once per run of equal
values, k and delta once per separation, and o_err not where it equals d_err:
the golden map converts 2.90 values per cell for its 10 numeric columns.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError
from .kernel import (
    _pair_terms, _prior_terms, _Record, _require_count, _require_gamma, _require_phase, _require_prior,
    _require_separation, _require_spacing, _separation_terms,
)

CSV_HEADER = "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
COLUMNS: tuple[str, ...] = tuple(CSV_HEADER.split(","))

#: Sentinel placed in the `useless` column of rows that hit the singular
#: parameter point; their numeric result columns stay empty.
DEGENERATE_SENTINEL = "degenerate"

#: The most priors a sweep takes: its spec holds one row of them, at a peak of some
#: 1.3 KiB per prior in CSV and 1.6 KiB in JSON; more are a DomainError.
MAX_PRIORS = 10**5


def format_sig(x: float) -> str:
    """x as a plain decimal with no exponent, rounded half-even from its exact
    binary value to max(8 - e, 0) decimals, where e is the decade the rounded
    value falls in: 9 significant digits below 10**9, and from there up x
    rounded to an integer with every digit printed (4e12 prints as
    4000000000000).  Zero prints as 0.00000000, and nan and the infinities as
    Python prints them: nan, inf and -inf.  The run of one `_format_run` makes."""
    return _format_run((x,))[0]


def _format_run(values: Iterable[float], as_json: bool = False) -> list[str]:
    """The format_sig token of each value, or in JSON null for a non-finite one.
    A value equal to its neighbour shares its token, and the window of the last
    positive value's decade is carried: a value in it is converted with its spec
    alone.  Zeros, negatives and non-finite values are formatted apart; a None
    raises TypeError at the window's comparison."""
    tokens = []
    prev, lo, hi = math.nan, math.inf, 0.0  # no window carried yet
    for x in values:
        if x != prev:
            prev = x
            if lo <= x < hi:
                token = f"{x:{spec}}"
            elif 0.0 < x < math.inf:
                lo, hi, spec, carry, up = _window(math.floor(math.log10(x)))
                token = f"{x:{spec}}"
                # The token sits in the next decade only if its rounding crossed
                # into it (0.9999999996 -> 1.000000000) or log10 undershot, and the
                # text tells: a 0 holds the first significant place.  log10 overshoots
                # only within 1e-12 below 10**e, which x rounds up to.
                if token[carry] == "0":
                    token = f"{x:{up}}"
            else:
                token = ("0.00000000" if x == 0.0 else "-" + format_sig(-x) if -math.inf < x < 0.0
                         else "null" if as_json else f"{x}")
        tokens.append(token)
    return tokens


@functools.cache
def _window(e: int) -> tuple[float, float, str, int, str]:
    """Decade e's window, from LO[e], the smallest double >= 10**e, up to the
    first double that rounds into decade e + 1 (9.999999995 * 10**e on); its
    spec of max(8 - e, 0) decimals; where its tokens hold their first significant
    digit (0 from 10**8 up: no decimals either side); and decade e + 1's spec."""
    spec = f".{max(8 - e, 0)}f"
    return _least(1, e), _least(9999999995, e - 9), spec, abs(e) + 1 if e < 8 else 0, f".{max(7 - e, 0)}f"


def _least(n: int, e: int) -> float:
    """The smallest double >= n * 10**e (inf past the largest), by exact integer ratios."""
    near = float(f"{n}e{e}")
    a, b = near.as_integer_ratio() if near < math.inf else (1, 0)
    return math.nextafter(near, math.inf) if a * 10 ** max(-e, 0) < n * b * 10 ** max(e, 0) else near


def _linspace(lo: float, hi: float, n: int) -> Iterator[float]:
    """n evenly spaced values from lo to hi, one at a time; the last is hi.
    n - 1 must convert to a double, as `SweepSpec` checks."""
    gaps = float(n - 1)
    for i in range(n - 1):
        yield lo + (hi - lo) * i / gaps
    yield hi


class SweepSpec(_Record):
    """Rectangular (k, p) grid at fixed coherence, checked whole when built.
    Each endpoint meets the check `ScenarioParams` (so `bound`) gives its k or p,
    in its words, then that axis's reversed-range and count checks, k before p;
    gamma, phase, spacing and MAX_PRIORS follow.
    _c (gamma*cos(theta), as in `ScenarioParams`) and _ps (the priors) serve every k."""

    _fields = ("k_min", "k_max", "k_steps", "p_min", "p_max", "p_steps", "gamma", "theta")
    __slots__ = (*_fields, "_c", "_ps")

    def __init__(
        self, k_min: float, k_max: float, k_steps: int, p_min: float, p_max: float, p_steps: int,
        gamma: float = 0.0, theta: float = 0.0,
    ) -> None:
        counts = []
        for name, lo, hi, steps, require in (("k", k_min, k_max, k_steps, _require_separation),
                                             ("p", p_min, p_max, p_steps, _require_prior)):
            require(lo)
            require(hi)
            if lo > hi:
                raise DomainError(f"invalid {name} range [{lo!r}, {hi!r}]")
            counts.append(_require_count(
                steps, 2 if lo < hi else 1, f"{name}_steps must be >= 2 for a true interval"))
        k_steps, p_steps = counts
        _require_gamma(gamma)
        _require_phase(theta)
        for lo, hi, steps in (k_min, k_max, k_steps), (p_min, p_max, p_steps):
            _require_spacing(steps, f"range {lo!r}:{hi!r} has too many steps for a floating-point spacing")
        if p_steps > MAX_PRIORS:
            raise DomainError(f"p_steps must be at most {MAX_PRIORS}, got {p_steps}")
        c, ps = gamma * math.cos(theta), tuple(_linspace(p_min, p_max, p_steps))
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
    """The text of a sweep, one chunk per block; a None result in a block
    that is not degenerate raises TypeError.

    Each block's k, delta and a_qod, p_err_spade and a_d columns are one
    `_format_run`, where a value equal to its neighbour shares its token
    (a_qod = 1 across the useless region, a_d = 1/r11 for every p < 1/2).
    p is formatted once per run of blocks with equal priors, gamma and theta
    once per run with equal coherence, d_err once per run with equal d_err
    values, and o_err not where it equals d_err (the useless region).  Equal
    floats print equal tokens, -0.0 and 0.0 included, and NaN equals
    nothing, so the text is that of formatting every value."""
    opening, before, end, sep, closing = _JSON if as_json else _CSV
    b_k, b_p, b_gamma, b_theta, b_delta, b_o, b_d, b_a, b_pe, b_ad, b_u = before
    missing = "null" if as_json else ""
    sentinel = f'"{DEGENERATE_SENTINEL}"' if as_json else DEGENERATE_SENTINEL
    no_results = "".join(f"{b}{missing}" for b in (b_o, b_d, b_a, b_pe, b_ad)) + f"{b_u}{sentinel}{end}"
    useless_ends = f"{b_u}false{end}", f"{b_u}true{end}"
    yield opening
    lead = ""  # what goes before a block: sep, from the second block on
    last_ps = p_tokens = last_ds = d_tokens = last_coherence = None
    for k, gamma, theta, delta, ps, records in blocks:
        if ps != last_ps:
            last_ps, p_tokens = ps, _format_run(ps, as_json)
        if (gamma, theta) != last_coherence:
            g, t = _format_run((gamma, theta), as_json)
            last_coherence, coherence = (gamma, theta), f"{b_gamma}{g}{b_theta}{t}{b_delta}"
        if records is None:
            head, tail = f"{b_k}{_format_run((k,), as_json)[0]}{b_p}", f"{coherence}{missing}{no_results}"
            lines = [f"{head}{p}{tail}" for p in p_tokens]
        else:
            os, ds, qs, pes, ads, useless = list(zip(*records))[5:11]
            if ds != last_ds:
                last_ds, d_tokens = ds, _format_run(ds, as_json)
            n = len(ds)
            k_token, delta_token, *tokens = _format_run(
                (k, delta, *qs, *pes, *ads, *[o for o, d in zip(os, ds) if o != d]), as_json)
            head, mid = f"{b_k}{k_token}{b_p}", f"{coherence}{delta_token}{b_o}"
            o_tokens = iter(tokens[3 * n:])
            lines = [
                f"{head}{p}{mid}{d_token if o == d else next(o_tokens)}{b_d}{d_token}{b_a}{a}"
                f"{b_pe}{pe}{b_ad}{ad}{useless_ends[u]}"
                for p, o, d, d_token, a, pe, ad, u in zip(
                    p_tokens, os, ds, d_tokens, tokens, tokens[n:], tokens[2 * n:], useless)
            ]
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
