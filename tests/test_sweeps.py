import json
import math
import struct
import tracemalloc
from decimal import ROUND_HALF_EVEN, Context, Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import finite_floats, linspace

from cohdet import (
    CSV_HEADER,
    DegenerateScenarioError,
    DomainError,
    ScenarioParams,
    SweepSpec,
    bound_report,
    qod_advantage,
    render_csv,
    render_json,
    spade_advantage,
    sweep_rows,
)
import cohdet.sweeps
from cohdet.sweeps import SweepRow, _blocks, format_sig, stream_sweep

COLUMNS = CSV_HEADER.split(",")

_NINE_DIGITS = Context(prec=9, rounding=ROUND_HALF_EVEN)
_EXACT = Context(prec=400, rounding=ROUND_HALF_EVEN)  # every digit of a .Nf token of a double


def exact_sig(x):
    """format_sig's rule from the exact binary value of x: the decade e of its
    9-significant-digit rounding (half-even), then x rounded half-even to
    max(8 - e, 0) decimals; nan, the infinities and both zeros as format_sig."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.00000000"
    exact = Decimal(x)
    decade = _NINE_DIGITS.plus(exact).adjusted()
    return format(exact.quantize(Decimal(1).scaleb(-max(8 - decade, 0)), context=_EXACT), "f")


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestFormatSig:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0.00000000"),
            (-0.0, "0.00000000"),
            (1.0, "1.00000000"),
            (0.5, "0.500000000"),
            (-0.5, "-0.500000000"),
            (2.0 / 3.0, "0.666666667"),
            (3.726653172e-06, "0.00000372665317"),
            (0.9999999996, "1.00000000"),
            (123456789.123, "123456789"),
            # From 1e9 up, x rounded half-even to an integer, every digit printed.
            (999999999.5, "1000000000"),
            (-123456789012.5, "-123456789012"),
            (4e12, "4000000000000"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (float("nan"), "nan"),
            pytest.param(-math.nan, "nan", id="-nan-nan"),  # the sign bit is set
        ],
    )
    def test_tokens(self, value, expected):
        assert format_sig(value) == expected

    def test_never_uses_exponent_notation(self):
        for exp in range(-12, 10):
            token = format_sig(3.14159 * 10.0**exp)
            assert "e" not in token and "E" not in token

    @pytest.mark.parametrize(
        "value,digits",
        [
            (1e-314, "100000000"),  # 9.99999999984653e-315 rounds up into the next decade
            (1.000000003e-315, "100000000"),
            (-1e-314, "100000000"),
            (5e-324, "494065646"),
            (2.2250738585072009e-308, "222507386"),  # the largest subnormal
            (2.2250738585072014e-308, "222507386"),  # the smallest normal
        ],
    )
    def test_subnormals_keep_nine_digits(self, value, digits):
        token = format_sig(value)
        mantissa, exponent = f"{value:.8e}".split("e")
        assert token.lstrip("-0.") == digits == mantissa.lstrip("-").replace(".", "")
        assert float(token) == float(f"{value:.8e}")
        assert token.startswith("-") is (value < 0)
        # The last printed digit sits 8 decades below the leading one.
        assert len(token.split(".")[1]) == 8 - int(exponent)

    @given(st.integers(1, 2**52 - 1), st.booleans())
    def test_every_subnormal_prints_its_nine_digit_rounding(self, bits, negative):
        value = math.ldexp(bits, -1074) * (-1.0 if negative else 1.0)
        mantissa, exponent = f"{value:.8e}".split("e")
        token = format_sig(value)
        assert token.lstrip("-0.") == mantissa.lstrip("-").replace(".", "")
        assert len(token.split(".")[1]) == 8 - int(exponent)

    def test_equals_the_exact_rule_next_to_every_decade_and_rounding_edge(self):
        # 20 ulps either side of 10**e and of 9.999999995 * 10**(e-1), the
        # point where a 9-digit rounding crosses into the next decade, for
        # every decade a double has, both signs: 103576 values (those below
        # the smallest subnormal fall away).
        checked, wrong = 0, []
        for e in range(-323, 309):
            for anchor in (float(f"1e{e}"), float(f"9.999999995e{e - 1}")):
                bits = _bits(anchor)
                for b in range(max(bits - 20, 0), bits + 21):
                    for x in (_double(b), -_double(b)):
                        checked += 1
                        if format_sig(x) != exact_sig(x):
                            wrong.append(x)
        assert checked == 103576
        assert wrong == []

    @given(st.integers(0, 2**64 - 1))
    @example(0x7FEFFFFFFFFFFFFF)  # the largest double
    @example(0x0010000000000000)  # the smallest normal
    @example(0x44B52D02C7E14AF6)  # 1e23, just below 10**23
    def test_equals_the_exact_rule_on_any_bit_pattern(self, bits):
        x = _double(bits)
        assert format_sig(x) == exact_sig(x)


class TestSweepSpec:
    def test_grid_endpoints_are_exact(self):
        spec = SweepSpec(0.0, 5.0, 11, 0.0, 1.0, 5)
        assert spec.k_values()[0] == 0.0 and spec.k_values()[-1] == 5.0
        assert spec.p_values() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_point_ranges_allowed(self):
        spec = SweepSpec(1.0, 1.0, 1, 0.5, 0.5, 1)
        assert spec.k_values() == [1.0] and spec.p_values() == [0.5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_min=0.0, k_max=1.0, k_steps=1, p_min=0.0, p_max=1.0, p_steps=2),
            dict(k_min=-1.0, k_max=1.0, k_steps=3, p_min=0.0, p_max=1.0, p_steps=2),
            dict(k_min=0.0, k_max=1.0, k_steps=2, p_min=0.0, p_max=1.5, p_steps=2),
            dict(k_min=0.0, k_max=1.0, k_steps=2, p_min=0.0, p_max=1.0, p_steps=2, gamma=1.5),
            dict(k_min=1.0, k_max=0.0, k_steps=2, p_min=0.0, p_max=1.0, p_steps=2),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(DomainError):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("k_min, k_max, k_steps", [
        (1.0, 1.0, 1), (0.0, 5.0, 2), (0.0, 5.0, 3), (0.1, 7.3, 101), (1e-8, 4.0, 1000),
        (0.0, 5.0, 12345), (2.5, 2.5, 7),
    ])
    def test_streamed_separations_are_the_listed_ones(self, k_min, k_max, k_steps):
        spec = SweepSpec(k_min, k_max, k_steps, 0.0, 1.0, 2)
        streamed = [block[0] for block in _blocks(spec)]
        assert streamed == spec.k_values() == linspace(k_min, k_max, k_steps)
        assert streamed[-1] == k_max

    def test_stream_holds_no_list_of_separations(self):
        spec = SweepSpec(0.0, 5.0, 10**6, 0.0, 1.0, 2)
        tracemalloc.start()
        try:
            chunks = stream_sweep(spec)
            assert next(chunks) == CSV_HEADER + "\n"
            next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSweepRows:
    def test_row_major_order_and_count(self):
        spec = SweepSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
        rows = sweep_rows(spec)
        assert len(rows) == 4
        assert [(r.k, r.p) for r in rows] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_values_match_direct_evaluation(self):
        spec = SweepSpec(2.0, 2.0, 1, 0.5, 0.5, 1)
        row = sweep_rows(spec)[0]
        params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
        assert row.delta == params.delta
        assert row.a_qod == qod_advantage(params)
        assert row.useless is False and not row.degenerate

    def test_degenerate_points_are_flagged_not_fatal(self):
        spec = SweepSpec(0.0, 1.0, 2, 0.0, 1.0, 3, gamma=1.0, theta=math.pi)
        rows = sweep_rows(spec)
        flagged = [r for r in rows if r.degenerate]
        assert len(flagged) == 3  # every prior at k = 0
        assert all(r.k == 0.0 for r in flagged)
        assert all(r.o_err is None and r.useless is None for r in flagged)
        healthy = [r for r in rows if not r.degenerate]
        assert all(r.o_err is not None for r in healthy)

    def test_incoherent_useless_region_is_two_thirds(self):
        spec = SweepSpec(1.0, 1.0, 1, 0.0, 1.0, 21)
        for row in sweep_rows(spec):
            assert row.useless is (row.p > 2.0 / 3.0 or row.p == 0.0)


class TestRendering:
    def test_csv_header_and_shape(self):
        spec = SweepSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
        text = render_csv(sweep_rows(spec))
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
        assert len(lines) == 6 and lines[-1] == ""  # header + 4 rows + final LF
        assert text.endswith("\n") and "\r" not in text

    def test_csv_is_deterministic(self):
        spec = SweepSpec(0.0, 3.0, 7, 0.1, 0.9, 5, gamma=0.9, theta=math.pi / 3)
        assert render_csv(sweep_rows(spec)) == render_csv(sweep_rows(spec))

    def test_degenerate_cells_render_as_sentinel(self):
        spec = SweepSpec(0.0, 0.0, 1, 0.5, 0.5, 1, gamma=1.0, theta=math.pi)
        line = render_csv(sweep_rows(spec)).split("\n")[1]
        fields = line.split(",")
        assert fields[-1] == "degenerate"
        assert fields[4:10] == [""] * 6

    def test_json_rendering_parses(self):
        spec = SweepSpec(0.0, 1.0, 2, 0.4, 0.6, 2)
        payload = json.loads(render_json(sweep_rows(spec)))
        assert len(payload) == 4
        assert payload[0]["k"] == 0.0
        assert payload[0]["useless"] is True  # coincident sources
        assert set(payload[0]) == set(CSV_HEADER.split(","))


@st.composite
def _axis(draw, lo, hi):
    """MIN, MAX, STEPS of one sweep axis, at most 7 steps."""
    a, b = sorted((draw(finite_floats(lo, hi)), draw(finite_floats(lo, hi))))
    steps = draw(st.integers(1, 7))
    return (a, a, steps) if steps == 1 else (a, b, steps)


@st.composite
def sweep_specs(draw):
    """Grids of at most 7x7 over k in [0, 12], any coherence, any finite
    phase; a third of them at the singular coherence gamma=1, theta=pi."""
    k_axis = draw(_axis(0.0, 12.0))
    if draw(st.integers(0, 2)) == 0:
        k_min, k_max, k_steps = k_axis
        k_axis = (0.0, 0.0 if k_steps == 1 else k_max, k_steps)
        gamma, theta = 1.0, math.pi
    else:
        gamma = draw(finite_floats(0.0, 1.0))
        theta = draw(st.floats(allow_nan=False, allow_infinity=False))
    return SweepSpec(*k_axis, *draw(_axis(0.0, 1.0)), gamma=gamma, theta=theta)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _reference_csv(rows):
    lines = [CSV_HEADER]
    for row in rows:
        cells = ["" if value is None else format_sig(value) for value in row[:10]]
        cells.append("degenerate" if row.degenerate else str(row.useless).lower())
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_json(rows):
    entries = []
    for row in rows:
        parts = [
            f'"{name}": ' + ("null" if value is None or not math.isfinite(value) else format_sig(value))
            for name, value in zip(COLUMNS, row[:10])
        ]
        parts.append('"useless": ' + ('"degenerate"' if row.degenerate else str(row.useless).lower()))
        entries.append("  {" + ", ".join(parts) + "}")
    return "[\n" + ",\n".join(entries) + "\n]\n"


class TestFastPath:
    """sweep_rows hoists the kernel out of the prior loop; every row must
    equal the scalar path's results, and the renderers, which format the
    values a grid repeats once, must equal a cell-by-cell format_sig rendering."""

    @given(sweep_specs())
    @example(SweepSpec(0.0, 1e-3, 3, 0.0, 1.0, 7, gamma=1.0, theta=math.pi))
    @example(SweepSpec(0.0, 12.0, 7, 0.0, 1.0, 7, gamma=0.4, theta=-7.0))
    def test_rows_equal_scalar_path(self, spec):
        rows = sweep_rows(spec)
        assert [(row.k, row.p) for row in rows] == [
            (k, p) for k in spec.k_values() for p in spec.p_values()
        ]
        for row in rows:
            try:
                params = ScenarioParams(k=row.k, gamma=spec.gamma, theta=spec.theta, p=row.p)
            except DegenerateScenarioError:
                assert row == SweepRow(row.k, row.p, spec.gamma, spec.theta, *[None] * 7, True)
                continue
            report = bound_report(params)
            assert row == SweepRow(
                row.k, row.p, spec.gamma, spec.theta, params.delta,
                report.o_err, report.d_err, report.a_qod,
                params._record[8], spade_advantage(params),
                report.useless, False,
            )

    @given(sweep_specs())
    @example(SweepSpec(0.0, 1e-3, 3, 0.0, 1.0, 7, gamma=1.0, theta=math.pi))
    @example(SweepSpec(10.0, 12.0, 3, 1e-300, 1e-300, 1, gamma=0.4, theta=1.0))
    @example(SweepSpec(0.5, 4.0, 5, 0.3, 0.3, 1, gamma=0.9, theta=math.pi))
    # Each reuse of a token: the useless tail (o_err = d_err, a_qod = 1), the
    # p <= 1/2 half (a_d = 1/r11), and a run of inf (CSV) and null (JSON).
    @example(SweepSpec(0.1, 0.3, 3, 0.0, 1.0, 41, gamma=0.9, theta=math.pi))
    @example(SweepSpec(1.0, 4.0, 4, 0.0, 0.5, 26, gamma=0.3, theta=1.0))
    @example(SweepSpec(1e-160, 1e-160, 1, 0.1, 0.9, 5, gamma=1.0, theta=math.pi))
    def test_rendering_equals_cell_by_cell_format_sig(self, spec):
        rows = sweep_rows(spec)
        csv, text = _reference_csv(rows), _reference_json(rows)
        assert render_csv(rows) == csv
        assert render_json(rows) == text
        assert len(json.loads(text, parse_constant=_reject_constant)) == len(rows)
        # The CLI's path: computed and rendered one separation at a time.
        assert "".join(stream_sweep(spec)) == csv
        assert "".join(stream_sweep(spec, as_json=True)) == text

    def test_stream_yields_one_chunk_per_separation(self):
        spec = SweepSpec(0.0, 1.0, 3, 0.0, 1.0, 4, gamma=1.0, theta=math.pi)
        chunks = list(stream_sweep(spec))
        assert chunks[0] == CSV_HEADER + "\n" and chunks[-1] == ""
        assert [chunk.count("\n") for chunk in chunks[1:-1]] == [4, 4, 4]
        assert chunks[1].endswith(",degenerate\n")  # k = 0 is the singular point here

    def test_rendering_outgrows_the_memo(self):
        # A map of many thousand distinct values, each rendered as format_sig
        # renders it, and equal to the streamed text.
        spec = SweepSpec(0.0, 5.0, 81, 0.0, 1.0, 81, gamma=0.9, theta=2.0)
        rows = sweep_rows(spec)
        distinct = {value for row in rows for value in row[:10] if value is not None}
        assert len(distinct) > 12_000
        assert render_csv(rows) == _reference_csv(rows) == "".join(stream_sweep(spec))
        assert render_json(rows) == _reference_json(rows)

    def test_at_most_three_formatted_values_per_cell(self, monkeypatch):
        # The golden map formats 4.06 values per cell when every result is
        # formatted, and 2.91 with the repeats reused.
        calls = []

        def counted(x):
            calls.append(x)
            return format_sig(x)

        monkeypatch.setattr(cohdet.sweeps, "format_sig", counted)
        spec = SweepSpec(0.0, 5.0, 101, 0.0, 1.0, 101, gamma=0.1, theta=0.0)
        cells = 101 * 101
        "".join(stream_sweep(spec))
        assert len(calls) <= 3 * cells
        calls.clear()
        render_csv(sweep_rows(spec))
        assert len(calls) <= 3 * cells

    def test_hand_built_rows_with_empty_results(self):
        # Complete hand-built rows render cell by cell, inf and nan included
        # (null in JSON).  A None in a numeric field of a row that is not
        # degenerate, a row sweep_rows never makes, raises TypeError.
        rows = [
            SweepRow(1.0, 0.25, 0.3, 0.0, 0.9, math.inf, 0.25, math.nan, 0.1, math.inf, False),
            SweepRow(1.0, 0.75, 0.3, 0.0, 0.9, 0.25, 0.25, 1.0, math.nan, math.inf, True),
            SweepRow(2.0, 0.25, 0.3, 0.0, 0.5, 0.1, 0.25, 2.0, 0.05, math.nan, False),
            SweepRow(2.0, 0.75, 0.3, 0.0, 0.5, math.nan, 0.25, math.inf, math.inf, 4.0, True),
        ]
        assert render_csv(rows) == _reference_csv(rows) == (
            CSV_HEADER + "\n"
            "1.00000000,0.250000000,0.300000000,0.00000000,0.900000000,inf,0.250000000,nan,0.100000000,inf,false\n"
            "1.00000000,0.750000000,0.300000000,0.00000000,0.900000000,0.250000000,0.250000000,1.00000000,nan,inf,true\n"
            "2.00000000,0.250000000,0.300000000,0.00000000,0.500000000,0.100000000,0.250000000,2.00000000,0.0500000000,nan,false\n"
            "2.00000000,0.750000000,0.300000000,0.00000000,0.500000000,nan,0.250000000,inf,inf,4.00000000,true\n"
        )
        text = render_json(rows)
        assert text == _reference_json(rows)
        payload = json.loads(text, parse_constant=_reject_constant)
        assert [row["a_d"] for row in payload] == [None, None, None, 4.0]
        for i, row in enumerate(rows):
            for field in SweepRow._fields[4:11]:
                broken = [*rows[:i], row._replace(**{field: None}), *rows[i + 1:]]
                with pytest.raises(TypeError):
                    render_csv(broken)
                with pytest.raises(TypeError):
                    render_json(broken)

    def test_each_block_prints_its_own_d_err(self):
        # Hand-built blocks with equal priors and different d_err: the d_err
        # tokens are reused only where the d_err values repeat.
        rows = [
            SweepRow(1.0, 0.25, 0.3, 0.0, 0.9, 0.1, 0.25, 2.5, 0.05, 5.0, False),
            SweepRow(1.0, 0.75, 0.3, 0.0, 0.9, 0.25, 0.25, 1.0, 0.2, 1.25, True),
            SweepRow(2.0, 0.25, 0.3, 0.0, 0.5, 0.2, 0.2, 1.0, 0.05, 4.0, True),
            SweepRow(2.0, 0.75, 0.3, 0.0, 0.5, 0.1, 0.3, 3.0, 0.2, 1.5, False),
            SweepRow(3.0, 0.25, 0.3, 0.0, 0.4, 0.2, 0.2, 1.0, 0.05, 4.0, True),
            SweepRow(3.0, 0.75, 0.3, 0.0, 0.4, 0.1, 0.3, 3.0, 0.2, 1.5, False),
        ]
        csv = render_csv(rows)
        assert [line.split(",")[5:7] for line in csv.split("\n")[1:-1]] == [
            ["0.100000000", "0.250000000"], ["0.250000000", "0.250000000"],
            ["0.200000000", "0.200000000"], ["0.100000000", "0.300000000"],
            ["0.200000000", "0.200000000"], ["0.100000000", "0.300000000"],
        ]
        assert csv == _reference_csv(rows)
        assert render_json(rows) == _reference_json(rows)

    def test_reused_non_finite_tokens(self):
        # At k = 1e-160 next to delta*c = -1 every a_qod and a_d is inf.
        spec = SweepSpec(1e-160, 1e-160, 1, 0.1, 0.9, 5, gamma=1.0, theta=math.pi)
        cells = [line.split(",") for line in "".join(stream_sweep(spec)).split("\n")[1:-1]]
        assert [(cell[7], cell[9]) for cell in cells] == [("inf", "inf")] * 5
        payload = json.loads("".join(stream_sweep(spec, as_json=True)), parse_constant=_reject_constant)
        assert [(row["a_qod"], row["a_d"]) for row in payload] == [(None, None)] * 5

    def test_json_prints_non_finite_as_null(self):
        # At k = 1e-160 next to delta*c = -1, 1 + delta*c = k**2/8 is subnormal
        # and the exact a_qod, about 3e321, exceeds the largest double.
        rows = sweep_rows(SweepSpec(1e-160, 1e-160, 1, 0.5, 0.5, 1, gamma=1.0, theta=math.pi))
        assert rows[0].a_qod == math.inf
        assert render_csv(rows).split("\n")[1].split(",")[7] == "inf"
        assert json.loads(render_json(rows), parse_constant=_reject_constant)[0]["a_qod"] is None
