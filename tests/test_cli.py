import importlib
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import ROOT, python_env, run_in_process, run_python

import cohdet
import cohdet.cli
from cohdet.cli import main
from cohdet.kernel import BoundReport

#: What the installed `cohdet` console script runs.
ENTRY = "import sys; from cohdet.cli import main; sys.exit(main())"

#: The refusal of a step count beyond a double, for the range 0:1.
SPACING = "range 0.0:1.0 has too many steps for a floating-point spacing (about 1.8e308 at most)"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text):
    """json.loads that also rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_text_report(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--k", "2", "--gamma", "0", "--theta", "0", "--p", "0.5"
        )
        assert code == 0
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        assert record["delta"] == "0.606530660"
        assert record["o_err"] == "0.301234976"
        assert record["d_err"] == "0.500000000"
        assert record["a_qod"] == "1.65983382"
        assert record["p_star"] == "0.666666667"
        assert record["useless"] == "false"

    def test_json_report(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--k", "0", "--gamma", "0.1", "--theta", "0", "--p", "0.5",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["a_qod"] == 1.0
        assert record["useless"] is True

    def test_near_degenerate_but_valid(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--k", "1", "--gamma", "1", "--theta", "3.14159265", "--p", "0.5",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert all(math.isfinite(v) for k, v in record.items() if isinstance(v, float))

    def test_next_to_singular_point(self):
        result = run_python("-c", ENTRY, "bound", "--k", "0.01", "--gamma", "1", "--theta-pi", "1")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "o_err = " in result.stdout

    # At k = 1e-160 next to delta*c = -1, 1 + delta*c = k**2/8 is subnormal:
    # the exact N (4e320) and a_qod (3e321) exceed the largest double.
    NON_FINITE = ("bound", "--k", "1e-160", "--gamma", "1", "--theta-pi", "1")

    def test_json_prints_non_finite_as_null(self, capsys):
        code, out, err = run_cli(capsys, *self.NON_FINITE, "--format", "json")
        assert code == 0
        record = strict_json(out)
        assert record["normalization"] is None and record["a_qod"] is None
        assert record["useless"] is False

    def test_text_keeps_inf(self, capsys):
        code, out, err = run_cli(capsys, *self.NON_FINITE)
        assert code == 0
        assert "normalization = inf\n" in out and "a_qod = inf\n" in out

    def test_degenerate_scenario_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--k", "0", "--gamma", "1", "--theta-pi", "1")
        assert code == 3
        assert "not normalizable" in err

    def test_invalid_value_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--k", "-1")
        assert code == 2

    def test_unparsable_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--k", "not-a-number"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_json_keys_are_the_report_fields(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--k", "1.3", "--gamma", "0.4", "--theta", "2", "--p", "0.6",
            "--format", "json",
        )
        assert code == 0
        assert tuple(strict_json(out)) == ("k", "gamma", "theta", "p") + BoundReport._fields

    def test_theta_pi_matches_radians(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "bound", "--k", "1", "--gamma", "0.9", "--theta-pi", "0.5")
        code_b, out_b, _ = run_cli(
            capsys, "bound", "--k", "1", "--gamma", "0.9", "--theta", str(math.pi / 2)
        )
        assert code_a == code_b == 0
        assert out_a == out_b


class TestSweepCommands:
    def test_advantage_map_to_file(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        code, out, err = run_cli(
            capsys, "advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:2",
            "--output", str(target),
        )
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,p,gamma,theta,delta,o_err,d_err,a_qod,p_err_spade,a_d,useless"
        assert len(lines) == 5  # header + 2x2 grid

    def test_incoherent_map_marks_two_thirds_region(self, capsys):
        code, out, err = run_cli(
            capsys, "advantage-map", "--k-range", "1:1:1", "--p-range", "0.1:0.9:9"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            p, useless = float(fields[1]), fields[-1]
            assert useless == ("true" if p > 2.0 / 3.0 else "false")

    def test_degenerate_rows_do_not_fail_command(self, capsys):
        code, out, err = run_cli(
            capsys, "advantage-map", "--gamma", "1", "--theta-pi", "1",
            "--k-range", "0:1:2", "--p-range", "0:1:2",
        )
        assert code == 0
        degenerate_rows = [line for line in out.splitlines() if line.endswith("degenerate")]
        assert len(degenerate_rows) == 2

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:2",
            "--output", str(tmp_path / "missing" / "map.csv"),
        )
        assert code == 4

    def test_unwritable_output_exits_4_before_computing(self, capsys, tmp_path, monkeypatch):
        started = []

        def stream(spec, as_json):
            started.append(spec)
            yield "never written"

        monkeypatch.setattr(cohdet.cli, "stream_sweep", stream)
        target = tmp_path / "missing" / "map.csv"
        code, out, err = run_cli(
            capsys, "advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:2", "--output", str(target))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert started == [] and not target.exists()  # the stream was made, never run

    def test_bad_range_with_output_exits_2_and_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        code, out, err = run_cli(
            capsys, "advantage-map", "--k-range", "0:1:1", "--p-range", "0:1:2", "--output", str(target))
        assert (code, out) == (2, "")
        assert err == "error: k_steps must be >= 2 for a true interval, got 1\n"
        assert not target.exists()

    def test_write_error_mid_stream_exits_4_and_keeps_partial_file(self, tmp_path):
        # A file size limit makes the write fail after the first 64 KiB.
        target = tmp_path / "map.csv"
        argv = ["advantage-map", "--k-range", "0:5:101", "--p-range", "0:1:101", "--output", str(target)]
        code = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))\n"
            "from cohdet.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 4, result.stderr
        assert result.stderr.startswith(f"error: cannot write {target}: [Errno 27] ")
        assert result.stderr.count("\n") == 1 and result.stdout == ""
        complete = run_python("-c", ENTRY, *argv[:-2]).stdout
        partial = target.read_text(encoding="utf-8")
        assert 0 < len(partial) <= 65536 < len(complete)
        assert complete.startswith(partial)

    @pytest.mark.parametrize("argv", [
        ["advantage-map", "--k-range", f"0:1:{10**400}", "--p-range", "0:1:2"],
        ["advantage-map", "--k-range", "0:1:2", "--p-range", f"0:1:{10**400}"],
        ["spade", "--k-range", f"0:1:{10**400}"],
    ], ids=["map-k", "map-p", "spade-k"])
    def test_step_count_beyond_a_double_exits_2(self, argv):
        # refused when the spec is built, before any output, and without the count's 401 digits
        result = run_python("-c", ENTRY, *argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {SPACING}\n"

    @pytest.mark.parametrize("p_steps", ["100001", "100000000"])
    def test_more_priors_than_a_row_holds_exit_2(self, capsys, p_steps):
        # refused when the spec is built, before any output or row of priors
        code, out, err = run_cli(capsys, "advantage-map", "--k-range", "0:1:2", "--p-range", f"0:1:{p_steps}")
        assert (code, out) == (2, "")
        assert err == f"error: p_steps must be at most 100000, got {p_steps}\n"

    #: Each way a sweep's flags are refused, with the error that names it.
    REFUSALS = {
        "k-reversed": (["advantage-map", "--k-range", "1:0:2", "--p-range", "0:1:2"], "invalid k range [1.0, 0.0]"),
        "k-negative": (["advantage-map", "--k-range=-1:1:2", "--p-range", "0:1:2"],
                       "k range must be nonnegative, got min -1.0"),
        "k-one-step": (["spade", "--k-range", "0:1:1"], "k_steps must be >= 2 for a true interval, got 1"),
        "p-outside": (["advantage-map", "--k-range", "0:1:2", "--p-range", "0:2:3"],
                      "p range must lie in [0, 1], got [0.0, 2.0]"),
        "spade-p": (["spade", "--k-range", "0:1:2", "--p", "2"], "p range must lie in [0, 1], got [2.0, 2.0]"),
        "gamma": (["advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:2", "--gamma", "1.5"],
                  "coherence strength gamma must lie in [0, 1], got 1.5"),
        "theta": (["spade", "--k-range", "0:1:2", "--theta", "inf"], "coherence phase theta must be finite, got inf"),
        "map-k-beyond-a-double": (["advantage-map", "--k-range", f"0:1:{10**400}", "--p-range", "0:1:2"], SPACING),
        "map-p-beyond-a-double": (["advantage-map", "--k-range", "0:1:2", "--p-range", f"0:1:{10**400}"], SPACING),
        "spade-k-beyond-a-double": (["spade", "--k-range", f"0:1:{10**400}"], SPACING),
        "too-many-priors": (["advantage-map", "--k-range", "0:1:2", "--p-range", "0:1:100001"],
                            "p_steps must be at most 100000, got 100001"),
    }

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_every_refusal_comes_before_any_output(self, capsys, tmp_path, case, fmt, to_file):
        argv, message = self.REFUSALS[case]
        target = tmp_path / f"sweep.{fmt}"
        code, out, err = run_cli(capsys, *argv, "--format", fmt, *(["--output", str(target)] if to_file else []))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not target.exists()

    def test_spade_rows_per_separation(self, capsys):
        code, out, err = run_cli(
            capsys, "spade", "--k-range", "0:5:6", "--gamma", "0.9", "--theta-pi", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0.00000000"
        assert first[7] == "1.00000000" and first[9] == "1.00000000"  # a_qod = a_d = 1 at k = 0

    def test_spade_next_to_singular_point(self):
        result = run_python(
            "-c", ENTRY, "spade", "--gamma", "1", "--theta-pi", "1", "--k-range", "0:5:501"
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        rows = result.stdout.splitlines()[1:]
        assert len(rows) == 501
        assert rows[0].endswith(",degenerate")
        assert not any(row.endswith("degenerate") for row in rows[1:])

    @pytest.mark.parametrize("flags", [("--gamma", "2"), ("--theta", "inf")])
    def test_bad_coherence_words_as_bound_does(self, capsys, flags):
        errors = set()
        for argv in (("bound", "--k", "1"), ("spade", "--k-range", "0:1:3"),
                     ("advantage-map", "--k-range", "0:1:3", "--p-range", "0:1:3")):
            code, out, err = run_cli(capsys, *argv, *flags)
            assert (code, out) == (2, "")
            errors.add(err)
        assert len(errors) == 1, errors

    def test_json_format(self, capsys):
        code, out, err = run_cli(
            capsys, "spade", "--k-range", "2:2:1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["a_d"] == pytest.approx(1.46211716, abs=1e-6)
        assert payload[0]["a_qod"] == pytest.approx(1.65983382, abs=1e-6)


class TestTokens:
    """`bound` and the sweeps print a scenario's numbers with the same tokens."""

    # (k, gamma, theta_pi, p); at k = 1e-160 next to delta*c = -1, a_qod is inf.
    POINTS = [
        ("2", "0", "0", "0.5"), ("1.3", "0.4", "0.7", "0.6"), ("0.5", "0.9", "1", "0.9"),
        ("0", "0.1", "0", "0.5"), ("1e-160", "1", "1", "0.5"), ("3", "0.8", "-1.5", "0.05"),
    ]
    #: theta is left out: bound prints it reduced to [0, 2*pi), the sweeps as given.
    SHARED = ("delta", "o_err", "d_err", "a_qod", "useless")

    def _tokens(self, capsys, *argv):
        """The SHARED tokens of one bound record or one-row sweep, as printed."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        if argv[-1] == "json":
            pairs = (part.split(": ") for part in out.strip("[]{}\n ").split(", "))
            record = {key.strip('"'): token for key, token in pairs}
        elif argv[0] == "bound":
            record = dict(line.split(" = ") for line in out.splitlines())
        else:
            record = dict(zip(*(line.split(",") for line in out.splitlines())))
        return [record[key] for key in self.SHARED]

    @pytest.mark.parametrize("k, gamma, theta_pi, p", POINTS)
    def test_bound_prints_the_sweep_tokens(self, capsys, k, gamma, theta_pi, p):
        coherence = ("--gamma", gamma, "--theta-pi", theta_pi)
        bound = ("bound", "--k", k, *coherence, "--p", p)
        amap = ("advantage-map", "--k-range", f"{k}:{k}:1", "--p-range", f"{p}:{p}:1", *coherence)
        text = self._tokens(capsys, *bound)
        assert text == self._tokens(capsys, *amap)
        as_json = self._tokens(capsys, *bound, "--format", "json")
        assert as_json == self._tokens(capsys, *amap, "--format", "json")
        if k == "1e-160":
            assert (text[3], as_json[3]) == ("inf", "null")


class TestStdoutErrors:
    """A stdout that cannot be written exits 4 with one error line, from every
    subcommand, and nothing more is printed at shutdown."""

    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("bound", "--help"),
        ("bound", "--k", "1", "--format", "json"),
        ("spade", "--k-range", "0:5:11"),
        ("advantage-map", "--k-range", "0:5:101", "--p-range", "0:1:101", "--format", "json"),
        ("verify", "--grid-points", "1001"),
    ])
    def test_full_device_exits_4(self, argv):
        with open("/dev/full", "w") as full:
            result = run_python("-c", ENTRY, *argv, stdout=full)
        assert result.returncode == 4
        assert result.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"

    def test_reader_closing_early_exits_4(self):
        process = subprocess.Popen(
            [sys.executable, "-c", ENTRY, "advantage-map", "--k-range", "0:5:201", "--p-range", "0:1:201"],
            env=python_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert process.stdout.readline().startswith("k,p,gamma")
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) == 4
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


class TestSimulate:
    def test_matches_binomial_oracle(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--k", "2", "--gamma", "0", "--theta", "0", "--p", "0.5",
            "--photons", "1000000", "--seed", "42",
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["z_score"]) <= 3.0
        assert record["n_trials"] == 1000000

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--k", "1", "--gamma", "0.5", "--theta-pi", "1",
                "--p", "0.4", "--photons", "20000", "--seed", "9")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_prior_zero_never_errs(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--k", "1", "--p", "0", "--photons", "5000")
        assert code == 0
        assert json.loads(out)["error_rate"] == 0.0

    def test_epsilon_reports_attempts(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--k", "1", "--photons", "5000", "--seed", "3",
            "--epsilon", "0.05",
        )
        assert code == 0
        record = json.loads(out)
        assert record["n_attempts"] > record["n_trials"]

    def test_degenerate_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--k", "0", "--gamma", "1", "--theta-pi", "1", "--photons", "10"
        )
        assert code == 3

    @pytest.mark.parametrize("photons", ["1e4", "10000.0"])
    def test_photons_accepts_integral_floats(self, capsys, photons):
        args = ("simulate", "--k", "1", "--seed", "4")
        code, out, _ = run_cli(capsys, *args, "--photons", photons)
        assert code == 0
        assert json.loads(out)["n_trials"] == 10000
        assert out == run_cli(capsys, *args, "--photons", "10000")[1]

    @pytest.mark.parametrize("photons", ["1.5", "many", "nan", "inf"])
    def test_photons_rejects_non_integral_values(self, photons):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--k", "1", "--photons", photons])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "photons, epsilon", [("1000", "1e-16"), ("1", "1e-300"), ("1e7", "1e-12")]
    )
    def test_epsilon_too_small_for_photons_exits_2(self, photons, epsilon):
        result = run_python(
            "-c", ENTRY, "simulate", "--k", "1", "--photons", photons, "--epsilon", epsilon
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: epsilon ") and result.stderr.count("\n") == 1
        assert result.stdout == ""

    def test_smallest_drawable_epsilon_keeps_its_output(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--k", "1", "--photons", "1000", "--epsilon", "1e-15"
        )
        assert code == 0
        assert out == (
            '{"n_trials": 1000, "n_errors": 430, "error_rate": 0.430000000, '
            '"std_err": 0.0157143861, "analytic_p_err": 0.444700196, '
            '"z_score": -0.935461025, "n_attempts": 972119723739581416}\n'
        )

    def test_zero_photons_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--k", "1", "--photons", "0")
        assert code == 2
        assert "n_photons" in err


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        assert out.strip().endswith("verify: PASS")
        assert "overlap max abs error" in out

    @pytest.mark.parametrize("points", ["1001", "4001", "8001"])
    def test_stdout_is_pinned(self, capsys, points):
        # few-ulp maxima: a changed bit anywhere in the oracle changes a token
        code, out, err = run_cli(capsys, "verify", "--grid-points", points)
        assert (code, err) == (0, "")
        assert out == (
            "overlap max abs error = 0.000000000000000555111512\n"
            "rho2 max abs error = 0.00000000000000111022302\n"
            "helstrom max abs error = 0.000000000000000527355937\n"
            "tolerance = 0.00000100000000\n"
            "verify: PASS\n"
        )

    def test_coarse_grid_fails(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--grid-points", "101")
        assert code == 5
        assert "FAIL" in out

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_too_few_grid_points_exit_2(self, capsys, points):
        code, out, err = run_cli(capsys, "verify", "--grid-points", points)
        assert code == 2
        assert out == ""
        assert err == f"error: n_points must be an integer >= 2, got {int(points)}\n"

    def test_grid_too_large_for_a_float_spacing_exits_2(self):
        # refused from the count alone: a count this large cannot even give a spacing
        points = "1" + "0" * 310
        result = run_python("-c", ENTRY, "verify", "--grid-points", points)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: n_points too large for a floating-point grid spacing (about 1.8e308 at most)\n")

    def test_grid_too_large_to_hold_exits_2(self):
        # accurate enough, but refused before any of its 10**9 points is built
        result = run_python("-c", ENTRY, "verify", "--grid-points", "1000000000")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: n_points must be at most 1000000, got 1000000000\n"

    def test_one_point_too_many_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--grid-points", "1000001")
        assert code == 2
        assert out == ""
        assert err == "error: n_points must be at most 1000000, got 1000001\n"


class TestStartup:
    #: cohdet.__all__.
    NAMES = {
        "CSV_HEADER", "CohdetError", "DegenerateScenarioError", "DomainError", "GridAccuracyError",
        "Observable2", "ScenarioParams", "SpatialGrid", "SweepSpec", "TrialConfig", "bound_report",
        "equivalence_report", "grid_helstrom", "grid_overlap", "grid_rho2", "helstrom_bound",
        "lambda_matrix", "overlap", "qod_advantage", "render_csv", "render_json", "rho2",
        "run_simulation", "spade_advantage", "sweep_rows",
    }

    #: Names dropped from the package namespace, by the module that keeps them.
    MODULE_ONLY = {
        "kernel": ("BoundReport",),
        "montecarlo": ("EmpiricalResult",),
        "oracle": ("VerificationReport", "psf_state"),
        "sweeps": ("SweepRow", "format_sig"),
    }

    #: Names deleted outright; in_useless_region was a second definition of "useless",
    #: DensityMatrix2 a second 2x2 record whose checks only the oracle needs, and
    #: eigenvalues_sym2, normalization, rho1 and useless_boundary second routes to
    #: values that bound_report gives (and rho1 the constant Observable2(1.0, 0.0, 0.0)),
    #: formatter a second token path beside format_sig and the JSON null,
    #: _admissible_pair a second checked (delta, c) entry beside rho2,
    #: effective_coherence a second definition of c, of the unreduced phase, and
    #: spade_error a second route to the p_err_spade that every record holds.
    DELETED = ("DensityMatrix2", "GridState", "IDENTITY_TOL", "_admissible_pair", "direct_error",
               "effective_coherence", "eigenvalues_sym2", "formatter", "in_useless_region",
               "normalization", "rho1", "spade_error", "sweep_row", "trace_norm", "useless_boundary")

    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys, cohdet\n"
            "print(sorted(m for m in sys.modules if m.startswith(('cohdet', 'numpy'))))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['cohdet']\n"

    def test_bound_does_not_load_numpy(self):
        code = (
            "import sys, cohdet, cohdet.cli\n"
            "code = cohdet.cli.main(['bound', '--k', '1.3', '--gamma', '0.4', '--format', 'json'])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_verify_does_not_load_numpy(self):
        code = (
            "import sys, cohdet.cli, cohdet.oracle\n"
            "code = cohdet.cli.main(['verify'])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_cli_import_skips_dataclasses(self):
        # decimal and fractions too: exact arithmetic belongs to the tests and to lazy fallbacks.
        skipped = "{'dataclasses', 'decimal', 'fractions', 'inspect'}"
        code = f"import sys, cohdet.cli, cohdet.oracle\nprint(sorted({skipped} & set(sys.modules)))\n"
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
        # numpy itself imports inspect, so only dataclasses is checked for the numpy-backed module.
        code = "import sys, cohdet.montecarlo\nprint('dataclasses' in sys.modules)\n"
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_map_memory_does_not_grow_with_the_grid(self):
        # Peak RSS of a fresh process that writes a map to /dev/null, in KiB (Linux).
        def peak(steps):
            code = (
                "import resource, sys\n"
                "from cohdet.cli import main\n"
                f"code = main(['advantage-map', '--k-range', '0:5:{steps}', '--p-range', '0:1:{steps}'])\n"
                "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            )
            result = run_python("-c", code, stdout=subprocess.DEVNULL)
            code, kib = map(int, result.stderr.split())
            assert code == 0
            return kib

        assert peak(301) - peak(101) < 10 * 1024

    def test_every_public_name_resolves(self):
        assert set(cohdet.__all__) == self.NAMES
        assert len(cohdet.__all__) == 25
        for name in cohdet.__all__:
            assert getattr(cohdet, name) is not None
        from cohdet import TrialConfig, grid_rho2
        from cohdet.montecarlo import TrialConfig as direct_config
        from cohdet.oracle import grid_rho2 as direct_grid_rho2

        assert TrialConfig is direct_config and grid_rho2 is direct_grid_rho2

    @pytest.mark.parametrize("module", ["helstrom", "spade", "states"])
    def test_kernel_modules_folded_into_one(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"cohdet.{module}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            cohdet.sweep_row

    def test_removed_names_live_only_in_their_modules(self):
        for module, names in self.MODULE_ONLY.items():
            for name in names:
                with pytest.raises(AttributeError):
                    getattr(cohdet, name)
                assert getattr(importlib.import_module(f"cohdet.{module}"), name) is not None
        for name in self.DELETED:
            with pytest.raises(AttributeError):
                getattr(cohdet, name)
            for module in ("kernel", "oracle", "sweeps"):
                assert not hasattr(importlib.import_module(f"cohdet.{module}"), name)


#: Flag values a user can type that sit on or beyond an edge of the domain.
EDGE_NUMBERS = ("nan", "inf", "-inf", "1e-300", "1e300", "-0", "0", "1", "-1", "0.5", "2", "x")


def _number(lo, hi):
    """Mostly values in [lo, hi], then tiny positive ones, then edge spellings."""
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False).map(repr)
    tiny = st.integers(1, 300).map(lambda e: f"1e-{e}")
    return st.one_of(inside, inside, tiny, st.sampled_from(EDGE_NUMBERS))


def _range(lo, hi):
    """MIN:MAX:STEPS with at most 7 steps, bad counts included."""
    steps = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(("1.5", "", "nan")))
    return st.tuples(_number(lo, hi), _number(lo, hi), steps).map(":".join)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


_PHASE = st.one_of(
    st.just([]),
    _number(-20.0, 20.0).map(lambda v: ["--theta", v]),
    _number(-3.0, 3.0).map(lambda v: ["--theta-pi", v]),
)
_COHERENCE = st.tuples(_flag("--gamma", _number(0.0, 1.0)), _PHASE).map(lambda t: t[0] + t[1])
_K = _number(0.0, 12.0).map(lambda v: ["--k", v])
_P = _flag("--p", _number(0.0, 1.0))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [arg for part in ps for arg in part])


CLI_ARGV = st.one_of(
    _argv("bound", _K, _COHERENCE, _P, _flag("--format", st.sampled_from(("text", "json")))),
    _argv(
        "advantage-map", _COHERENCE, st.tuples(st.just("--k-range"), _range(0.0, 12.0)),
        st.tuples(st.just("--p-range"), _range(0.0, 1.0)),
        _flag("--format", st.sampled_from(("csv", "json"))),
    ),
    _argv(
        "spade", _COHERENCE, st.tuples(st.just("--k-range"), _range(0.0, 12.0)), _P,
        _flag("--format", st.sampled_from(("csv", "json"))),
    ),
    _argv(
        "simulate", _K, _COHERENCE, _P,
        st.tuples(st.just("--photons"), st.one_of(
            st.integers(-2, 10**4).map(str), st.sampled_from(("1e4", "1.5", "nan", "-0")))),
        _flag("--seed", st.one_of(st.integers(-2, 2**40).map(str), st.just("1.5"))),
        _flag("--epsilon", _number(0.0, 0.1)),
    ),
    _argv("verify", st.tuples(st.just("--grid-points"), st.integers(-5, 1000).map(str))),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(CLI_ARGV)
    @example(["verify"])
    @example(["simulate", "--k", "1", "--photons", "1000", "--epsilon", "1e-16"])
    @example(["bound", "--k", "1e300", "--gamma", "1", "--theta-pi", "1", "--p", "1e-300",
              "--format", "json"])
    def test_every_argv_exits_cleanly(self, argv):
        code, out, err = run_in_process(argv)
        if code is None:
            return
        assert code in (0, 2, 3, 4, 5), (argv, code)
        if code in (2, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if out and (argv[0] == "simulate" or "json" in argv):
            strict_json(out)
