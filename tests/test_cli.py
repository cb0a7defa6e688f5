import json
import math

import pytest

from cohdet.cli import main


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

    def test_json_format(self, capsys):
        code, out, err = run_cli(
            capsys, "spade", "--k-range", "2:2:1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["a_d"] == pytest.approx(1.46211716, abs=1e-6)
        assert payload[0]["a_qod"] == pytest.approx(1.65983382, abs=1e-6)


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

    def test_coarse_grid_fails(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--grid-points", "101")
        assert code == 5
        assert "FAIL" in out
