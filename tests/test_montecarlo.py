import math
import os
import threading

import numpy as np
import pytest

from conftest import run_python

import cohdet.montecarlo as montecarlo
from cohdet import DomainError, ScenarioParams, TrialConfig, run_simulation
from cohdet.kernel import _pair_terms, _prior_terms
from cohdet.montecarlo import SHARD_SIZE, _count_errors

BASE = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)


def serial_errors(seed, n_photons, p, q):
    """The draw loop on one thread, shard after shard: each shard's first
    block of words decides whether the second source exists, its second
    block where the photon lands."""
    n_errors = 0
    remaining = n_photons
    shard = 0
    while remaining > 0:
        block = min(remaining, SHARD_SIZE)
        bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0, shard)))
        rng = np.random.Generator(bits)
        u_truth = rng.random(block)
        u_event = rng.random(block)
        n_errors += int(np.count_nonzero((u_truth < p) & (u_event < q)))
        remaining -= block
        shard += 1
    return n_errors


class TestTrialConfig:
    def test_rejects_bad_counts_and_seeds(self):
        with pytest.raises(DomainError):
            TrialConfig(BASE, 0, 1)
        with pytest.raises(DomainError):
            TrialConfig(BASE, 100, -1)

    @pytest.mark.parametrize("eps", [0.0, 0.2, math.nan])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            TrialConfig(BASE, 100, 1, epsilon=eps)


class TestRunSimulation:
    def test_reproducible(self):
        config = TrialConfig(BASE, 200000, 2024)
        assert run_simulation(config) == run_simulation(config)

    def test_reproducible_across_shard_boundary(self):
        config = TrialConfig(BASE, SHARD_SIZE + 3, 11)
        first = run_simulation(config)
        assert first == run_simulation(config)
        assert abs(first.z_score) < 5.0

    def test_error_rate_matches_analytic_rate(self):
        config = TrialConfig(BASE, 10**6, 42)
        result = run_simulation(config)
        assert result.analytic_p_err == _prior_terms(_pair_terms(BASE.delta, 1.0 - BASE.delta, BASE.c), BASE.p)[8]
        assert result.std_err == math.sqrt(
            result.analytic_p_err * (1.0 - result.analytic_p_err) / result.n_trials
        )
        assert abs(result.error_rate - result.analytic_p_err) <= 3.0 * result.std_err

    def test_out_of_phase_case(self):
        params = ScenarioParams(k=1.0, gamma=0.9, theta=math.pi, p=0.5)
        # analytic value (1 + d^2 - 1.8 d) / (4 (1 - 0.9 d)) with d = exp(-1/8)
        d = math.exp(-0.125)
        expected = (1.0 + d * d - 1.8 * d) / (4.0 * (1.0 - 0.9 * d))
        assert params._record[8] == pytest.approx(expected, abs=1e-15)
        result = run_simulation(TrialConfig(params, 10**6, 1))
        assert abs(result.error_rate - expected) <= 3.0 * result.std_err

    def test_coin_flip_regime(self):
        params = ScenarioParams(k=0.0, gamma=0.0, theta=0.0, p=0.5)
        result = run_simulation(TrialConfig(params, 10**5, 5))
        assert abs(result.error_rate - 0.5) <= 3.0 * result.std_err

    def test_deterministic_extremes(self):
        sure_miss = ScenarioParams(k=0.0, gamma=0.0, theta=0.0, p=1.0)
        result = run_simulation(TrialConfig(sure_miss, 1000, 3))
        assert result.error_rate == 1.0 and result.z_score == 0.0

        no_source = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.0)
        result = run_simulation(TrialConfig(no_source, 1000, 3))
        assert result.n_errors == 0 and result.z_score == 0.0

    def test_statistical_soundness_over_seeds(self):
        exceed = sum(
            1
            for seed in range(100)
            if abs(run_simulation(TrialConfig(BASE, 20000, seed)).z_score) > 3.0
        )
        assert exceed <= 5

    def test_vacuum_modelling_only_adds_attempts(self):
        plain = run_simulation(TrialConfig(BASE, 50000, 7))
        vacuum = run_simulation(TrialConfig(BASE, 50000, 7, epsilon=0.05))
        assert plain.n_attempts is None
        assert vacuum.n_errors == plain.n_errors
        assert vacuum.error_rate == plain.error_rate
        assert vacuum.n_attempts > vacuum.n_trials
        # attempts should hover around n / epsilon
        assert 0.8 * 50000 / 0.05 < vacuum.n_attempts < 1.2 * 50000 / 0.05


class TestSplitter:
    """Every split of the shards into ranges counts the errors of the serial loop."""

    WORKERS = (1, 2, 3, 5)

    @pytest.mark.parametrize(
        "n_photons", [1, 3, 4, 5, SHARD_SIZE - 1, SHARD_SIZE + 3, 2 * SHARD_SIZE + 7, 10**6])
    def test_every_split_matches_the_serial_loop(self, n_photons):
        p, q = BASE.p, BASE._pair[1]
        expected = serial_errors(2024, n_photons, p, q)
        assert [_count_errors(2024, n_photons, p, q, w) for w in self.WORKERS] == [expected] * 4

    @pytest.mark.parametrize("epsilon", [None, 0.05])
    def test_runs_match_the_serial_loop_on_any_worker_count(self, monkeypatch, epsilon):
        config = TrialConfig(BASE, SHARD_SIZE + 3, 11, epsilon=epsilon)
        expected = serial_errors(11, SHARD_SIZE + 3, BASE.p, BASE._pair[1])
        results = []
        for workers in self.WORKERS:
            monkeypatch.setattr(montecarlo, "_workers", lambda n_photons: workers)
            results.append(run_simulation(config))
        assert results[0].n_errors == expected
        assert results == [results[0]] * 4

    # Counts of the serial loop, before the shards were split across threads.
    @pytest.mark.parametrize("params, n_photons, seed, epsilon, n_errors, n_attempts", [
        (BASE, 2 * SHARD_SIZE + 7, 2024, None, 718215, None),
        (BASE, 200000, 7, 0.05, 68790, 3996979),
        (ScenarioParams(k=1.0, gamma=0.9, theta=math.pi, p=0.5), 10**6, 1, None, 231273, None),
    ])
    def test_pinned_counts(self, params, n_photons, seed, epsilon, n_errors, n_attempts):
        result = run_simulation(TrialConfig(params, n_photons, seed, epsilon))
        assert (result.n_errors, result.n_attempts) == (n_errors, n_attempts)

    def test_one_core_prints_the_same_bytes(self):
        n_photons = 2 * SHARD_SIZE + 7
        argv = ["simulate", "--k", "1", "--gamma", "0.9", "--theta-pi", "1", "--photons",
                str(n_photons), "--seed", "2024"]
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from cohdet.cli import main\n"
            "from cohdet.montecarlo import _workers\n"
            "print(_workers(%d), file=sys.stderr)\n"
            "sys.exit(main(sys.argv[2:]))\n" % n_photons
        )
        pinned = run_python("-c", code, "pinned", *argv)
        free = run_python("-c", code, "free", *argv)
        assert pinned.returncode == free.returncode == 0, pinned.stderr + free.stderr
        # One worker when pinned, and one per core of this process otherwise.
        cores = min(len(os.sched_getaffinity(0)), n_photons // montecarlo.MIN_WORKER_PHOTONS)
        assert (pinned.stderr, free.stderr) == ("1\n", f"{cores}\n")
        assert pinned.stdout == free.stdout

    @pytest.mark.parametrize("on_caller", [True, False])
    def test_a_failing_range_fails_the_run(self, monkeypatch, on_caller):
        # Each shard's first range is counted on the calling thread, the others on threads.
        count_range = montecarlo._count_range

        def flaky(seed, shard, block, lo, hi, p, q):
            if shard == 1 and (lo == 0) == on_caller:
                raise RuntimeError(f"range [{lo}, {hi}) failed")
            return count_range(seed, shard, block, lo, hi, p, q)

        monkeypatch.setattr(montecarlo, "_count_range", flaky)
        monkeypatch.setattr(montecarlo, "_workers", lambda n_photons: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed"):
            run_simulation(TrialConfig(BASE, 3 * SHARD_SIZE, 5))
        assert threading.active_count() == before
