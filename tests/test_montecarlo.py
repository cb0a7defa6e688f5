import math

import pytest

from cohdet import DomainError, ScenarioParams, TrialConfig, run_simulation, spade_error
from cohdet.montecarlo import SHARD_SIZE

BASE = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)


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
        assert result.analytic_p_err == spade_error(BASE.delta, BASE.c, BASE.p)
        assert result.std_err == math.sqrt(
            result.analytic_p_err * (1.0 - result.analytic_p_err) / result.n_trials
        )
        assert abs(result.error_rate - result.analytic_p_err) <= 3.0 * result.std_err

    def test_out_of_phase_case(self):
        params = ScenarioParams(k=1.0, gamma=0.9, theta=math.pi, p=0.5)
        # analytic value (1 + d^2 - 1.8 d) / (4 (1 - 0.9 d)) with d = exp(-1/8)
        d = math.exp(-0.125)
        expected = (1.0 + d * d - 1.8 * d) / (4.0 * (1.0 - 0.9 * d))
        assert spade_error(params.delta, params.c, 0.5) == pytest.approx(expected, abs=1e-15)
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
