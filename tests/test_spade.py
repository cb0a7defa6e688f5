import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given

from conftest import admissible_delta_c, finite_floats, linspace, scenario_params

from cohdet import (
    DomainError,
    ScenarioParams,
    helstrom_bound,
    overlap,
    qod_advantage,
    rho2,
    spade_advantage,
)
from cohdet.kernel import _pair_terms, _prior_terms

P_ERR_K2 = 0.3419698602928606
A_D_K2 = 1.4621171572600098


def p_err_spade(delta, c, p):
    """The mode-sorting error with prior p, the record's p_err_spade, at dm = 1 - delta."""
    return _prior_terms(_pair_terms(delta, 1.0 - delta, c), p)[8]


class TestEventProbs:
    """p_err_spade at p = 1 is the probability that a two-source photon
    clicks the Gaussian-mode detector."""

    def test_coincident_two_sources(self):
        assert p_err_spade(1.0, 0.37, 1.0) == 1.0

    def test_orthogonal_incoherent_two_sources(self):
        assert p_err_spade(0.0, 0.0, 1.0) == 0.5

    @given(admissible_delta_c())
    def test_gaussian_click_is_a_probability(self, delta_c):
        assert 0.0 <= p_err_spade(*delta_c, 1.0) <= 1.0


class TestSpadeError:
    def test_coincident_sources_carry_no_information(self):
        assert p_err_spade(1.0, 0.2, 0.5) == 0.5
        assert p_err_spade(1.0, -0.7, 0.5) == 0.5

    def test_orthogonal_incoherent(self):
        assert p_err_spade(0.0, 0.0, 0.5) == 0.25

    def test_derived_value(self):
        delta = overlap(2.0)
        assert p_err_spade(delta, 0.0, 0.5) == pytest.approx(P_ERR_K2, abs=1e-5)

    @given(admissible_delta_c(), finite_floats(0.0, 1.0))
    def test_equals_prior_times_miss_probability(self, delta_c, p):
        delta, c = delta_c
        miss = p_err_spade(delta, c, 1.0)
        assert p_err_spade(delta, c, p) == p * miss

    @given(admissible_delta_c(), finite_floats(0.0, 1.0))
    @example((1.0, 0.3), 0.0)
    @example((0.5, 0.0), 1.0)
    def test_equals_the_kernel_record(self, delta_c, p):
        # p times the Gaussian-mode click of the public rho2: the rule never errs under H1
        delta, c = delta_c
        assert p_err_spade(delta, c, p).hex() == (p * rho2(delta, c).a11).hex()

    @given(admissible_delta_c())
    @example((0.9983457276806822, -1.0))  # 1 + delta**2 + 2*delta*c cancels in floats
    def test_even_prior_closed_form(self, delta_c):
        # The closed form in exact rationals: in floats it loses digits near c = -1.
        delta, c = map(Fraction, delta_c)
        reference = float((1 + delta * delta + 2 * delta * c) / (4 * (1 + delta * c)))
        assert p_err_spade(*delta_c, 0.5) == pytest.approx(reference, abs=1e-15)

    @given(finite_floats(0.05, 0.95), finite_floats(-0.99, 0.99), finite_floats(-0.99, 0.99))
    def test_out_of_phase_coherence_helps(self, delta, c_a, c_b):
        # at fixed overlap the miss rate grows with the effective coherence
        c_low, c_high = min(c_a, c_b), max(c_a, c_b)
        assume(c_high - c_low > 1e-4)
        assume(1.0 + delta * c_low > 1e-6)
        assert p_err_spade(delta, c_low, 0.5) < p_err_spade(delta, c_high, 0.5)

    def test_rejects_bad_prior(self):
        with pytest.raises(DomainError, match=r"^prior p must lie in \[0, 1\], got 1\.5$"):
            ScenarioParams(k=1.0, gamma=0.0, p=1.5)


class TestSpadeAdvantage:
    def test_coincident_sources(self):
        params = ScenarioParams(k=0.0, gamma=0.3, theta=0.2, p=0.5)
        assert spade_advantage(params) == 1.0

    def test_orthogonal_incoherent_limit(self):
        params = ScenarioParams(k=40.0, gamma=0.0, theta=0.0, p=0.5)
        assert spade_advantage(params) == pytest.approx(2.0, abs=1e-10)

    def test_derived_value(self):
        params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
        assert spade_advantage(params) == pytest.approx(A_D_K2, abs=1e-4)

    @given(scenario_params())
    def test_never_beats_the_optimum(self, params):
        # extreme priors cancel to ~1e-16 inside both error probabilities,
        # which the ratio then amplifies past the comparison tolerance
        assume(1e-4 <= params.p <= 1.0 - 1e-4)
        assert spade_advantage(params) <= qod_advantage(params) + 1e-10

    def test_suboptimal_across_grid(self):
        for gamma in (0.0, 0.5, 0.9):
            for theta in (0.0, math.pi / 2, math.pi):
                for k in linspace(0.0, 6.0, 25):
                    params = ScenarioParams(k=k, gamma=gamma, theta=theta, p=0.5)
                    p_err = params._record[8]
                    assert p_err >= helstrom_bound(params) - 1e-12
