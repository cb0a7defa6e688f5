import math
import sys

import numpy as np
import pytest
from hypothesis import given

from conftest import linspace, scenario_params

from cohdet import (
    DomainError,
    ScenarioParams,
    bound_report,
    helstrom_bound,
    lambda_matrix,
    qod_advantage,
    spade_advantage,
)

# Frozen reference values (confirmed against the grid oracle and the
# closed-form reduction sqrt(1 - exp(-k^2/4))/4 before freezing).
EIG_K2 = 0.19876502440516253
TRACE_NORM_K2 = 0.39753004881032505
O_ERR_K2 = 0.3012349755948375
A_QOD_K2 = 1.6598338191395892
P_STAR_K1_G09 = 0.9497154213698529

THETAS = (0.0, math.pi / 3, 2 * math.pi / 3, math.pi)


def lapack_eigenvalues(m):
    """Ascending eigenvalues of a symmetric 2x2 matrix by LAPACK, a route
    independent of the kernel's closed form."""
    low, high = np.linalg.eigvalsh(np.array([[m.a11, m.a12], [m.a12, m.a22]]))
    return float(low), float(high)


def trace_norm(m):
    """Sum of the absolute eigenvalues."""
    low, high = lapack_eigenvalues(m)
    return abs(low) + abs(high)


class TestEigenvalues:
    """The eigenvalues of Lambda as `bound_report` gives them."""

    @given(scenario_params())
    def test_trace_free_form(self, params):
        # At p = 1/2 Lambda is trace-free, so its eigenvalues are -r and r.
        report = bound_report(ScenarioParams(params.k, params.gamma, params.theta, 0.5))
        r = math.hypot(0.5 * (report.lambda_11 - report.lambda_22), report.lambda_12)
        assert report.eig_low == pytest.approx(-r, abs=1e-12)
        assert report.eig_high == pytest.approx(r, abs=1e-12)

    def test_derived_value(self):
        report = bound_report(ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5))
        assert report.eig_low == pytest.approx(-EIG_K2, abs=1e-5)
        assert report.eig_high == pytest.approx(EIG_K2, abs=1e-5)

    @given(scenario_params())
    def test_matches_trace_and_determinant(self, params):
        report = bound_report(params)
        lam = lambda_matrix(params)
        assert report.eig_low <= report.eig_high
        assert report.eig_low + report.eig_high == pytest.approx(lam.trace(), abs=1e-12)
        assert report.eig_low * report.eig_high == pytest.approx(lam.det(), abs=1e-12)

    def test_tiny_eigenvalue_does_not_cancel(self):
        # Lambda = [[-1, -5e-301], [-5e-301, 5e-301]]: half_trace - radius
        # would cancel the eigenvalue 5e-301 to 0; det/larger keeps it.
        report = bound_report(ScenarioParams(1e300, 1.0, math.pi, 1e-300))
        assert (report.eig_low, report.eig_high) == (-1.0, 5e-301)

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(20240817)
        for k, gamma, theta, p in zip(*(rng.random((4, 200)) * [[6.0], [1.0], [2 * math.pi], [1.0]])):
            params = ScenarioParams(float(k), float(gamma), float(theta), float(p))
            report = bound_report(params)
            low, high = lapack_eigenvalues(lambda_matrix(params))
            assert report.eig_low == pytest.approx(low, abs=1e-10)
            assert report.eig_high == pytest.approx(high, abs=1e-10)


class TestTraceNorm:
    def test_unit_trace_psd_states(self):
        # Lambda is -rho_1 at p = 0 and rho_2 at p = 1.
        lam_p0 = lambda_matrix(ScenarioParams(k=1.7, gamma=0.3, theta=1.0, p=0.0))
        assert trace_norm(lam_p0) == 1.0
        lam_p1 = lambda_matrix(ScenarioParams(k=1.7, gamma=0.3, theta=1.0, p=1.0))
        assert trace_norm(lam_p1) == pytest.approx(1.0, abs=1e-12)

    def test_derived_value(self):
        report = bound_report(ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5))
        assert 1.0 - 2.0 * report.o_err == pytest.approx(TRACE_NORM_K2, abs=1e-5)

    @given(scenario_params())
    def test_bounds_trace(self, params):
        report = bound_report(params)
        assert abs(report.eig_low) + abs(report.eig_high) >= abs(2.0 * params.p - 1.0) - 1e-12


class TestHelstromBound:
    def test_coincident_sources_reduce_to_prior(self):
        params = ScenarioParams(k=0.0, gamma=0.3, theta=0.0, p=0.7)
        assert helstrom_bound(params) == pytest.approx(0.3, abs=1e-12)

    def test_orthogonal_support_limit(self):
        params = ScenarioParams(k=40.0, gamma=0.0, theta=0.0, p=0.5)
        assert helstrom_bound(params) == pytest.approx(0.25, abs=1e-12)

    def test_derived_value(self):
        params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
        assert helstrom_bound(params) == pytest.approx(O_ERR_K2, abs=1e-5)

    def test_incoherent_closed_form(self):
        for k in linspace(0.0, 6.0, 61):
            params = ScenarioParams(k=k, gamma=0.0, theta=0.0, p=0.5)
            reference = 0.5 - math.sqrt(1.0 - math.exp(-k * k / 4.0)) / 4.0
            assert helstrom_bound(params) == pytest.approx(reference, abs=1e-10)

    @given(scenario_params())
    def test_never_beats_nothing_to_lose(self, params):
        assert helstrom_bound(params) <= min(params.p, 1.0 - params.p) + 1e-12

    @given(scenario_params())
    def test_range(self, params):
        assert 0.0 <= helstrom_bound(params) <= 0.5


class TestDirectError:
    """The blind-guess error min(p, 1-p), reported as d_err."""

    @staticmethod
    def d_err(p):
        return bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=p)).d_err

    def test_values(self):
        assert self.d_err(0.5) == 0.5
        assert self.d_err(0.9) == pytest.approx(0.1, abs=1e-15)
        assert self.d_err(0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_prior(self, bad):
        with pytest.raises(DomainError):
            ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=bad)


class TestAdvantage:
    def test_coincident_sources_have_no_advantage(self):
        for p in (0.1, 0.5, 0.9):
            params = ScenarioParams(k=0.0, gamma=0.4, theta=1.0, p=p)
            assert qod_advantage(params) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_incoherent_limit(self):
        params = ScenarioParams(k=40.0, gamma=0.0, theta=0.0, p=0.5)
        assert qod_advantage(params) == pytest.approx(2.0, abs=1e-10)

    def test_derived_value(self):
        params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
        assert qod_advantage(params) == pytest.approx(A_QOD_K2, abs=1e-4)

    def test_deterministic_prior_convention(self):
        for p in (0.0, 1.0):
            params = ScenarioParams(k=1.0, gamma=0.2, theta=0.5, p=p)
            assert qod_advantage(params) == 1.0


class TestUselessRegion:
    @staticmethod
    def p_star(k, gamma, theta=0.0):
        return bound_report(ScenarioParams(k, gamma, theta)).p_star

    def test_incoherent_boundary_is_two_thirds(self):
        for k in (0.0, 1.0, 4.0):
            assert self.p_star(k, 0.0) == 2.0 / 3.0

    def test_boundary_touches_one_at_full_coherence(self):
        assert self.p_star(0.0, 1.0) == 1.0

    def test_derived_value(self):
        assert self.p_star(1.0, 0.9) == pytest.approx(P_STAR_K1_G09, abs=1e-12)

    def test_eigenvalue_signs_flip_at_boundary(self):
        p_star = self.p_star(1.0, 0.9)
        above = lambda_matrix(ScenarioParams(k=1.0, gamma=0.9, theta=0.0, p=p_star + 1e-6))
        below = lambda_matrix(ScenarioParams(k=1.0, gamma=0.9, theta=0.0, p=p_star - 1e-6))
        assert lapack_eigenvalues(above)[0] > 0.0
        assert lapack_eigenvalues(below)[0] < 0.0

    def test_membership_examples(self):
        assert bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.8)).useless
        assert not bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.5)).useless
        high = ScenarioParams(k=1.0, gamma=0.9, theta=0.0, p=0.96)
        assert bound_report(high).useless
        # inside the region the bound equals the blind guess exactly
        lam = lambda_matrix(high)
        assert trace_norm(lam) == pytest.approx(2.0 * 0.96 - 1.0, abs=1e-12)

    def test_boundary_consistency(self):
        for gamma in (0.1, 0.9):
            for theta in THETAS:
                for k in linspace(0.0, 5.0, 11):
                    p_star = self.p_star(k, gamma, theta)
                    just_above = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p_star + 1e-6)
                    low, high = lapack_eigenvalues(lambda_matrix(just_above))
                    assert low >= -1e-9 and high >= -1e-9
                    assert abs(
                        helstrom_bound(just_above) - min(just_above.p, 1.0 - just_above.p)
                    ) <= 1e-9
                    if k > 0.0:
                        below = ScenarioParams(
                            k=k, gamma=gamma, theta=theta, p=p_star - 1e-3
                        )
                        assert qod_advantage(below) > 1.0

    @given(scenario_params())
    def test_no_all_negative_regime(self, params):
        report = bound_report(params)
        assert not (report.eig_low < -1e-12 and report.eig_high < -1e-12)

    def test_prior_symmetry_at_coincidence(self):
        rng = np.random.default_rng(7)
        for p in rng.random(50):
            params = ScenarioParams(k=0.0, gamma=0.2, theta=0.3, p=float(p))
            assert helstrom_bound(params) == pytest.approx(min(params.p, 1.0 - params.p), abs=1e-15)


class TestBoundReport:
    @given(scenario_params())
    def test_internal_consistency(self, params):
        # a_qod is formed as (d_err/p)/(o_err/p), so it stays finite where
        # o_err underflows; where o_err is a normal double it is d_err/o_err
        # to rounding.
        report = bound_report(params)
        assert report.o_err <= report.d_err + 1e-12
        if report.o_err >= sys.float_info.min:
            assert report.a_qod == pytest.approx(report.d_err / report.o_err, rel=1e-15)
        if report.useless:
            assert (report.o_err, report.a_qod) == (report.d_err, 1.0)

    @given(scenario_params())
    def test_fields_equal_the_step_by_step_api(self, params):
        # The textbook forms of N and p* below take 1 + delta*c from the
        # rounded delta, and a scenario takes 1 - delta from k, so the two
        # agree to the rounding of delta, which 1 + delta*c > 1e-6 magnifies
        # at most 1e6 times.  LAPACK's eigenvalues of the entries agree with
        # the report's to a few roundings of entries at most 1.
        report = bound_report(params)
        lam = lambda_matrix(params)
        delta, c = params.delta, params.c
        assert report.delta == delta
        assert report.normalization == pytest.approx(0.5 / (1.0 + delta * c), rel=1e-9)
        assert (report.lambda_11, report.lambda_12, report.lambda_22) == (lam.a11, lam.a12, lam.a22)
        eigenvalues = pytest.approx(lapack_eigenvalues(lam), abs=4 * sys.float_info.epsilon)
        assert (report.eig_low, report.eig_high) == eigenvalues
        assert report.o_err == helstrom_bound(params)
        assert report.a_qod == qod_advantage(params)
        p_star = (2.0 + 2.0 * delta * c) / (3.0 + 2.0 * delta * c - c * c)
        assert report.p_star == pytest.approx(p_star, rel=1e-9)
        p_err, a_d = params._record[8], spade_advantage(params)
        if params.p == 0.0:
            assert a_d == 1.0
        elif p_err >= sys.float_info.min:
            assert a_d == pytest.approx(report.d_err / p_err, rel=1e-9)

    def test_useless_flag_matches_region(self):
        inside = bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.8))
        outside = bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.5))
        assert inside.useless and not outside.useless
