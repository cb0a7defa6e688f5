import math

import numpy as np
import pytest
from hypothesis import given

from conftest import finite_floats, linspace, scenario_params

from cohdet import (
    DomainError,
    Observable2,
    ScenarioParams,
    bound_report,
    eigenvalues_sym2,
    helstrom_bound,
    lambda_matrix,
    normalization,
    overlap,
    qod_advantage,
    rho1,
    spade_advantage,
    spade_error,
    useless_boundary,
)

# Frozen reference values (confirmed against the grid oracle and the
# closed-form reduction sqrt(1 - exp(-k^2/4))/4 before freezing).
EIG_K2 = 0.19876502440516253
TRACE_NORM_K2 = 0.39753004881032505
O_ERR_K2 = 0.3012349755948375
A_QOD_K2 = 1.6598338191395892
P_STAR_K1_G09 = 0.9497154213698529

THETAS = (0.0, math.pi / 3, 2 * math.pi / 3, math.pi)


def trace_norm(m):
    """Sum of the absolute eigenvalues."""
    low, high = eigenvalues_sym2(m)
    return abs(low) + abs(high)


class TestEigenvalues:
    def test_identity(self):
        assert eigenvalues_sym2(Observable2(1.0, 0.0, 1.0)) == (1.0, 1.0)

    @given(finite_floats(-5.0, 5.0), finite_floats(-5.0, 5.0))
    def test_trace_free_form(self, a, b):
        low, high = eigenvalues_sym2(Observable2(a, b, -a))
        r = math.hypot(a, b)
        assert low == pytest.approx(-r, abs=1e-12)
        assert high == pytest.approx(r, abs=1e-12)

    def test_derived_value(self):
        lam = lambda_matrix(ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5))
        low, high = eigenvalues_sym2(lam)
        assert low == pytest.approx(-EIG_K2, abs=1e-5)
        assert high == pytest.approx(EIG_K2, abs=1e-5)

    @given(finite_floats(-10.0, 10.0), finite_floats(-10.0, 10.0), finite_floats(-10.0, 10.0))
    def test_matches_trace_and_determinant(self, a11, a12, a22):
        m = Observable2(a11, a12, a22)
        low, high = eigenvalues_sym2(m)
        assert low <= high
        scale = max(1.0, abs(a11), abs(a12), abs(a22))
        assert low + high == pytest.approx(m.trace(), abs=1e-10 * scale)
        assert low * high == pytest.approx(m.det(), abs=1e-10 * scale**2)

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            a11, a12, a22 = rng.normal(scale=3.0, size=3)
            ours = eigenvalues_sym2(Observable2(a11, a12, a22))
            ref = np.linalg.eigvalsh(np.array([[a11, a12], [a12, a22]]))
            assert ours[0] == pytest.approx(ref[0], abs=1e-10)
            assert ours[1] == pytest.approx(ref[1], abs=1e-10)


class TestTraceNorm:
    def test_unit_trace_psd_states(self):
        assert trace_norm(rho1()) == 1.0
        lam_p1 = lambda_matrix(ScenarioParams(k=1.7, gamma=0.3, theta=1.0, p=1.0))
        assert trace_norm(lam_p1) == pytest.approx(1.0, abs=1e-12)

    def test_derived_value(self):
        report = bound_report(ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5))
        assert 1.0 - 2.0 * report.o_err == pytest.approx(TRACE_NORM_K2, abs=1e-5)

    @given(finite_floats(-10.0, 10.0), finite_floats(-10.0, 10.0), finite_floats(-10.0, 10.0))
    def test_bounds_trace(self, a11, a12, a22):
        m = Observable2(a11, a12, a22)
        assert trace_norm(m) >= abs(m.trace()) - 1e-12


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
    def test_incoherent_boundary_is_two_thirds(self):
        for delta in (1.0, 0.7, 0.1):
            assert useless_boundary(delta, 0.0) == 2.0 / 3.0

    def test_boundary_touches_one_at_full_coherence(self):
        assert useless_boundary(1.0, 1.0) == 1.0

    def test_derived_value(self):
        assert useless_boundary(overlap(1.0), 0.9) == pytest.approx(P_STAR_K1_G09, abs=1e-12)

    def test_eigenvalue_signs_flip_at_boundary(self):
        p_star = useless_boundary(overlap(1.0), 0.9)
        above = lambda_matrix(ScenarioParams(k=1.0, gamma=0.9, theta=0.0, p=p_star + 1e-6))
        below = lambda_matrix(ScenarioParams(k=1.0, gamma=0.9, theta=0.0, p=p_star - 1e-6))
        assert min(eigenvalues_sym2(above)) > 0.0
        assert min(eigenvalues_sym2(below)) < 0.0

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
                    p_star = useless_boundary(
                        overlap(k), gamma * math.cos(theta)
                    )
                    just_above = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p_star + 1e-6)
                    low, high = eigenvalues_sym2(lambda_matrix(just_above))
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
        low, high = eigenvalues_sym2(lambda_matrix(params))
        assert not (low < -1e-12 and high < -1e-12)

    def test_prior_symmetry_at_coincidence(self):
        rng = np.random.default_rng(7)
        for p in rng.random(50):
            params = ScenarioParams(k=0.0, gamma=0.2, theta=0.3, p=float(p))
            assert helstrom_bound(params) == pytest.approx(min(params.p, 1.0 - params.p), abs=1e-15)


class TestBoundReport:
    @given(scenario_params())
    def test_internal_consistency(self, params):
        report = bound_report(params)
        assert report.o_err <= report.d_err + 1e-12
        if report.o_err > 0.0:
            assert report.a_qod == report.d_err / report.o_err
        if report.useless:
            assert abs(report.a_qod - 1.0) <= 1e-10

    @given(scenario_params())
    def test_fields_equal_the_step_by_step_api(self, params):
        report = bound_report(params)
        lam = lambda_matrix(params)
        assert report.delta == params.delta
        assert report.normalization == normalization(params.delta, params.c)
        assert (report.lambda_11, report.lambda_12, report.lambda_22) == (lam.a11, lam.a12, lam.a22)
        assert (report.eig_low, report.eig_high) == eigenvalues_sym2(lam)
        assert report.o_err == helstrom_bound(params)
        assert report.a_qod == qod_advantage(params)
        assert report.p_star == useless_boundary(params.delta, params.c)
        p_err, a_d = spade_error(params.delta, params.c, params.p), spade_advantage(params)
        if p_err > 0.0:
            assert a_d == report.d_err / p_err
        else:
            assert a_d == (1.0 if report.d_err == 0.0 else math.inf)

    def test_useless_flag_matches_region(self):
        inside = bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.8))
        outside = bound_report(ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.5))
        assert inside.useless and not outside.useless
