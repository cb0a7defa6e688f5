import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import admissible_delta_c, finite_floats, scenario_params

from cohdet import (
    DegenerateScenarioError,
    DensityMatrix2,
    DomainError,
    Observable2,
    ScenarioParams,
    SpatialGrid,
    SweepSpec,
    TrialConfig,
    lambda_matrix,
    normalization,
    overlap,
    rho1,
    rho2,
)
from cohdet.kernel import effective_coherence

# Frozen reference values, confirmed against the spatial-grid oracle before
# being written down here (see test_oracle.py for the independent path).
DELTA_K2 = 0.6065306597126334
N_K2_C045 = 0.3927918618154851
RHO2_K2_C0 = (0.6839397205857212, 0.24111416276052183, 0.31606027941427883)
LAMBDA_K2 = (-0.15803013970713942, 0.12055708138026092, 0.15803013970713942)


class TestOverlap:
    def test_coincident_sources(self):
        assert overlap(0.0) == 1.0

    def test_large_separation_is_tiny(self):
        assert overlap(10.0) < 1e-5
        assert overlap(10.0) == pytest.approx(math.exp(-12.5), rel=1e-12)

    def test_value_at_k2(self):
        assert overlap(2.0) == pytest.approx(DELTA_K2, abs=1e-15)

    @given(finite_floats(0.0, 20.0), finite_floats(1e-3, 5.0))
    def test_strictly_decreasing(self, k, dk):
        assert overlap(k) > overlap(k + dk)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.inf, math.nan])
    def test_rejects_bad_separation(self, bad):
        with pytest.raises(DomainError):
            overlap(bad)


class TestEffectiveCoherence:
    def test_simple_values(self):
        assert effective_coherence(0.1, 0.0) == 0.1
        assert effective_coherence(0.9, math.pi) == pytest.approx(-0.9, abs=1e-15)
        assert effective_coherence(0.9, math.pi / 3) == pytest.approx(0.45, abs=1e-12)

    @given(finite_floats(0.0, 1.0), finite_floats(-50.0, 50.0))
    def test_range(self, gamma, theta):
        assert -1.0 <= effective_coherence(gamma, theta) <= 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_strength(self, bad):
        with pytest.raises(DomainError):
            effective_coherence(bad, 0.0)

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(DomainError):
            effective_coherence(0.5, math.inf)


class TestCountChecks:
    """SweepSpec's steps, SpatialGrid.n_points and TrialConfig's n_photons and
    seed share one count check."""

    MAKERS = {
        "k_steps": lambda n: SweepSpec(0.0, 1.0, n, 0.0, 1.0, 3),
        "p_steps": lambda n: SweepSpec(0.0, 1.0, 3, 0.0, 1.0, n),
        "n_points": lambda n: SpatialGrid(-8.0, 8.0, n),
        "n_photons": lambda n: TrialConfig(ScenarioParams(k=1.0, gamma=0.0), n, 1),
        "seed": lambda n: TrialConfig(ScenarioParams(k=1.0, gamma=0.0), 10, n),
    }

    @pytest.mark.parametrize("field", sorted(MAKERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, -3])
    def test_rejects_non_counts_with_domain_error(self, field, bad):
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            self.MAKERS[field](bad)

    @pytest.mark.parametrize("field", sorted(MAKERS))
    def test_accepts_whole_numbers_of_any_size(self, field):
        self.MAKERS[field](3.0)
        self.MAKERS[field](10**400)  # compared as an int, never through float


class TestNormalization:
    def test_incoherent_coincident_limit(self):
        assert normalization(1.0, 0.0) == 0.5

    def test_value_cross_checked_by_trace(self):
        n = normalization(DELTA_K2, 0.45)
        assert n == pytest.approx(N_K2_C045, abs=1e-15)
        assert rho2(DELTA_K2, 0.45).trace() == pytest.approx(1.0, abs=1e-12)

    def test_singular_point_raises(self):
        with pytest.raises(DegenerateScenarioError):
            normalization(1.0, -0.999999999999999)

    @pytest.mark.parametrize("delta,c", [(1.5, 0.0), (-0.1, 0.0), (0.5, 2.0), (math.nan, 0.0)])
    def test_rejects_out_of_domain(self, delta, c):
        with pytest.raises(DomainError):
            normalization(delta, c)


class TestStates:
    def test_rho1_is_pure_projector(self):
        r = rho1()
        assert (r.a11, r.a12, r.a22) == (1.0, 0.0, 0.0)
        assert r.trace() == 1.0
        assert r.det() == 0.0

    @pytest.mark.parametrize("c", [-0.9, -0.3, 0.0, 0.45, 1.0])
    def test_rho2_collapses_onto_rho1_when_sources_coincide(self, c):
        r = rho2(1.0, c)
        assert abs(r.a11 - 1.0) <= 1e-12
        assert abs(r.a12) <= 1e-12
        assert abs(r.a22) <= 1e-12

    def test_rho2_maximally_mixed_for_orthogonal_incoherent(self):
        r = rho2(0.0, 0.0)
        assert (r.a11, r.a12, r.a22) == (0.5, 0.0, 0.5)

    def test_rho2_value_at_k2(self):
        r = rho2(DELTA_K2, 0.0)
        assert r.a11 == pytest.approx(RHO2_K2_C0[0], abs=1e-6)
        assert r.a12 == pytest.approx(RHO2_K2_C0[1], abs=1e-6)
        assert r.a22 == pytest.approx(RHO2_K2_C0[2], abs=1e-6)

    @given(admissible_delta_c())
    def test_rho2_unit_trace_and_psd(self, delta_c):
        delta, c = delta_c
        r = rho2(delta, c)
        assert abs(r.trace() - 1.0) <= 1e-12
        assert r.a11 >= -1e-12
        assert r.det() >= -1e-12


class TestLambdaMatrix:
    def test_one_sided_priors(self):
        params = ScenarioParams(k=1.3, gamma=0.4, theta=0.7, p=1.0)
        r2 = rho2(params.delta, params.c)
        lam = lambda_matrix(params)
        assert (lam.a11, lam.a12, lam.a22) == (r2.a11, r2.a12, r2.a22)

        lam0 = lambda_matrix(ScenarioParams(k=1.3, gamma=0.4, theta=0.7, p=0.0))
        assert (lam0.a11, lam0.a12, lam0.a22) == (-1.0, 0.0, 0.0)

    def test_value_at_k2(self):
        lam = lambda_matrix(ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5))
        assert lam.a11 == pytest.approx(LAMBDA_K2[0], abs=1e-6)
        assert lam.a12 == pytest.approx(LAMBDA_K2[1], abs=1e-6)
        assert lam.a22 == pytest.approx(LAMBDA_K2[2], abs=1e-6)

    @given(scenario_params())
    def test_trace_is_two_p_minus_one(self, params):
        lam = lambda_matrix(params)
        assert lam.trace() == pytest.approx(2.0 * params.p - 1.0, abs=1e-12)

    @given(scenario_params())
    def test_depends_on_coherence_only_through_product(self, params):
        c = params.c
        equivalent = ScenarioParams(
            k=params.k, gamma=abs(c), theta=0.0 if c >= 0 else math.pi, p=params.p
        )
        lam = lambda_matrix(params)
        lam_eq = lambda_matrix(equivalent)
        assert abs(lam.a11 - lam_eq.a11) <= 1e-12
        assert abs(lam.a12 - lam_eq.a12) <= 1e-12
        assert abs(lam.a22 - lam_eq.a22) <= 1e-12


class TestScenarioParams:
    def test_angle_reduced_into_principal_range(self):
        params = ScenarioParams(k=1.0, gamma=0.5, theta=2.0 * math.pi + 0.25, p=0.5)
        assert params.theta == pytest.approx(0.25, abs=1e-12)

    def test_rejects_degenerate_point(self):
        with pytest.raises(DegenerateScenarioError):
            ScenarioParams(k=0.0, gamma=1.0, theta=math.pi, p=0.5)

    def test_near_degenerate_but_valid(self):
        # delta < 1 keeps 1 + delta*c positive even at full out-of-phase coherence
        params = ScenarioParams(k=1.0, gamma=1.0, theta=3.14159265, p=0.5)
        assert 1.0 + params.delta * params.c > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=-0.5, gamma=0.0, theta=0.0, p=0.5),
            dict(k=1.0, gamma=1.5, theta=0.0, p=0.5),
            dict(k=1.0, gamma=0.5, theta=0.0, p=-0.1),
            dict(k=1.0, gamma=0.5, theta=0.0, p=1.1),
            dict(k=1.0, gamma=0.5, theta=math.nan, p=0.5),
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(DomainError):
            ScenarioParams(**kwargs)

    def test_frozen(self):
        params = ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.5)
        with pytest.raises(AttributeError):
            params.k = 2.0

    # With several bad inputs, the first check in the order p, theta, k,
    # gamma, singular point names the error; `cohdet bound` prints it.
    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            (dict(k=math.nan, gamma=2.0, theta=math.inf, p=2.0),
             DomainError, "prior p must lie in [0, 1], got 2.0"),
            (dict(k=math.nan, gamma=2.0, theta=math.inf, p=math.nan),
             DomainError, "prior p must lie in [0, 1], got nan"),
            (dict(k=math.nan, gamma=2.0, theta=math.inf, p=1.0),
             DomainError, "coherence phase theta must be finite, got inf"),
            (dict(k=math.nan, gamma=2.0, theta=1e308, p=1.0),
             DomainError, "separation k must be finite and >= 0, got nan"),
            (dict(k=-1.0, gamma=math.nan, theta=0.0, p=0.0),
             DomainError, "separation k must be finite and >= 0, got -1.0"),
            (dict(k=0.0, gamma=2.0, theta=math.pi, p=0.5),
             DomainError, "coherence strength gamma must lie in [0, 1], got 2.0"),
            (dict(k=0.0, gamma=1.0, theta=math.pi, p=0.5),
             DegenerateScenarioError,
             "1 + delta*c = 0.000e+00: the two-source state is not normalizable"),
        ],
    )
    def test_error_precedence(self, kwargs, error, message):
        with pytest.raises(error) as raised:
            ScenarioParams(**kwargs)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_repr_eq_and_hash_ignore_derived_values(self):
        params = ScenarioParams(k=1.5, gamma=0.25, theta=7.0, p=0.125)
        assert repr(params) == f"ScenarioParams(k=1.5, gamma=0.25, theta={7.0 - 2.0 * math.pi!r}, p=0.125)"
        twin = ScenarioParams(k=1.5, gamma=0.25, theta=7.0 - 2.0 * math.pi, p=0.125)
        assert twin == params and hash(twin) == hash(params)
        assert hash(params) == hash((params.k, params.gamma, params.theta, params.p))
        object.__setattr__(twin, "delta", 0.0)
        object.__setattr__(twin, "c", 0.0)
        assert twin == params and hash(twin) == hash(params) and repr(twin) == repr(params)

    @given(scenario_params())
    def test_derived_values_equal_the_public_functions(self, params):
        assert params.delta.hex() == overlap(params.k).hex()
        assert params.c.hex() == effective_coherence(params.gamma, params.theta).hex()


class TestMatrixTypes:
    def test_observable_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Observable2(math.inf, 0.0, 0.0)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix2(0.6, 0.0, 0.5)

    def test_density_matrix_rejects_indefinite(self):
        with pytest.raises(DomainError):
            DensityMatrix2(0.5, 0.6, 0.5)
