import copy
import math
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import admissible_delta_c, finite_floats, scenario_params

from cohdet import (
    DegenerateScenarioError,
    DomainError,
    Observable2,
    ScenarioParams,
    SpatialGrid,
    SweepSpec,
    TrialConfig,
    bound_report,
    helstrom_bound,
    lambda_matrix,
    overlap,
    qod_advantage,
    rho2,
    run_simulation,
    spade_advantage,
    sweep_rows,
)
import cohdet.kernel
from cohdet.kernel import BoundReport, _pair_terms, _prior_terms
from cohdet.sweeps import stream_sweep

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
    """c = gamma*cos(theta), as ScenarioParams forms it from the reduced phase."""

    def test_simple_values(self):
        assert ScenarioParams(1.0, 0.1, 0.0).c == 0.1
        assert ScenarioParams(1.0, 0.9, math.pi).c == pytest.approx(-0.9, abs=1e-15)
        assert ScenarioParams(1.0, 0.9, math.pi / 3).c == pytest.approx(0.45, abs=1e-12)

    @given(finite_floats(0.0, 1.0), finite_floats(-50.0, 50.0))
    def test_range(self, gamma, theta):
        assert -1.0 <= ScenarioParams(1.0, gamma, theta).c <= 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_strength(self, bad):
        with pytest.raises(DomainError):
            ScenarioParams(1.0, bad, 0.0)

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(DomainError):
            ScenarioParams(1.0, 0.5, math.inf)


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

    #: A use of each built object that needs its count as an int.
    USES = {
        "k_steps": sweep_rows,
        "p_steps": sweep_rows,
        "n_points": lambda grid: grid.xs,
        "n_photons": run_simulation,
        "seed": run_simulation,
    }

    @pytest.mark.parametrize("field", sorted(MAKERS))
    def test_accepts_whole_numbers_of_any_size(self, field):
        # A whole float is stored as the int it equals, so the object works.
        built = self.MAKERS[field](3.0)
        assert type(getattr(built, field)) is int and getattr(built, field) == 3
        self.USES[field](built)
        # Compared as an int, never through float: 2**60 + 1 has no double.
        big = 2**60 + 1
        if field == "p_steps":  # a sweep holds at most MAX_PRIORS priors
            with pytest.raises(DomainError, match=f"^p_steps must be at most 100000, got {big}$"):
                self.MAKERS[field](big)
        else:
            assert getattr(self.MAKERS[field](big), field) == big
        # Beyond a double, a sweep has no spacing; the other counts are kept.
        if field.endswith("_steps"):
            with pytest.raises(DomainError, match=r"^range 0\.0:1\.0 has too many steps for a floating-point"):
                self.MAKERS[field](10**400)
        else:
            assert getattr(self.MAKERS[field](10**400), field) == 10**400


class TestNormalization:
    """N = 1/(2*(1 + delta*c)) as `bound_report` gives it; the public
    (delta, c) function rho2 shares its checks."""

    @staticmethod
    def normalization(k, gamma, theta=0.0):
        return bound_report(ScenarioParams(k, gamma, theta)).normalization

    def test_incoherent_coincident_limit(self):
        assert self.normalization(0.0, 0.0) == 0.5

    def test_value_cross_checked_by_trace(self):
        n = self.normalization(2.0, 0.45)
        assert n == pytest.approx(N_K2_C045, abs=1e-15)
        assert rho2(DELTA_K2, 0.45).trace() == pytest.approx(1.0, abs=1e-12)

    def test_singular_point_raises(self):
        # Only delta*c = -1 itself is singular; next to it N is exact at the doubles.
        with pytest.raises(DegenerateScenarioError):
            rho2(1.0, -1.0)
        assert self.normalization(0.0, 0.999999999999999, math.pi) == 0.5 / (1.0 - 0.999999999999999)

    @pytest.mark.parametrize("delta,c", [(1.5, 0.0), (-0.1, 0.0), (0.5, 2.0), (math.nan, 0.0)])
    def test_rejects_out_of_domain(self, delta, c):
        with pytest.raises(DomainError):
            rho2(delta, c)


class TestStates:
    def test_rho1_is_pure_projector(self):
        # rho_1 is Observable2(1.0, 0.0, 0.0), and Lambda = -rho_1 at p = 0.
        r = Observable2(1.0, 0.0, 0.0)
        assert r.trace() == 1.0
        assert r.det() == 0.0
        lam0 = lambda_matrix(ScenarioParams(k=1.3, gamma=0.4, theta=0.7, p=0.0))
        assert (-lam0.a11, -lam0.a12, -lam0.a22) == r

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
    # Next to delta*c = -1, where 1 + delta*c, 1 - delta**2 and r11 are all small.
    @example((0.9999992312711925, -0.9999997156387034))
    def test_rho2_unit_trace_and_psd(self, delta_c):
        delta, c = delta_c
        r = rho2(delta, c)
        assert abs(r.trace() - 1.0) <= 1e-12
        assert r.a11 >= -1e-12
        assert r.det() >= -1e-12

    @pytest.mark.parametrize("k", [0.01, 1e-3, 1e-4])
    def test_rho2_returns_next_to_singular_point(self, k):
        # rho2 returns the kernel's entries as they are; how close they come
        # to unit trace next to 1 + delta*c = 0 is the kernel's accuracy.
        delta = overlap(k)
        assert tuple(rho2(delta, -1.0)) == _pair_terms(delta, 1.0 - delta, -1.0)[1:4]


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
        object.__setattr__(twin, "_pair", ())
        object.__setattr__(twin, "_record", ())
        assert twin == params and hash(twin) == hash(params) and repr(twin) == repr(params)

    def test_never_equals_a_tuple_of_its_fields(self):
        # __eq__ leaves another class to Python (NotImplemented), which falls back to identity
        params = ScenarioParams(1.0, 0.5)
        assert (params == (1.0, 0.5, 0.0, 0.5)) is False
        assert params != (1.0, 0.5, 0.0, 0.5)

    @pytest.fixture
    def kernel_passes(self, monkeypatch):
        """A list that records the prior of every `_prior_terms` call."""
        calls = []

        def counted(pair, p):
            calls.append(p)
            return _prior_terms(pair, p)

        monkeypatch.setattr(cohdet.kernel, "_prior_terms", counted)
        return calls

    ACCESSORS = (bound_report, helstrom_bound, qod_advantage, lambda_matrix, spade_advantage)

    @pytest.mark.parametrize("kwargs", [
        dict(k=1.5, gamma=0.25, theta=7.0, p=0.125),
        dict(k=0.0, gamma=0.4, theta=1.0, p=0.0),
        dict(k=7.4e-162, gamma=1.0, theta=math.pi, p=0.12),  # o_err/p and r11 underflow to 0
    ])
    def test_one_kernel_pass_per_scenario(self, kernel_passes, kwargs):
        params = ScenarioParams(**kwargs)
        assert kernel_passes == [kwargs["p"]]
        results = [accessor(params) for accessor in self.ACCESSORS]
        assert kernel_passes == [kwargs["p"]]
        record = _prior_terms(params._pair, params.p)
        assert params._record == record
        report = results[0]
        assert type(report) is BoundReport and type(results[3]) is Observable2
        assert tuple(report) == (params.delta, params._pair[0], *record[:8], params._pair[5], record[10])
        assert results[1:] == [record[5], record[7], Observable2(*record[:3]), record[9]]

    @pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_rebuild_from_the_four_inputs(self, kernel_passes, rebuild):
        params = ScenarioParams(k=1.5, gamma=0.25, theta=7.0, p=0.125)
        twin = rebuild(params)
        # Rebuilt through __init__ from (k, gamma, theta, p): one more kernel pass.
        assert kernel_passes == [0.125, 0.125]
        assert twin is not params and twin == params and hash(twin) == hash(params)
        assert twin._pair == params._pair and twin._record == params._record
        other = ScenarioParams(k=1.5, gamma=0.25, theta=7.0, p=0.25)
        assert other != params and other._pair == params._pair

    @pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_sweep_spec_copies_rebuild_from_the_eight_fields(self, rebuild):
        spec = SweepSpec(0.0, 3.0, 4, 0.125, 0.875, 5, gamma=0.5, theta=7.0)
        assert repr(spec) == (
            "SweepSpec(k_min=0.0, k_max=3.0, k_steps=4, p_min=0.125, p_max=0.875, p_steps=5, gamma=0.5, theta=7.0)")
        twin = rebuild(spec)
        assert twin is not spec and twin == spec and hash(twin) == hash(spec)
        assert twin._c == spec._c and twin._ps == spec._ps
        for as_json in False, True:
            assert list(stream_sweep(twin, as_json)) == list(stream_sweep(spec, as_json))

    @given(scenario_params())
    def test_derived_values_equal_the_public_functions(self, params):
        assert params.delta.hex() == overlap(params.k).hex()
        assert params.c.hex() == (params.gamma * math.cos(params.theta)).hex()
