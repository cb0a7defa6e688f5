import math
import warnings

import numpy as np
import pytest

from cohdet import (
    DegenerateScenarioError,
    DomainError,
    GridAccuracyError,
    ScenarioParams,
    SpatialGrid,
    equivalence_report,
    grid_helstrom,
    grid_overlap,
    grid_rho2,
    helstrom_bound,
    overlap,
    rho2,
)
from cohdet import oracle
from cohdet.oracle import MAX_POINTS, TOLERANCE, _density, _eigenvalues, _inner, psf_state

EPS = np.finfo(float).eps

RHO2_K2_C0 = (0.6839397205857212, 0.24111416276052183, 0.31606027941427883)


def trapezoid_weights(grid):
    """The trapezoid rule's weights on `grid`: the spacing, halved at both ends."""
    step = grid.spacing
    return [0.5 * step] + [step] * (grid.n_points - 2) + [0.5 * step]


class TestSpatialGrid:
    def test_default_window_geometry(self):
        grid = SpatialGrid.for_separation(2.0)
        assert grid.x_min == -8.0 and grid.x_max == 10.0
        assert grid.n_points == 4001
        midpoint = 0.5 * (grid.x_min + grid.x_max)
        assert midpoint == pytest.approx(1.0, abs=1e-12)
        assert grid.spacing <= 0.02

    def test_rejects_bad_windows(self):
        for x_min, x_max in (1.0, 1.0), (-8.0, math.inf), (math.nan, 8.0), (-math.inf, 8.0):
            with pytest.raises(DomainError, match="^invalid grid window"):
                SpatialGrid(x_min, x_max)
        with pytest.raises(DomainError):
            SpatialGrid(0.0, 1.0, n_points=1)

    def test_accuracy_requirements(self):
        with pytest.raises(GridAccuracyError):
            SpatialGrid.for_separation(1.0, n_points=101).require_accuracy(1.0)
        with pytest.raises(GridAccuracyError):
            SpatialGrid(-8.0, 8.0, n_points=1001).require_accuracy(1.0)  # not centred on k/2
        with pytest.raises(GridAccuracyError):
            SpatialGrid(-2.0, 3.0, n_points=2001).require_accuracy(1.0)  # too short
        SpatialGrid.for_separation(1.0).require_accuracy(1.0)
        # spacing 0.02 and a window of exactly 2*MARGIN pass: only the point count refuses
        with pytest.raises(GridAccuracyError, match=r"^need at least 1001 points, got 601$"):
            SpatialGrid(-6.0, 6.0, 601).require_accuracy(0.0)
        grid = SpatialGrid(-6.0, 6.0, 1201)  # a window exactly 2*MARGIN + k wide
        grid.require_accuracy(0.0)
        with pytest.raises(GridAccuracyError, match=r"too short for separation 1e-09$"):
            grid.require_accuracy(1e-9)

    def test_weights_integrate_to_window_length(self):
        grid = SpatialGrid.for_separation(0.0, n_points=1601)
        assert float(np.sum(trapezoid_weights(grid))) == pytest.approx(16.0, rel=1e-12)

    def test_samples_are_built_once_and_read_only(self):
        grid = SpatialGrid.for_separation(1.0)
        # The points are the one sample a grid keeps: `_inner` needs no weights.
        assert not hasattr(grid, "weights") and grid.xs is grid.xs
        with pytest.raises(TypeError):
            grid.xs[0] = 1.0

    def test_largest_grid_is_sampled(self):
        grid = SpatialGrid(-8.0, 8.0, MAX_POINTS)
        assert len(grid.xs) == MAX_POINTS and grid.xs[-1] == 8.0

    @pytest.mark.parametrize("n_points", [MAX_POINTS + 1, 10**9, 10**300])
    def test_more_points_are_refused_before_sampling(self, n_points):
        # Accurate enough, but too large to hold: refused when the grid is built.
        message = f"^n_points must be at most {MAX_POINTS}, got {n_points}$"
        with pytest.raises(DomainError, match=message):
            SpatialGrid.for_separation(1.0, n_points)
        with pytest.raises(DomainError, match=message):
            SpatialGrid(-8.0, 8.0, n_points)
        with pytest.raises(DomainError, match=message):
            equivalence_report(n_points=n_points)

    @pytest.mark.parametrize("x_min,x_max,n_points", [(-8.0, 10.0, 4001), (-8.0, 8.3, 8001), (0.0, 1.0, 2)])
    def test_points_are_numpy_linspace(self, x_min, x_max, n_points):
        grid = SpatialGrid(x_min, x_max, n_points)
        assert np.array_equal(grid.xs, np.linspace(x_min, x_max, n_points))


class TestPsfState:
    def test_normalized_on_grid(self):
        grid = SpatialGrid.for_separation(3.0)
        for center in (0.0, 3.0):
            state = psf_state(grid, center)
            norm = float(np.sum(np.asarray(state) ** 2 * trapezoid_weights(grid)))
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_peak_sits_at_center(self):
        grid = SpatialGrid.for_separation(2.0)
        state = psf_state(grid, 2.0)
        assert grid.xs[int(np.argmax(state))] == pytest.approx(2.0, abs=grid.spacing)

    def test_center_outside_window_refused(self):
        # every sample underflows to 0: refused before the amplitudes divide by a zero norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridAccuracyError):
                psf_state(SpatialGrid(-8.0, 8.0), 1000.0)

    def test_state_at_the_window_edge_refused(self):
        # a handful of samples in the tail: nonzero, but the renormalized
        # norm misses 1 (at 46.0 it still passes; from 46.5 it vanishes)
        psf_state(SpatialGrid(-8.0, 8.0), 46.0)
        with pytest.raises(GridAccuracyError, match=r"^state norm \S+ deviates from 1 beyond 1e-8$"):
            psf_state(SpatialGrid(-8.0, 8.0), 46.2)


class TestGridOverlap:
    def test_coincident(self):
        assert grid_overlap(0.0) == pytest.approx(1.0, abs=1e-8)

    def test_value_at_k2(self):
        assert grid_overlap(2.0) == pytest.approx(0.606531, abs=1e-6)
        assert grid_overlap(2.0) == pytest.approx(overlap(2.0), abs=1e-10)

    def test_far_tail(self):
        assert grid_overlap(8.0) == pytest.approx(math.exp(-8.0), abs=1e-6)

    @pytest.mark.parametrize("k,grid", [
        (math.nan, SpatialGrid(-8.0, 8.0)),
        (-3.0, SpatialGrid(-9.5, 6.5)),  # a window that fits sources at 0 and -3
    ])
    def test_rejects_bad_separation_on_a_given_grid(self, k, grid):
        with pytest.raises(DomainError, match="separation k must be finite and >= 0"):
            grid_overlap(k, grid)

    def test_refinement_keeps_or_improves_accuracy(self):
        # quadrature error must drop at least 4x per spacing halving until it
        # bottoms out below 1e-10 (it sits at the floor for all valid grids)
        errors = []
        for n_points in (1001, 2001, 4001):
            grid = SpatialGrid.for_separation(2.0, n_points)
            errors.append(abs(grid_overlap(2.0, grid) - overlap(2.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 4.0 or fine <= 1e-10


class TestGridRho2:
    def test_coincident_sources(self):
        r = grid_rho2(0.0, 0.3)
        assert r.a11 == pytest.approx(1.0, abs=1e-6)
        assert r.a12 == pytest.approx(0.0, abs=1e-6)
        assert r.a22 == pytest.approx(0.0, abs=1e-6)

    def test_matches_reference_entries(self):
        r = grid_rho2(2.0, 0.0)
        assert r.a11 == pytest.approx(RHO2_K2_C0[0], abs=1e-6)
        assert r.a12 == pytest.approx(RHO2_K2_C0[1], abs=1e-6)
        assert r.a22 == pytest.approx(RHO2_K2_C0[2], abs=1e-6)

    @pytest.mark.parametrize("k,c", [(1.0, 0.45), (0.5, -0.8), (3.0, 0.9)])
    def test_equivalent_to_closed_form(self, k, c):
        reconstructed = grid_rho2(k, c)
        reference = rho2(overlap(k), c)
        assert reconstructed.a11 == pytest.approx(reference.a11, abs=1e-6)
        assert reconstructed.a12 == pytest.approx(reference.a12, abs=1e-6)
        assert reconstructed.a22 == pytest.approx(reference.a22, abs=1e-6)

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateScenarioError):
            grid_rho2(0.0, -1.0)

    def test_rejects_bad_coherence(self):
        with pytest.raises(DomainError):
            grid_rho2(1.0, 1.5)

    def test_quadrature_at_the_singular_point_refused(self):
        # the closed form's 1 + delta*c is k**2/8 > 0, but the quadrature's overlap rounds to 1
        with pytest.raises(GridAccuracyError, match=r"^quadrature puts 1 \+ delta\*c at 0\.0, not above 0$"):
            grid_rho2(1e-9, -1.0)

    @pytest.mark.parametrize("k", [0.01, 1e-3, 1e-4])
    def test_returns_next_to_singular_point(self, k):
        # quadrature cancels next to 1 + c*delta = 0 but stays within TOLERANCE
        assert abs(grid_rho2(k, -1.0).trace() - 1.0) <= 1e-6


class TestInner:
    """The trapezoid rule summed exactly, against the explicit weighted products."""

    @pytest.mark.parametrize("k,n_points", [(0.0, 1001), (2.5, 4001), (6.0, 8001)])
    def test_matches_weighted_products(self, k, n_points):
        grid = SpatialGrid.for_separation(k, n_points)
        signed = np.random.default_rng(n_points).uniform(-1.0, 1.0, n_points).tolist()
        vectors = (psf_state(grid, 0.0), psf_state(grid, k), signed)
        for a in vectors:
            for b in vectors:
                products = [w * x * y for w, x, y in zip(trapezoid_weights(grid), a, b)]
                scale = math.fsum(map(abs, products))
                assert abs(_inner(grid, a, b) - math.fsum(products)) <= 4.0 * EPS * scale
                assert _inner(grid, a, b) == _inner(grid, b, a)

    def test_two_points_weigh_half_each(self):
        grid = SpatialGrid(0.0, 2.0, 2)
        assert _inner(grid, [3.0, 5.0], [7.0, 11.0]) == 0.5 * 2.0 * (21.0 + 55.0)


class TestEigenvalues:
    """The oracle's own 2x2 symmetric eigenvalues and trace norm, against LAPACK."""

    @staticmethod
    def check(a, b, d, rel=4.0 * EPS):
        larger, other = _eigenvalues(a, b, d)
        assert abs(larger) >= abs(other)
        want = np.linalg.eigvalsh(np.array([[a, b], [b, d]]))
        scale = max(abs(want[0]), abs(want[1]))
        for got, expected in zip(sorted((larger, other)), want):
            assert abs(got - expected) <= rel * scale
        trace_norm = abs(larger) + abs(other)
        assert abs(trace_norm - float(np.sum(np.abs(want)))) <= 2.0 * rel * scale

    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(20240817)
        for a, b, d in rng.uniform(-1.0, 1.0, (500, 3)):
            self.check(float(a), float(b), float(d))
        for a, b, d in rng.normal(0.0, 1e-3, (100, 3)):
            self.check(float(a), float(b), float(d))

    @pytest.mark.parametrize("v", [(0.6, 0.8), (1.0, 0.0), (0.0, -1.0), (0.3, -0.7)])
    def test_rank_one(self, v):
        x, y = v
        self.check(x * x, x * y, y * y)
        self.check(-x * x, -x * y, -y * y)

    def test_zero_matrix(self):
        assert _eigenvalues(0.0, 0.0, 0.0) == (0.0, 0.0)
        self.check(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("a,b,d,tiny", [
        (1.0, 0.0, 1e-20, 1e-20),
        (1.0, 1e-10, 2e-20, 1e-20),
        (-1.0, 1e-10, -2e-20, -1e-20),
    ])
    def test_tiny_eigenvalue_keeps_relative_accuracy(self, a, b, d, tiny):
        # half the trace less the radius would lose it to cancellation; det/larger does not
        larger, other = _eigenvalues(a, b, d)
        assert other == pytest.approx(tiny, rel=1e-9)
        want = np.linalg.eigvalsh(np.array([[a, b], [b, d]]))
        assert other == pytest.approx(min(want, key=abs), rel=1e-12)


class TestDensity:
    """The check of a state built by quadrature, the one state built outside the kernel."""

    def test_accepts_a_state(self):
        assert _density([[0.5, 0.1], [0.1, 0.5]]) == (0.5, 0.1, 0.5)
        assert _density([[1.0, 0.0], [0.0, 0.0]]) == (1.0, 0.0, 0.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(GridAccuracyError, match="trace"):
            _density([[0.6, 0.0], [0.0, 0.5]])

    def test_rejects_indefinite(self):
        with pytest.raises(GridAccuracyError, match="positive semidefinite"):
            _density([[0.5, 0.6], [0.6, 0.5]])

    def test_rejects_nonfinite(self):
        with pytest.raises(GridAccuracyError):
            _density([[0.5, math.nan], [math.nan, 0.5]])


class TestGridHelstrom:
    def test_coincident_sources(self):
        params = ScenarioParams(k=0.0, gamma=0.2, theta=0.4, p=0.7)
        assert grid_helstrom(params) == pytest.approx(0.3, abs=1e-6)

    def test_value_at_k2(self):
        params = ScenarioParams(k=2.0, gamma=0.0, theta=0.0, p=0.5)
        assert grid_helstrom(params) == pytest.approx(0.301233, abs=1e-5)
        assert grid_helstrom(params) == pytest.approx(helstrom_bound(params), abs=1e-6)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_incoherent_closed_form(self, k):
        params = ScenarioParams(k=k, gamma=0.0, theta=0.0, p=0.5)
        delta = overlap(k)
        reference = 0.5 - math.sqrt(1.0 - delta * delta) / 4.0
        assert grid_helstrom(params) == pytest.approx(reference, abs=1e-6)

    def test_coarse_grid_refused(self):
        params = ScenarioParams(k=1.0, gamma=0.0, theta=0.0, p=0.5)
        with pytest.raises(GridAccuracyError):
            grid_helstrom(params, SpatialGrid.for_separation(1.0, n_points=101))

    def test_wide_window_at_too_coarse_a_spacing_refused(self):
        # enough points for the check on their count, too few for the k = 10 window
        grid = SpatialGrid.for_separation(10.0, 1001)
        with pytest.raises(GridAccuracyError, match=r"^spacing 0\.026 exceeds 0\.02 sigma$"):
            grid_helstrom(ScenarioParams(10.0, 0.3, 1.0, 0.4), grid)


class TestEquivalenceReport:
    def test_default_grid_passes(self):
        report = equivalence_report()
        assert report.max_overlap_error <= 1e-6
        assert report.max_rho2_error <= 1e-6
        assert report.max_helstrom_error <= 1e-6
        assert report.tolerance == TOLERANCE == 1e-6
        assert report.passed

    def test_maxima_equal_the_public_functions(self):
        # k = 0 takes the colinear basis, whose second components are 0; c < 0 flips theta to pi
        ks, cs, ps, n_points = [0.0, 0.7, 2.5], [-0.8, 0.0, 0.6], [0.05, 0.5, 0.95], 2001
        overlap_error = rho2_error = helstrom_error = 0.0
        for k in ks:
            grid = SpatialGrid.for_separation(k, n_points)
            overlap_error = max(overlap_error, abs(grid_overlap(k, grid) - overlap(k)))
            for c in cs:
                got, want = grid_rho2(k, c, grid), rho2(overlap(k), c)
                for name in ("a11", "a12", "a22"):
                    rho2_error = max(rho2_error, abs(getattr(got, name) - getattr(want, name)))
                for p in ps:
                    params = ScenarioParams(k=k, gamma=abs(c), theta=0.0 if c >= 0.0 else math.pi, p=p)
                    error = abs(grid_helstrom(params, grid) - helstrom_bound(params))
                    helstrom_error = max(helstrom_error, error)
        report = equivalence_report(ks, cs, ps, n_points)
        assert report.max_overlap_error == overlap_error
        assert report.max_rho2_error == rho2_error
        assert report.max_helstrom_error == helstrom_error

    @pytest.mark.parametrize("values,message", [
        ({"c_values": (-0.5, 0.0, 1.5)}, "effective coherence must lie in"),
        ({"p_values": (0.1, 0.5, math.nan)}, "prior p must lie in"),
    ])
    def test_bad_value_is_refused_before_any_grid_is_sampled(self, monkeypatch, values, message):
        samples = []
        sample = oracle._sample
        monkeypatch.setattr(oracle, "_sample", lambda *args: samples.append(args) or sample(*args))
        with pytest.raises(DomainError, match=message):
            equivalence_report(**values)
        assert samples == []
