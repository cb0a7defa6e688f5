"""Brute-force spatial-grid reconstruction of the states and the bound.

Everything here re-derives the closed-form quantities from first
principles: sample the Gaussian point-spread wavefunctions on a dense 1-D
grid, integrate overlaps with trapezoid weights, orthonormalize the pair
with Gram-Schmidt, project the two-source operator onto that numerical
basis and diagonalize with LAPACK.  No analytic shortcut from the rest of
the package is reused, which makes the agreement tests meaningful.  These
routines are meant for verification, not for hot paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScenarioError, DomainError, GridAccuracyError
from .helstrom import helstrom_bound
from .states import DEGENERACY_EPS, DensityMatrix2, ScenarioParams
from .states import overlap as closed_overlap
from .states import rho2 as closed_rho2

#: Accuracy requirements, in PSF widths: at least this many points, at most
#: this spacing, and at least a 6 sigma margin beyond each source.
MIN_POINTS = 1001
MAX_SPACING = 0.02
MARGIN = 6.0

#: Residual norm below which the two sampled states count as colinear.
_COLINEAR_EPS = 1e-7


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1-D sampling window for the image-plane wavefunctions, in
    units of the PSF width sigma."""

    x_min: float
    x_max: float
    n_points: int = 4001

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)) or self.x_max <= self.x_min:
            raise DomainError(f"invalid grid window [{self.x_min!r}, {self.x_max!r}]")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise DomainError(f"n_points must be an integer >= 2, got {self.n_points!r}")

    @classmethod
    def for_separation(cls, k: float, n_points: int = 4001) -> "SpatialGrid":
        """Default window [-8, 8 + k] sigma, symmetric about the source
        midpoint k/2; 4001 points keep the spacing at (16 + k)/4000."""
        if not math.isfinite(k) or k < 0.0:
            raise DomainError(f"separation k must be finite and >= 0, got {k!r}")
        return cls(-8.0, 8.0 + k, n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w

    def require_accuracy(self, k: float) -> None:
        """Reject grids that cannot support the promised 1e-6 agreement for
        sources at 0 and k."""
        if self.n_points < MIN_POINTS:
            raise GridAccuracyError(f"need at least {MIN_POINTS} points, got {self.n_points}")
        if self.spacing > MAX_SPACING:
            raise GridAccuracyError(
                f"spacing {self.spacing:.4g} exceeds {MAX_SPACING} sigma"
            )
        if self.x_max - self.x_min < 2.0 * MARGIN + k:
            raise GridAccuracyError(
                f"window [{self.x_min}, {self.x_max}] too short for separation {k}"
            )
        midpoint = 0.5 * (self.x_min + self.x_max)
        if abs(midpoint - 0.5 * k) > 1e-9:
            raise GridAccuracyError(
                f"window must be symmetric about the source midpoint {0.5 * k}, centre is {midpoint}"
            )


@dataclass(frozen=True, eq=False)
class GridState:
    """L2-normalized sampled wavefunction on a grid."""

    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        norm = float(np.sum(self.amplitudes**2 * self.grid.weights))
        if abs(norm - 1.0) > 1e-8:
            raise GridAccuracyError(f"state norm {norm!r} deviates from 1 beyond 1e-8")


def psf_state(grid: SpatialGrid, center: float) -> GridState:
    """Sample the Gaussian PSF wavefunction centred at `center` and
    renormalize it numerically on the grid."""
    raw = (2.0 * math.pi) ** -0.25 * np.exp(-((grid.xs - center) ** 2) / 4.0)
    norm = math.sqrt(float(np.sum(raw * raw * grid.weights)))
    return GridState(grid, raw / norm)


def _inner(grid: SpatialGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b * grid.weights))


def _source_states(grid: SpatialGrid, k: float) -> tuple[np.ndarray, np.ndarray]:
    return psf_state(grid, 0.0).amplitudes, psf_state(grid, k).amplitudes


def _orthonormal_pair(
    grid: SpatialGrid, v0: np.ndarray, v1: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gram-Schmidt with one re-orthogonalization pass; the second vector is
    None when the pair is numerically colinear (coincident sources)."""
    e0 = v0 / math.sqrt(_inner(grid, v0, v0))
    w = v1 - _inner(grid, e0, v1) * e0
    w = w - _inner(grid, e0, w) * e0
    norm = math.sqrt(_inner(grid, w, w))
    if norm < _COLINEAR_EPS:
        return e0, None
    return e0, w / norm


def _apply_pair_operator(
    grid: SpatialGrid, psi0: np.ndarray, psis: np.ndarray, c: float, v: np.ndarray
) -> np.ndarray:
    """Apply |psi0><psi0| + |psis><psis| + c*(|psi0><psis| + |psis><psi0|)."""
    a0 = _inner(grid, psi0, v)
    a_s = _inner(grid, psis, v)
    return psi0 * (a0 + c * a_s) + psis * (a_s + c * a0)


def _grid_normalization(grid: SpatialGrid, psi0: np.ndarray, psis: np.ndarray, c: float) -> float:
    q = 1.0 + c * _inner(grid, psi0, psis)
    if q <= DEGENERACY_EPS:
        raise DegenerateScenarioError(
            f"1 + delta*c = {q:.3e} on the grid: state is not normalizable"
        )
    return 0.5 / q


def grid_overlap(k: float, grid: SpatialGrid | None = None) -> float:
    """Overlap of the two sampled PSF states, by quadrature."""
    if grid is None:
        grid = SpatialGrid.for_separation(k)
    grid.require_accuracy(k)
    psi0, psis = _source_states(grid, k)
    return _inner(grid, psi0, psis)


def grid_rho2(k: float, c: float, grid: SpatialGrid | None = None) -> DensityMatrix2:
    """Two-source state rebuilt in grid space and projected onto the
    numerically orthonormalized pair."""
    if not math.isfinite(c) or not -1.0 <= c <= 1.0:
        raise DomainError(f"effective coherence must lie in [-1, 1], got {c!r}")
    if grid is None:
        grid = SpatialGrid.for_separation(k)
    grid.require_accuracy(k)
    psi0, psis = _source_states(grid, k)
    norm = _grid_normalization(grid, psi0, psis, c)
    e0, e1 = _orthonormal_pair(grid, psi0, psis)
    op_e0 = norm * _apply_pair_operator(grid, psi0, psis, c, e0)
    if e1 is None:
        return DensityMatrix2(_inner(grid, e0, op_e0), 0.0, 0.0)
    op_e1 = norm * _apply_pair_operator(grid, psi0, psis, c, e1)
    m01 = _inner(grid, e0, op_e1)
    m10 = _inner(grid, e1, op_e0)
    return DensityMatrix2(_inner(grid, e0, op_e0), 0.5 * (m01 + m10), _inner(grid, e1, op_e1))


def grid_helstrom(params: ScenarioParams, grid: SpatialGrid | None = None) -> float:
    """Minimum error probability recomputed entirely in grid space.

    The weighted difference operator has rank <= 2, so its nonzero
    eigenvalues are those of its projection onto the orthonormalized pair,
    obtained here with a numerical eigensolver.
    """
    if grid is None:
        grid = SpatialGrid.for_separation(params.k)
    grid.require_accuracy(params.k)
    psi0, psis = _source_states(grid, params.k)
    c = params.c
    p = params.p
    norm = _grid_normalization(grid, psi0, psis, c)
    e0, e1 = _orthonormal_pair(grid, psi0, psis)
    basis = [e0] if e1 is None else [e0, e1]
    dim = len(basis)
    lam = np.empty((dim, dim))
    proj0 = [_inner(grid, psi0, e) for e in basis]
    op = [norm * _apply_pair_operator(grid, psi0, psis, c, e) for e in basis]
    for i in range(dim):
        for j in range(dim):
            lam[i, j] = p * _inner(grid, basis[i], op[j]) - (1.0 - p) * proj0[i] * proj0[j]
    lam = 0.5 * (lam + lam.T)
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(lam))))
    return min(0.5, max(0.0, 0.5 * (1.0 - tn)))


@dataclass(frozen=True)
class VerificationReport:
    """Largest absolute disagreements between grid space and closed form."""

    max_overlap_error: float
    max_rho2_error: float
    max_helstrom_error: float
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        worst = max(self.max_overlap_error, self.max_rho2_error, self.max_helstrom_error)
        return worst <= self.tolerance


def equivalence_report(
    k_values: list[float] | None = None,
    c_values: list[float] | None = None,
    p_values: list[float] | None = None,
    n_points: int = 4001,
) -> VerificationReport:
    """Sweep a (k, c, p) verification grid and report the worst |grid -
    closed form| discrepancy for the overlap, the two-source state and the
    error bound.  Defaults to the 5 x 5 x 5 grid over k in [0, 4], c in
    [-0.9, 0.9] and p in [0.1, 0.9]."""
    if k_values is None:
        k_values = [0.0, 1.0, 2.0, 3.0, 4.0]
    if c_values is None:
        c_values = [-0.9, -0.45, 0.0, 0.45, 0.9]
    if p_values is None:
        p_values = [0.1, 0.3, 0.5, 0.7, 0.9]

    worst_overlap = 0.0
    worst_rho2 = 0.0
    worst_helstrom = 0.0
    for k in k_values:
        grid = SpatialGrid.for_separation(k, n_points)
        delta = closed_overlap(k)
        worst_overlap = max(worst_overlap, abs(grid_overlap(k, grid) - delta))
        for c in c_values:
            reference = closed_rho2(delta, c)
            reconstructed = grid_rho2(k, c, grid)
            worst_rho2 = max(
                worst_rho2,
                abs(reconstructed.a11 - reference.a11),
                abs(reconstructed.a12 - reference.a12),
                abs(reconstructed.a22 - reference.a22),
            )
            gamma = abs(c)
            theta = 0.0 if c >= 0.0 else math.pi
            for p in p_values:
                params = ScenarioParams(k=k, gamma=gamma, theta=theta, p=p)
                worst_helstrom = max(
                    worst_helstrom, abs(grid_helstrom(params, grid) - helstrom_bound(params))
                )
    return VerificationReport(worst_overlap, worst_rho2, worst_helstrom)
