"""Brute-force spatial-grid reconstruction of the states and the bound.

Everything here re-derives the closed-form quantities from first
principles: sample the Gaussian point-spread wavefunctions on a dense 1-D
grid, integrate overlaps with trapezoid weights, orthonormalize the pair
with Gram-Schmidt, project the two-source operator onto that numerical
basis and diagonalize with LAPACK.  No analytic shortcut from the rest of
the package is reused, which makes the agreement tests meaningful.  These
routines are meant for verification, not for hot paths.  Like the
closed-form kernel, they run in stages: `_sample` per separation k,
`_project` per (k, c) and `_decide` per prior p.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridAccuracyError
from .kernel import (
    DensityMatrix2, ScenarioParams, _pair_terms, _prior_terms, _require_count,
    _require_effective_coherence, _require_normalizable, _require_prior, _require_separation,
)
from .kernel import overlap as closed_overlap
from .kernel import rho2 as closed_rho2

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
        _require_count(self.n_points, 2, "n_points must be an integer >= 2")

    @classmethod
    def for_separation(cls, k: float, n_points: int = 4001) -> "SpatialGrid":
        """Default window [-8, 8 + k] sigma, symmetric about the source
        midpoint k/2; 4001 points keep the spacing at (16 + k)/4000."""
        _require_separation(k)
        return cls(-8.0, 8.0 + k, n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    # Built once per grid and read-only, since every inner product reads them.
    @cached_property
    def xs(self) -> np.ndarray:
        xs = np.linspace(self.x_min, self.x_max, self.n_points)
        xs.flags.writeable = False
        return xs

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        w.flags.writeable = False
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


def psf_state(grid: SpatialGrid, center: float) -> np.ndarray:
    """Sample the Gaussian PSF wavefunction centred at `center` and
    renormalize it numerically on the grid: the L2-normalized amplitudes."""
    raw = (2.0 * math.pi) ** -0.25 * np.exp(-((grid.xs - center) ** 2) / 4.0)
    raw_norm = float(np.sum(raw * raw * grid.weights))
    if not raw_norm > 0.0:
        raise GridAccuracyError(f"state at {center!r} vanishes on the grid (norm {raw_norm!r})")
    amplitudes = raw / math.sqrt(raw_norm)
    norm = float(np.sum(amplitudes**2 * grid.weights))
    if not abs(norm - 1.0) <= 1e-8:
        raise GridAccuracyError(f"state norm {norm!r} deviates from 1 beyond 1e-8")
    return amplitudes


def _inner(grid: SpatialGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b * grid.weights))


#: The sources at 0 and k sampled on `grid`, their quadrature overlap, their
#: orthonormalized basis and psi0's components in it.
_Sample = namedtuple("_Sample", "grid psi0 psis overlap basis proj0")


def _sample(k: float, grid: SpatialGrid | None) -> _Sample:
    """Per-k stage, on `SpatialGrid.for_separation(k)` by default.  The basis
    comes from Gram-Schmidt with one re-orthogonalization pass and has one
    vector when the pair is numerically colinear (coincident sources)."""
    _require_separation(k)
    if grid is None:
        grid = SpatialGrid.for_separation(k)
    grid.require_accuracy(k)
    psi0, psis = psf_state(grid, 0.0), psf_state(grid, k)
    e0 = psi0 / math.sqrt(_inner(grid, psi0, psi0))
    w = psis - _inner(grid, e0, psis) * e0
    w = w - _inner(grid, e0, w) * e0
    norm = math.sqrt(_inner(grid, w, w))
    basis = [e0] if norm < _COLINEAR_EPS else [e0, w / norm]
    proj0 = np.array([_inner(grid, psi0, e) for e in basis])
    return _Sample(grid, psi0, psis, _inner(grid, psi0, psis), basis, proj0)


def _project(sample: _Sample, c: float) -> list[list[float]]:
    """Per-(k, c) stage: N*(|psi0><psi0| + |psis><psis| + c*(|psi0><psis| +
    |psis><psi0|)) as the 1x1 or 2x2 matrix of its inner products with the
    basis."""
    grid, psi0, psis, basis = sample.grid, sample.psi0, sample.psis, sample.basis
    _require_normalizable(sample.overlap, c)
    norm = 0.5 / (1.0 + c * sample.overlap)
    op = []
    for e in basis:
        a0, a_s = _inner(grid, psi0, e), _inner(grid, psis, e)
        op.append(norm * (psi0 * (a0 + c * a_s) + psis * (a_s + c * a0)))
    return [[_inner(grid, e, op_e) for op_e in op] for e in basis]


def _density(m: list[list[float]]) -> DensityMatrix2:
    """rho_2 from a projection, with its off-diagonal pair averaged."""
    if len(m) == 1:
        return DensityMatrix2(m[0][0], 0.0, 0.0)
    return DensityMatrix2(m[0][0], 0.5 * (m[0][1] + m[1][0]), m[1][1])


def _decide(m: list[list[float]], proj0: np.ndarray, p: float) -> float:
    """Per-p stage.  The weighted difference operator has rank <= 2, so its
    nonzero eigenvalues are those of its projection onto the
    orthonormalized pair, obtained here with a numerical eigensolver."""
    lam = p * np.array(m) - np.outer((1.0 - p) * proj0, proj0)
    lam = 0.5 * (lam + lam.T)
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(lam))))
    return min(0.5, max(0.0, 0.5 * (1.0 - tn)))


def grid_overlap(k: float, grid: SpatialGrid | None = None) -> float:
    """Overlap of the two sampled PSF states, by quadrature."""
    return _sample(k, grid).overlap


def grid_rho2(k: float, c: float, grid: SpatialGrid | None = None) -> DensityMatrix2:
    """Two-source state rebuilt in grid space and projected onto the
    numerically orthonormalized pair."""
    _require_effective_coherence(c)
    return _density(_project(_sample(k, grid), c))


def grid_helstrom(params: ScenarioParams, grid: SpatialGrid | None = None) -> float:
    """Minimum error probability recomputed entirely in grid space."""
    sample = _sample(params.k, grid)
    return _decide(_project(sample, params.c), sample.proj0, params.p)


class VerificationReport(NamedTuple):
    """Largest absolute disagreements between grid space and closed form,
    in the order `cohdet verify` prints them."""

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
        sample = _sample(k, grid)
        worst_overlap = max(worst_overlap, abs(sample.overlap - delta))
        for c in c_values:
            reference = closed_rho2(delta, c)
            projection = _project(sample, c)
            reconstructed = _density(projection)
            worst_rho2 = max(
                worst_rho2,
                abs(reconstructed.a11 - reference.a11),
                abs(reconstructed.a12 - reference.a12),
                abs(reconstructed.a22 - reference.a22),
            )
            pair = _pair_terms(delta, c)
            for p in p_values:
                _require_prior(p)
                grid_bound = _decide(projection, sample.proj0, p)
                worst_helstrom = max(worst_helstrom, abs(grid_bound - _prior_terms(pair, p)[5]))
    return VerificationReport(worst_overlap, worst_rho2, worst_helstrom)
