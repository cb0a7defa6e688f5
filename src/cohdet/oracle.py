"""Brute-force spatial-grid reconstruction of the states and the bound.

Everything here re-derives the closed-form quantities from first
principles: sample the Gaussian point-spread wavefunctions on a dense 1-D
grid, integrate overlaps with the trapezoid rule, summed exactly with
`math.fsum`, orthonormalize the pair with Gram-Schmidt, project the
two-source operator onto that numerical basis and diagonalize it with a
stable 2x2 eigenvalue formula of this module's own.  Every projection is
2x2, also for coincident sources.  No analytic shortcut from the rest of
the package is reused, which makes the agreement tests meaningful.  These
routines are meant for verification, not for hot paths, and need no
numpy: `verify`'s block at 4001 or 8001 points takes less time in plain
Python than importing numpy does.  Like the closed-form kernel, they run
in stages, each written once: `_sample` per separation k, `_project` per
(k, c) and `_decide` per prior p.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from operator import mul
from typing import NamedTuple

from .errors import DomainError, GridAccuracyError
from .kernel import (
    Observable2, ScenarioParams, _pair_terms, _prior_terms, _Record, _require_count,
    _require_effective_coherence, _require_prior, _require_separation, _separation_terms,
)

#: The agreement between grid space and closed form that `verify` promises,
#: and the accuracy every grid state must meet.
TOLERANCE = 1e-6

#: Accuracy requirements, in PSF widths: at least this many points, at most
#: this spacing, and at least a 6 sigma margin beyond each source.
MIN_POINTS = 1001
MAX_SPACING = 0.02
MARGIN = 6.0

#: The most points a grid samples: a `verify` process at this size peaks at
#: about 245 MiB resident (some 230 bytes per point); more are a DomainError.
MAX_POINTS = 10**6

#: Residual norm below which the two sampled states count as colinear.
_COLINEAR_EPS = 1e-7


class SpatialGrid(_Record):
    """Uniform 1-D sampling window for the image-plane wavefunctions, in
    units of the PSF width sigma."""

    __slots__ = ("x_min", "x_max", "n_points", "_xs")
    _fields = ("x_min", "x_max", "n_points")

    def __init__(self, x_min: float, x_max: float, n_points: int = 4001) -> None:
        if not (math.isfinite(x_min) and math.isfinite(x_max)) or x_max <= x_min:
            raise DomainError(f"invalid grid window [{x_min!r}, {x_max!r}]")
        n_points = _require_count(n_points, 2, "n_points must be an integer >= 2")
        for name, value in zip(self.__slots__, (x_min, x_max, n_points, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def for_separation(cls, k: float, n_points: int = 4001) -> "SpatialGrid":
        """Default window [-8, 8 + k] sigma, symmetric about the source
        midpoint k/2; 4001 points keep the spacing at (16 + k)/4000."""
        _require_separation(k)
        return cls(-8.0, 8.0 + k, n_points)

    @property
    def spacing(self) -> float:
        """The step between points; a count too large for a double has none,
        a DomainError raised before anything is sampled."""
        try:
            return (self.x_max - self.x_min) / (self.n_points - 1)
        except OverflowError:
            raise DomainError(
                "n_points too large for a floating-point grid spacing (about 1.8e308 at most)"
            ) from None

    @property
    def xs(self) -> tuple[float, ...]:
        """The points x_min + i*spacing, ending exactly at x_max, built on
        first use as a tuple that no caller can change; more than MAX_POINTS
        are refused before any is built."""
        if self._xs is None:
            if self.n_points > MAX_POINTS:
                raise DomainError(f"n_points must be at most {MAX_POINTS}, got {self.n_points}")
            x_min, step = self.x_min, self.spacing
            xs = tuple([x_min + i * step for i in range(self.n_points - 1)]) + (self.x_max,)
            object.__setattr__(self, "_xs", xs)
        return self._xs

    def require_accuracy(self, k: float) -> None:
        """Reject grids that cannot support the promised TOLERANCE agreement
        for sources at 0 and k."""
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


def psf_state(grid: SpatialGrid, center: float) -> list[float]:
    """Sample the Gaussian PSF wavefunction centred at `center` and
    renormalize it numerically on the grid: the L2-normalized amplitudes."""
    peak, exp = (2.0 * math.pi) ** -0.25, math.exp
    raw = [peak * exp((x - center) * (center - x) / 4.0) for x in grid.xs]
    raw_norm = _inner(grid, raw, raw)
    if not raw_norm > 0.0:
        raise GridAccuracyError(f"state at {center!r} vanishes on the grid (norm {raw_norm!r})")
    root = math.sqrt(raw_norm)
    amplitudes = [r / root for r in raw]
    norm = _inner(grid, amplitudes, amplitudes)
    if not abs(norm - 1.0) <= 1e-8:
        raise GridAccuracyError(f"state norm {norm!r} deviates from 1 beyond 1e-8")
    return amplitudes


def _inner(grid: SpatialGrid, a: list[float], b: list[float]) -> float:
    """Trapezoid rule for the integral of a*b: the spacing times the exact
    (correctly rounded) sum of the products less half of the two end ones."""
    return grid.spacing * (math.fsum(map(mul, a, b)) - 0.5 * (a[0] * b[0] + a[-1] * b[-1]))


#: The quadrature overlap of the sources at 0 and k, the components of psi0
#: and psis in their orthonormalized basis, and the kernel's delta and dm.
_Sample = namedtuple("_Sample", "overlap proj0 projs delta dm")


def _sample(k: float, grid: SpatialGrid | None) -> _Sample:
    """Per-k stage, on `SpatialGrid.for_separation(k)` by default.  The basis
    is psi0, unit-norm from `psf_state`, and the Gram-Schmidt remainder of
    psis with one re-orthogonalization pass; psi0 and psis always have two
    components in it: when the pair is numerically colinear (coincident
    sources) there is no second basis vector, and their second components are 0."""
    _require_separation(k)
    if grid is None:
        grid = SpatialGrid.for_separation(k)
    grid.require_accuracy(k)
    psi0, psis = psf_state(grid, 0.0), psf_state(grid, k)
    along = _inner(grid, psi0, psis)
    w = [s - along * e for s, e in zip(psis, psi0)]
    along = _inner(grid, psi0, w)
    w = [v - along * e for v, e in zip(w, psi0)]
    norm = math.sqrt(_inner(grid, w, w))
    proj0, projs = [_inner(grid, psi0, psi0), 0.0], [_inner(grid, psis, psi0), 0.0]
    if norm >= _COLINEAR_EPS:
        e1 = [v / norm for v in w]
        proj0[1], projs[1] = _inner(grid, psi0, e1), _inner(grid, psis, e1)
    return _Sample(_inner(grid, psi0, psis), proj0, projs, *_separation_terms(k))


def _project(sample: _Sample, c: float) -> tuple[tuple, list[list[float]], Observable2]:
    """Per-(k, c) stage, for a checked c: the kernel's `_pair_terms` at (k, c),
    which checks the singular point and is the closed form to compare with;
    the 2x2 matrix of N*(|psi0><psi0| + |psis><psis| + c*(|psi0><psis| +
    |psis><psi0|)) between basis vectors, formed from the components of psi0
    and psis; and that projection's `_density`.  Next to the singular point
    the quadrature's own 1 + delta*c can round to 0, a fault of the grid."""
    pair = _pair_terms(sample.delta, sample.dm, c)
    one_plus_dc = 1.0 + c * sample.overlap
    if not one_plus_dc > 0.0:
        raise GridAccuracyError(f"quadrature puts 1 + delta*c at {one_plus_dc!r}, not above 0")
    norm = 0.5 / one_plus_dc
    components = list(zip(sample.proj0, sample.projs))
    columns = [(a0 + c * a_s, a_s + c * a0) for a0, a_s in components]
    projection = [[norm * (a0 * u + a_s * v) for u, v in columns] for a0, a_s in components]
    return pair, projection, _density(projection)


def _density(m: list[list[float]]) -> Observable2:
    """rho_2 from a projection, with its off-diagonal pair averaged.  The one
    state built outside the kernel, so the one whose unit trace and
    positivity are checked: a miss beyond TOLERANCE, or a non-finite entry,
    is a quadrature fault."""
    (m11, m12), (m21, m22) = m
    rho = Observable2(m11, 0.5 * (m12 + m21), m22)
    if not abs(rho.trace() - 1.0) <= TOLERANCE:
        raise GridAccuracyError(f"grid state trace {rho.trace()!r} deviates from 1 beyond {TOLERANCE}")
    if not (rho.a11 >= -TOLERANCE and rho.a22 >= -TOLERANCE and rho.det() >= -TOLERANCE):
        raise GridAccuracyError(f"grid state {tuple(rho)!r} is not positive semidefinite within {TOLERANCE}")
    return rho


def _eigenvalues(a: float, b: float, d: float) -> tuple[float, float]:
    """Eigenvalues of the symmetric [[a, b], [b, d]], the larger magnitude
    first.  That one is half the trace plus, with the trace's sign,
    hypot(half the difference, b), a sum without cancellation; the other is
    det/larger, so it keeps its relative accuracy when it is tiny."""
    half_trace = 0.5 * (a + d)
    larger = half_trace + math.copysign(math.hypot(0.5 * (a - d), b), half_trace)
    if larger == 0.0:  # the zero matrix
        return 0.0, 0.0
    return larger, (a * d - b * b) / larger


def _decide(m: list[list[float]], proj0: list[float], p: float) -> float:
    """Per-p stage.  The weighted difference operator has rank <= 2, so its
    nonzero eigenvalues are those of its projection onto the
    orthonormalized pair, the 2x2 matrix p*m - (1 - p)*|psi0><psi0| there."""
    q = 1.0 - p
    (a, b1), (b2, d) = [[p * m_ij - q * x * y for m_ij, y in zip(row, proj0)] for row, x in zip(m, proj0)]
    tn = sum(map(abs, _eigenvalues(a, 0.5 * (b1 + b2), d)))
    return max(0.0, 0.5 * (1.0 - tn))


def grid_overlap(k: float, grid: SpatialGrid | None = None) -> float:
    """Overlap of the two sampled PSF states, by quadrature."""
    return _sample(k, grid).overlap


def grid_rho2(k: float, c: float, grid: SpatialGrid | None = None) -> Observable2:
    """Two-source state rebuilt in grid space and projected onto the
    numerically orthonormalized pair."""
    _require_effective_coherence(c)
    return _project(_sample(k, grid), c)[2]


def grid_helstrom(params: ScenarioParams, grid: SpatialGrid | None = None) -> float:
    """Minimum error probability recomputed entirely in grid space, from a
    state that passes `_density`'s checks."""
    sample = _sample(params.k, grid)
    return _decide(_project(sample, params.c)[1], sample.proj0, params.p)


class VerificationReport(NamedTuple):
    """Largest absolute disagreements between grid space and closed form,
    in the order `cohdet verify` prints them."""

    max_overlap_error: float
    max_rho2_error: float
    max_helstrom_error: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        worst = max(self.max_overlap_error, self.max_rho2_error, self.max_helstrom_error)
        return worst <= self.tolerance


def equivalence_report(
    k_values: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
    c_values: Sequence[float] = (-0.9, -0.45, 0.0, 0.45, 0.9),
    p_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    n_points: int = 4001,
) -> VerificationReport:
    """Sweep a (k, c, p) verification grid and report the worst |grid -
    closed form| discrepancy for the overlap, the two-source state and the
    error bound.  Defaults to the 5 x 5 x 5 grid over k in [0, 4], c in
    [-0.9, 0.9] and p in [0.1, 0.9].  Each c and p is checked once, before
    any grid is sampled; each (k, c) is projected once, by `_project`."""
    for c in c_values:
        _require_effective_coherence(c)
    for p in p_values:
        _require_prior(p)
    worst_overlap = worst_rho2 = worst_helstrom = 0.0
    for k in k_values:
        sample = _sample(k, SpatialGrid.for_separation(k, n_points))
        worst_overlap = max(worst_overlap, abs(sample.overlap - sample.delta))
        for c in c_values:
            pair, projection, rho = _project(sample, c)
            worst_rho2 = max(worst_rho2, *(abs(got - want) for got, want in zip(rho, pair[1:4])))
            for p in p_values:
                grid_bound = _decide(projection, sample.proj0, p)
                worst_helstrom = max(worst_helstrom, abs(grid_bound - _prior_terms(pair, p)[5]))
    return VerificationReport(worst_overlap, worst_rho2, worst_helstrom)
