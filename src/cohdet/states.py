"""Scenario parameters and the one- and two-source photon states.

A faint scene is imaged through a system with a Gaussian point-spread
function of width sigma.  Photons from the known source at the origin
arrive in the wavefunction psi_0; photons from a possible second source at
separation k*sigma arrive in psi_s.  The two wavefunctions overlap with

    delta = <psi_s|psi_0> = exp(-k**2 / 8),

so both hypotheses,

    H1 (one source):   rho_1 = |psi_0><psi_0|
    H2 (two sources):  rho_2 = N * (|psi_0><psi_0| + |psi_s><psi_s|
                                    + c * (|psi_0><psi_s| + |psi_s><psi_0|)),

live in the real span of {psi_0, psi_s}.  Here c = gamma*cos(theta) is the
effective coherence between the emitters and N = 1/(2*(1 + delta*c))
restores unit trace.  Orthonormalizing {psi_0, psi_s} turns every operator
into a real symmetric 2x2 matrix, which is the representation used by the
rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateScenarioError, DomainError

#: Threshold below which 1 + delta*c is treated as singular.
DEGENERACY_EPS = 1e-12

#: Tolerance for exact-identity checks such as unit trace and positivity,
#: roughly 100x double-precision epsilon after a handful of operations.
IDENTITY_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


def overlap(k: float) -> float:
    """Overlap of the two point-spread states at dimensionless separation k."""
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"separation k must be finite and >= 0, got {k!r}")
    return math.exp(-0.125 * k * k)


def effective_coherence(gamma: float, theta: float) -> float:
    """Collapse coherence strength and phase into the single factor
    c = gamma*cos(theta); every downstream formula depends on the pair
    (gamma, theta) only through this product."""
    if not math.isfinite(gamma) or not 0.0 <= gamma <= 1.0:
        raise DomainError(f"coherence strength gamma must lie in [0, 1], got {gamma!r}")
    if not math.isfinite(theta):
        raise DomainError(f"coherence phase theta must be finite, got {theta!r}")
    return gamma * math.cos(theta)


def _require_admissible(delta: float, c: float) -> None:
    """Validate an (overlap, effective coherence) pair, rejecting the
    singular point delta*c = -1."""
    if not math.isfinite(delta) or not 0.0 <= delta <= 1.0:
        raise DomainError(f"overlap delta must lie in [0, 1], got {delta!r}")
    if not math.isfinite(c) or not -1.0 <= c <= 1.0:
        raise DomainError(f"effective coherence must lie in [-1, 1], got {c!r}")
    if 1.0 + delta * c <= DEGENERACY_EPS:
        raise DegenerateScenarioError(
            f"1 + delta*c = {1.0 + delta * c:.3e}: the two-source state is not normalizable"
        )


@dataclass(frozen=True)
class ScenarioParams:
    """Physical and statistical configuration of one detection scenario.

    k      source separation in units of the PSF width, >= 0
    gamma  coherence strength between the two sources, in [0, 1]
    theta  coherence phase in radians (stored reduced to [0, 2*pi))
    p      prior probability that the second source exists, in [0, 1]
    """

    k: float
    gamma: float
    theta: float = 0.0
    p: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or not 0.0 <= self.p <= 1.0:
            raise DomainError(f"prior p must lie in [0, 1], got {self.p!r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"coherence phase theta must be finite, got {self.theta!r}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)
        _require_admissible(self.delta, self.c)

    # Computed and validated once, at construction.
    @cached_property
    def delta(self) -> float:
        return overlap(self.k)

    @cached_property
    def c(self) -> float:
        return effective_coherence(self.gamma, self.theta)


@dataclass(frozen=True)
class Observable2:
    """Real symmetric 2x2 matrix in the orthonormal pair basis.

    Only the upper triangle is stored; symmetry holds by construction.
    """

    a11: float
    a12: float
    a22: float

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a22"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"matrix entry {name} must be finite, got {value!r}")

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12


@dataclass(frozen=True)
class DensityMatrix2(Observable2):
    """An Observable2 that is additionally unit-trace and positive
    semidefinite (within IDENTITY_TOL)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(self.trace() - 1.0) > IDENTITY_TOL:
            raise DomainError(f"density matrix trace {self.trace()!r} is not 1")
        if self.a11 < -IDENTITY_TOL or self.a22 < -IDENTITY_TOL or self.det() < -IDENTITY_TOL:
            raise DomainError("density matrix is not positive semidefinite")


def normalization(delta: float, c: float) -> float:
    """Trace-restoring factor N = 1/(2*(1 + delta*c)) of the two-source state."""
    _require_admissible(delta, c)
    return 0.5 / (1.0 + delta * c)


def _pair_terms(delta: float, c: float) -> tuple[float, float, float, float, float]:
    """First half of the evaluation kernel, for an admissible (delta, c)
    that it does not validate again: N, rho_2's entries r11, r12, r22 and
    the mode sorter's Gaussian-mode click probability q.  q's numerator
    equals (delta + c)**2 + 1 - c**2, so only rounding needs its clamp."""
    one_plus_dc = 1.0 + delta * c
    n = 0.5 / one_plus_dc
    one_minus_d2 = 1.0 - delta * delta
    diagonal = 1.0 + delta * delta + 2.0 * delta * c
    off = (delta + c) * math.sqrt(max(one_minus_d2, 0.0))
    q = min(1.0, max(0.0, diagonal / (2.0 * one_plus_dc)))
    return n, n * diagonal, n * off, n * one_minus_d2, q


def rho1() -> DensityMatrix2:
    """Single-source state: a pure projector onto the first basis vector."""
    return DensityMatrix2(1.0, 0.0, 0.0)


def rho2(delta: float, c: float) -> DensityMatrix2:
    """Two-source state in the orthonormalized basis.

    The basis is {psi_0, (psi_s - delta*psi_0)/sqrt(1 - delta**2)}, in which

        rho_2 = N * [[1 + delta**2 + 2*delta*c, (delta + c)*sqrt(1 - delta**2)],
                     [(delta + c)*sqrt(1 - delta**2), 1 - delta**2]].

    At delta = 1 the sources coincide and rho_2 collapses onto rho_1 exactly.
    """
    _require_admissible(delta, c)
    _, r11, r12, r22, _ = _pair_terms(delta, c)
    return DensityMatrix2(r11, r12, r22)


def lambda_matrix(params: ScenarioParams) -> Observable2:
    """Prior-weighted difference p*rho_2 - (1-p)*rho_1.

    This is the operator whose trace norm fixes the minimum achievable
    error probability; its trace is 2p - 1.
    """
    _, r11, r12, r22, _ = _pair_terms(params.delta, params.c)
    p = params.p
    return Observable2(p * r11 - (1.0 - p), p * r12, p * r22)
