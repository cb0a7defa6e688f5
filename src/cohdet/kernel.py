"""The closed-form model: scenario parameters, the photon states, the
minimum-error bound and binary mode sorting, and the one check of each input.

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

With priors (1-p, p), no measurement errs less than the Helstrom bound
(1 - ||p*rho_2 - (1-p)*rho_1||_1) / 2, and deciding from the prior alone
errs with min(p, 1-p).  Binary mode sorting splits the photons into the
Gaussian mode and its orthogonal complement, one detector each, and takes
a complement click as proof of the second source, with no prior at all.
The evaluation kernel has two halves: `_pair_terms` per (delta, c) and
`_prior_terms` per prior p, which holds the package's only copy of the
decision arithmetic; every scalar result and every sweep row reads its record.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError

#: Threshold below which 1 + delta*c is treated as singular.
DEGENERACY_EPS = 1e-12

#: Relative tolerance for classifying an advantage ratio as exactly 1.
USELESS_RATIO_TOL = 1e-10

_TWO_PI = 2.0 * math.pi


def _require_in(lo: float, hi: float, what: str) -> Callable[[float], None]:
    """The check of one input: a finite value in [lo, hi], or DomainError."""

    def require(value: float) -> None:
        if not math.isfinite(value) or not lo <= value <= hi:
            raise DomainError(f"{what}, got {value!r}")

    return require


_require_separation = _require_in(0.0, math.inf, "separation k must be finite and >= 0")
_require_gamma = _require_in(0.0, 1.0, "coherence strength gamma must lie in [0, 1]")
_require_phase = _require_in(-math.inf, math.inf, "coherence phase theta must be finite")
_require_prior = _require_in(0.0, 1.0, "prior p must lie in [0, 1]")
_require_overlap = _require_in(0.0, 1.0, "overlap delta must lie in [0, 1]")
_require_effective_coherence = _require_in(-1.0, 1.0, "effective coherence must lie in [-1, 1]")


def _require_count(value: int, minimum: int, what: str) -> None:
    """The check of a count: a whole number >= minimum (an int of any size), or DomainError."""
    try:
        whole = int(value) == value
    except (OverflowError, ValueError):  # an infinity or NaN
        whole = False
    if not whole or value < minimum:
        raise DomainError(f"{what}, got {value!r}")


def overlap(k: float) -> float:
    """Overlap of the two point-spread states at dimensionless separation k."""
    _require_separation(k)
    return math.exp(-0.125 * k * k)


def effective_coherence(gamma: float, theta: float) -> float:
    """Collapse coherence strength and phase into the single factor
    c = gamma*cos(theta); every downstream formula depends on the pair
    (gamma, theta) only through this product."""
    _require_gamma(gamma)
    _require_phase(theta)
    return gamma * math.cos(theta)


def _require_admissible(delta: float, c: float) -> None:
    """Validate an (overlap, effective coherence) pair, rejecting the singular point delta*c = -1."""
    _require_overlap(delta)
    _require_effective_coherence(c)
    _require_normalizable(delta, c)


def _require_normalizable(delta: float, c: float) -> None:
    """Reject the singular point of a pair already known to lie in range."""
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
    delta  overlap(k), computed at construction; not part of repr, == or hash
    c      effective_coherence(gamma, theta), likewise
    """

    k: float
    gamma: float
    theta: float = 0.0
    p: float = 0.5
    delta: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # One check per input; with several bad inputs, the first one here names the error.
        _require_prior(self.p)
        _require_phase(self.theta)
        _require_separation(self.k)
        _require_gamma(self.gamma)
        theta = self.theta % _TWO_PI
        delta = math.exp(-0.125 * self.k * self.k)
        c = self.gamma * math.cos(theta)
        _require_normalizable(delta, c)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "c", c)


class Observable2(NamedTuple):
    """Real symmetric 2x2 matrix in the orthonormal pair basis: a state or
    the weighted difference p*rho_2 - (1-p)*rho_1.

    Only the upper triangle is stored; symmetry holds by construction.
    Nothing is checked here: the kernel's states are unit-trace and positive
    semidefinite by their formulas, up to rounding, and the oracle checks
    the states it builds by quadrature.
    """

    a11: float
    a12: float
    a22: float

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12


def normalization(delta: float, c: float) -> float:
    """Trace-restoring factor N = 1/(2*(1 + delta*c)) of the two-source state."""
    _require_admissible(delta, c)
    return _pair_terms(delta, c)[0]


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


def rho1() -> Observable2:
    """Single-source state: a pure projector onto the first basis vector."""
    return Observable2(1.0, 0.0, 0.0)


def rho2(delta: float, c: float) -> Observable2:
    """Two-source state in the orthonormalized basis.

    The basis is {psi_0, (psi_s - delta*psi_0)/sqrt(1 - delta**2)}, in which

        rho_2 = N * [[1 + delta**2 + 2*delta*c, (delta + c)*sqrt(1 - delta**2)],
                     [(delta + c)*sqrt(1 - delta**2), 1 - delta**2]].

    At delta = 1 the sources coincide and rho_2 collapses onto rho_1 exactly.
    """
    _require_admissible(delta, c)
    return Observable2(*_pair_terms(delta, c)[1:4])


def lambda_matrix(params: ScenarioParams) -> Observable2:
    """Prior-weighted difference p*rho_2 - (1-p)*rho_1.

    This is the operator whose trace norm fixes the minimum achievable
    error probability; its trace is 2p - 1.
    """
    return Observable2(*_evaluate(params)[:3])


def eigenvalues_sym2(m: Observable2) -> tuple[float, float]:
    """Closed-form eigenvalues of a real symmetric 2x2 matrix, ascending.
    The one public function that takes a matrix its caller built, so it
    checks that the entries are finite."""
    for name, value in zip(m._fields, m):
        if not math.isfinite(value):
            raise DomainError(f"matrix entry {name} must be finite, got {value!r}")
    half_trace = 0.5 * (m.a11 + m.a22)
    radius = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return half_trace - radius, half_trace + radius


def _prior_terms(pair: tuple[float, float, float, float, float], p: float) -> tuple:
    """Second half of the evaluation kernel: from `_pair_terms`'s output and
    a prior p, the record (a11, a12, a22, eig_low, eig_high, o_err, d_err,
    a_qod, p_err_spade, a_d, useless).  The first three are the entries of
    p*rho_2 - (1-p)*rho_1 and the next two its ascending eigenvalues.

    o_err is clamped into [0, 1/2] so that floating-point noise can never
    make the optimum look worse than guessing.  At a deterministic prior
    both errors vanish analytically, so o_err is set to 0 there rather than
    the ~1e-16 residue rounding can leave, and a_qod is 1; a_d is 1 at p = 0.
    """
    _, r11, r12, r22, q = pair
    a11 = p * r11 - (1.0 - p)
    a12 = p * r12
    a22 = p * r22
    half_trace = 0.5 * (a11 + a22)
    radius = math.hypot(0.5 * (a11 - a22), a12)
    low, high = half_trace - radius, half_trace + radius
    d_err = min(p, 1.0 - p)
    if d_err == 0.0:
        o_err, a_qod = 0.0, 1.0
    else:
        o_err = min(0.5, max(0.0, 0.5 * (1.0 - (abs(low) + abs(high)))))
        a_qod = d_err / o_err if o_err > 0.0 else math.inf
    p_err = p * q
    if p_err == 0.0:
        a_d = 1.0 if d_err == 0.0 else math.inf
    else:
        a_d = d_err / p_err
    useless = math.isfinite(a_qod) and abs(a_qod - 1.0) <= USELESS_RATIO_TOL
    return a11, a12, a22, low, high, o_err, d_err, a_qod, p_err, a_d, useless


def _evaluate(params: ScenarioParams) -> tuple:
    """`_prior_terms`'s record of one scenario."""
    return _prior_terms(_pair_terms(params.delta, params.c), params.p)


def helstrom_bound(params: ScenarioParams) -> float:
    """Minimum error probability over all detection strategies, in [0, 1/2]."""
    return _evaluate(params)[5]


def qod_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the optimal-measurement error, >= 1."""
    return _evaluate(params)[7]


def useless_boundary(delta: float, c: float) -> float:
    """Prior above which no measurement beats deciding from the prior alone.

    Derived from the leading principal minors of the weighted difference
    operator: above (2 + 2*delta*c) / (3 + 2*delta*c - c**2) both of its
    eigenvalues are nonnegative.  The value always lies in (1/2, 1].
    """
    _require_admissible(delta, c)
    return _p_star(delta, c)


def _p_star(delta: float, c: float) -> float:
    """`useless_boundary` for an admissible (delta, c), not validated again."""
    return (2.0 + 2.0 * delta * c) / (3.0 + 2.0 * delta * c - c * c)


class BoundReport(NamedTuple):
    """Everything `cohdet bound` prints after the scenario, in its order:
    the overlap delta, the normalization N, the entries and ascending
    eigenvalues of p*rho_2 - (1-p)*rho_1, o_err, d_err, a_qod (1 when both
    errors vanish), the closed-form `useless_boundary` p_star, and useless,
    True when a_qod equals 1 within USELESS_RATIO_TOL: the package's one
    definition of "measuring is useless"."""

    delta: float
    normalization: float
    lambda_11: float
    lambda_12: float
    lambda_22: float
    eig_low: float
    eig_high: float
    o_err: float
    d_err: float
    a_qod: float
    p_star: float
    useless: bool


def bound_report(params: ScenarioParams) -> BoundReport:
    """The whole report of one scenario from one pass through the kernel."""
    delta, c = params.delta, params.c
    pair = _pair_terms(delta, c)
    record = _prior_terms(pair, params.p)
    return BoundReport(delta, pair[0], *record[:8], _p_star(delta, c), record[10])


def spade_error(delta: float, c: float, p: float) -> float:
    """Error probability of the mode-sorting decision rule with prior p.

    The rule never errs under H1, so the only contribution is the prior
    weight p times the probability that a two-source photon hides in the
    Gaussian mode.
    """
    _require_prior(p)
    _require_admissible(delta, c)
    return _prior_terms(_pair_terms(delta, c), p)[8]


def spade_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the mode-sorting error."""
    return _evaluate(params)[9]
