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
decision arithmetic.  Building a `ScenarioParams` runs both once, a sweep
runs the second once per cell, and every scalar result and sweep row reads
its record.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import DegenerateScenarioError, DomainError

_TWO_PI = 2.0 * math.pi
_hypot, _inf = math.hypot, math.inf


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


def _require_count(value: int, minimum: int, what: str) -> int:
    """The check of a count: a whole number >= minimum (an int of any size),
    returned as an int, or DomainError."""
    try:
        whole = int(value) == value
    except (OverflowError, ValueError):  # an infinity or NaN
        whole = False
    if not whole or value < minimum:
        raise DomainError(f"{what}, got {value!r}")
    return int(value)


def overlap(k: float) -> float:
    """Overlap of the two point-spread states at dimensionless separation k."""
    _require_separation(k)
    return _separation_terms(k)[0]


def _separation_terms(k: float) -> tuple[float, float]:
    """delta = overlap(k) and dm = 1 - delta, each to a rounding, for a checked k."""
    x = -0.125 * k * k
    return math.exp(x), -math.expm1(x)


def effective_coherence(gamma: float, theta: float) -> float:
    """Collapse coherence strength and phase into the single factor
    c = gamma*cos(theta); every downstream formula depends on the pair
    (gamma, theta) only through this product."""
    _require_gamma(gamma)
    _require_phase(theta)
    return gamma * math.cos(theta)


class _Record:
    """Base of the immutable records that are not tuples: their fields sit in
    slots and cannot be reassigned, and repr, == and hash cover `_fields`,
    as a frozen dataclass's do, without the import cost of `dataclasses`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class ScenarioParams(_Record):
    """Physical and statistical configuration of one detection scenario.

    k        source separation in units of the PSF width, >= 0
    gamma    coherence strength between the two sources, in [0, 1]
    theta    coherence phase in radians (stored reduced to [0, 2*pi))
    p        prior probability that the second source exists, in [0, 1]
    delta    overlap(k), computed at construction; not part of repr, == or hash
    c        effective_coherence(gamma, theta), likewise
    _pair    `_pair_terms` of (delta, 1 - delta from k, c), likewise
    _record  `_prior_terms` of (_pair, p), likewise: the scenario's one pass
             through the kernel, which every scalar result reads
    """

    __slots__ = ("k", "gamma", "theta", "p", "delta", "c", "_pair", "_record")
    _fields = ("k", "gamma", "theta", "p")

    def __init__(self, k: float, gamma: float, theta: float = 0.0, p: float = 0.5) -> None:
        # One check per input; with several bad inputs, the first one here names the error.
        _require_prior(p)
        _require_phase(theta)
        _require_separation(k)
        _require_gamma(gamma)
        theta %= _TWO_PI
        delta, dm = _separation_terms(k)
        c = gamma * math.cos(theta)
        pair = _pair_terms(delta, dm, c)
        _set_k(self, k)
        _set_gamma(self, gamma)
        _set_theta(self, theta)
        _set_p(self, p)
        _set_delta(self, delta)
        _set_c(self, c)
        _set_pair(self, pair)
        _set_record(self, _prior_terms(pair, p))


# The slots' own setters, which skip the class's __setattr__ that refuses assignment.
_set_k, _set_gamma, _set_theta, _set_p, _set_delta, _set_c, _set_pair, _set_record = (
    getattr(ScenarioParams, name).__set__ for name in ScenarioParams.__slots__)


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


def _pair_terms(delta: float, dm: float, c: float) -> tuple[float, float, float, float, float, float]:
    """First half of the evaluation kernel, for (delta, dm = 1 - delta, c) in
    range, which it does not validate again: N, rho_2's entries r11 (the
    sorter's Gaussian-mode click probability), r12, r22, N*(1 - c**2) and
    p* = 1/(1 + N*(1 - c**2)).  No small factor cancels: with 1 + c from the
    rounded c, 1 + delta*c = (1 + c) - c*dm, 1 - delta**2 = dm*(1 + delta) and
    1 + delta**2 + 2*delta*c = dm**2 + 2*delta*(1 + c); ratios to 1 + delta*c
    come first, so none overflows where N does.  The one singular pair, where
    1 + delta*c = 0, is delta = 1 and c = -1."""
    one_plus_c = 1.0 + c
    one_plus_dc = one_plus_c - c * dm
    if one_plus_dc == 0.0:
        raise DegenerateScenarioError("1 + delta*c = 0.000e+00: the two-source state is not normalizable")
    dm_ratio = dm / one_plus_dc
    n_1mc2 = 0.5 * (1.0 - c) * one_plus_c / one_plus_dc
    r11 = 0.5 * dm * dm_ratio + delta * (one_plus_c / one_plus_dc)
    r12 = 0.5 * ((one_plus_c - dm) / one_plus_dc) * math.sqrt(dm * (1.0 + delta))
    r22 = dm_ratio * (0.5 * (1.0 + delta))
    return 0.5 / one_plus_dc, r11, r12, r22, n_1mc2, 1.0 / (1.0 + n_1mc2)


def rho2(delta: float, c: float) -> Observable2:
    """Two-source state in the orthonormalized basis.

    The basis is {psi_0, (psi_s - delta*psi_0)/sqrt(1 - delta**2)}, in which

        rho_2 = N * [[1 + delta**2 + 2*delta*c, (delta + c)*sqrt(1 - delta**2)],
                     [(delta + c)*sqrt(1 - delta**2), 1 - delta**2]].

    At delta = 1 the sources coincide and rho_2 collapses onto rho_1 exactly.
    The entries take dm = 1 - delta from the given delta, exact wherever delta >= 1/2.
    """
    _require_overlap(delta)
    _require_effective_coherence(c)
    return Observable2(*_pair_terms(delta, 1.0 - delta, c)[1:4])


def lambda_matrix(params: ScenarioParams) -> Observable2:
    """Prior-weighted difference p*rho_2 - (1-p)*rho_1.

    This is the operator whose trace norm fixes the minimum achievable
    error probability; its trace is 2p - 1.
    """
    return tuple.__new__(Observable2, params._record[:3])


def _prior_terms(pair: tuple[float, float, float, float, float, float], p: float) -> tuple:
    """Second half of the evaluation kernel: from `_pair_terms`'s output and
    a prior p, the record (a11, a12, a22, eig_low, eig_high, o_err, d_err,
    a_qod, p_err_spade, a_d, useless): the entries of Lambda = p*rho_2 -
    (1-p)*rho_1, its ascending eigenvalues, and the rest.

    det(Lambda) = p*r22*(p*N*(1 - c**2) - (1 - p)) = p*r22*(p - p*)*(1 + N*(1 - c**2)),
    so useless, det >= 0, reads p >= p* wherever p > 0 and r22 > 0; there o_err =
    d_err and a_qod = 1.  Elsewhere, with r the eigenvalue radius,
    o_err = (1 - 2r)/2 = 2p*((1 - p)*r11 + p*r22*N*(1 - c**2))/(1 + 2r).  The
    advantages are (d_err/p)/(o_err/p) and (d_err/p)/r11, finite where the
    errors underflow, but inf where o_err/p or r11 does, next to c = -1 at k
    below about 1e-157, and the exact ratio overflows; a_d(0) = 1 and
    a_d(1) = 0.  Below p = 1/2, d_err/p is 1 exactly, so a_d = 1/r11 there.
    """
    _, r11, r12, r22, n_1mc2, p_star = pair
    q = 1.0 - p
    p_r11 = p * r11
    a11 = p_r11 - q
    a12 = p * r12
    a22 = p * r22
    radius = _hypot(0.5 * (a11 - a22), a12)
    det = a22 * (p - p_star) * (1.0 + n_1mc2)
    # The trace is 2p - 1, so the eigenvalues are p - 1/2 -+ radius: the one of
    # larger magnitude has the sign of p - 1/2, and the other is det over it
    # (0 where Lambda is 0).  p < q is p < 1/2, where d_err = p.
    if p < q:
        d_err, ratio = p, 1.0
        low = p - 0.5 - radius
        high = det / low
    else:
        d_err, ratio = q, q / p
        high = p - 0.5 + radius
        low = det / high if high else 0.0
    useless = det >= 0.0
    if useless:
        o_err, a_qod = d_err, 1.0
    else:
        o_err_per_p = 2.0 * (q * r11 + a22 * n_1mc2) / (1.0 + 2.0 * radius)
        o_err, a_qod = p * o_err_per_p, ratio / o_err_per_p if o_err_per_p else _inf
    a_d = (ratio / r11 if r11 else _inf if d_err else 0.0) if p else 1.0
    return a11, a12, a22, low, high, o_err, d_err, a_qod, p_r11, a_d, useless


def helstrom_bound(params: ScenarioParams) -> float:
    """Minimum error probability over all detection strategies, in [0, 1/2]."""
    return params._record[5]


def qod_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the optimal-measurement error, >= 1."""
    return params._record[7]


class BoundReport(NamedTuple):
    """Everything `cohdet bound` prints after the scenario, in its order:
    the overlap delta, the normalization N, the entries and ascending
    eigenvalues of Lambda = p*rho_2 - (1-p)*rho_1, o_err, d_err, a_qod, the
    prior p_star = (2 + 2*delta*c) / (3 + 2*delta*c - c**2) in (1/2, 1], and
    useless, True when det(Lambda) >= 0: the one definition of "measuring is
    useless", p >= p_star wherever k > 0 and p > 0."""

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
    """The whole report of one scenario from its one pass through the kernel."""
    pair, record = params._pair, params._record
    # tuple.__new__ skips the NamedTuple's keyword-handling constructor.
    return tuple.__new__(BoundReport, (params.delta, pair[0], *record[:8], pair[5], record[10]))


def spade_error(delta: float, c: float, p: float) -> float:
    """Error probability of the mode-sorting decision rule with prior p.

    The rule never errs under H1, so the only contribution is the prior
    weight p times the probability that a two-source photon hides in the
    Gaussian mode.
    """
    _require_prior(p)
    return p * rho2(delta, c).a11


def spade_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the mode-sorting error."""
    return params._record[9]
