"""Minimum-error discrimination bound and the advantage over blind guessing.

For two states with priors (1-p, p) the minimum error probability over all
measurements is (1 - ||p*rho_2 - (1-p)*rho_1||_1) / 2, where ||.||_1 sums
the absolute eigenvalues.  Deciding from the prior alone errs with
min(p, 1-p), and the ratio of the two error probabilities quantifies how
much any measurement can help.  When the weighted difference operator has
no negative eigenvalue the ratio is exactly 1 and measuring is useless;
the closed-form prior boundary of that region is `useless_boundary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .states import Observable2, ScenarioParams, _pair_terms, _require_admissible, lambda_matrix

#: Relative tolerance for classifying an advantage ratio as exactly 1.
USELESS_RATIO_TOL = 1e-10


def eigenvalues_sym2(m: Observable2) -> tuple[float, float]:
    """Closed-form eigenvalues of a real symmetric 2x2 matrix, ascending."""
    half_trace = 0.5 * (m.a11 + m.a22)
    radius = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return half_trace - radius, half_trace + radius


def trace_norm(m: Observable2) -> float:
    """Sum of the absolute eigenvalues."""
    low, high = eigenvalues_sym2(m)
    return abs(low) + abs(high)


def direct_error(p: float) -> float:
    """Error probability of declaring the more probable hypothesis without
    measuring anything."""
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"prior p must lie in [0, 1], got {p!r}")
    return min(p, 1.0 - p)


def _prior_terms(
    pair: tuple[float, float, float, float, float], p: float
) -> tuple[float, float, float, float, float, bool]:
    """Second half of the evaluation kernel: from `_pair_terms`'s output and
    a prior p, (o_err, d_err, a_qod, p_err_spade, a_d, useless).

    o_err is clamped into [0, 1/2] so that floating-point noise can never
    make the optimum look worse than guessing.  At a deterministic prior
    both errors vanish analytically, even when rounding leaves a ~1e-16
    residue in o_err, so a_qod is 1 there; a_d is 1 at p = 0.
    """
    _, r11, r12, r22, q = pair
    a11 = p * r11 - (1.0 - p)
    a22 = p * r22
    half_trace = 0.5 * (a11 + a22)
    radius = math.hypot(0.5 * (a11 - a22), p * r12)
    norm = abs(half_trace - radius) + abs(half_trace + radius)
    o_err = min(0.5, max(0.0, 0.5 * (1.0 - norm)))
    d_err = min(p, 1.0 - p)
    if d_err == 0.0:
        a_qod = 1.0
    elif o_err == 0.0:
        a_qod = math.inf
    else:
        a_qod = d_err / o_err
    p_err = p * q
    if p_err == 0.0:
        a_d = 1.0 if d_err == 0.0 else math.inf
    else:
        a_d = d_err / p_err
    useless = math.isfinite(a_qod) and abs(a_qod - 1.0) <= USELESS_RATIO_TOL
    return o_err, d_err, a_qod, p_err, a_d, useless


def _evaluate(params: ScenarioParams) -> tuple[float, float, float, float, float, bool]:
    """(o_err, d_err, a_qod, p_err_spade, a_d, useless) for one scenario."""
    return _prior_terms(_pair_terms(params.delta, params.c), params.p)


def helstrom_bound(params: ScenarioParams) -> float:
    """Minimum error probability over all detection strategies, in [0, 1/2]."""
    return _evaluate(params)[0]


def qod_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the optimal-measurement error, >= 1."""
    return _evaluate(params)[2]


def useless_boundary(delta: float, c: float) -> float:
    """Prior above which no measurement beats deciding from the prior alone.

    Derived from the leading principal minors of the weighted difference
    operator: above (2 + 2*delta*c) / (3 + 2*delta*c - c**2) both of its
    eigenvalues are nonnegative.  The value always lies in (1/2, 1].
    """
    _require_admissible(delta, c)
    return (2.0 + 2.0 * delta * c) / (3.0 + 2.0 * delta * c - c * c)


def in_useless_region(params: ScenarioParams) -> bool:
    """True iff the prior lies strictly above `useless_boundary`."""
    p_star = useless_boundary(params.delta, params.c)
    flag = params.p > p_star
    if __debug__:
        # The closed form must agree with the eigenvalue signs except on the
        # boundary itself or when an eigenvalue sits at zero (coincident
        # sources give a zero eigenvalue at every prior).
        low, high = eigenvalues_sym2(lambda_matrix(params))
        if abs(params.p - p_star) > 1e-10 and min(abs(low), abs(high)) > 1e-12:
            assert flag == (low > 0.0 and high > 0.0)
    return flag


@dataclass(frozen=True)
class BoundReport:
    """Error probabilities and advantage for one scenario.

    o_err   minimum error probability over all measurements, in [0, 1/2]
    d_err   blind-guess error probability min(p, 1-p)
    a_qod   d_err / o_err (1 by convention when both vanish)
    useless True when a_qod equals 1 within USELESS_RATIO_TOL
    """

    o_err: float
    d_err: float
    a_qod: float
    useless: bool


def bound_report(params: ScenarioParams) -> BoundReport:
    """Evaluate the optimal bound, the blind-guess error and their ratio."""
    o_err, d_err, a_qod, _, _, useless = _evaluate(params)
    return BoundReport(o_err, d_err, a_qod, useless)
