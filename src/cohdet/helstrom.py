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
from typing import NamedTuple

from .states import Observable2, ScenarioParams, _pair_terms, _require_admissible

#: Relative tolerance for classifying an advantage ratio as exactly 1.
USELESS_RATIO_TOL = 1e-10


def eigenvalues_sym2(m: Observable2) -> tuple[float, float]:
    """Closed-form eigenvalues of a real symmetric 2x2 matrix, ascending."""
    half_trace = 0.5 * (m.a11 + m.a22)
    radius = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return half_trace - radius, half_trace + radius


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
    """The whole report of one scenario from one kernel call.  The weighted
    difference and its eigenvalues use the expressions of `lambda_matrix`
    and `eigenvalues_sym2` inline: the same tokens, without the few percent
    that the calls and an Observable2's validation would cost."""
    delta, c, p = params.delta, params.c, params.p
    pair = _pair_terms(delta, c)
    n, r11, r12, r22, _ = pair
    a11, a12, a22 = p * r11 - (1.0 - p), p * r12, p * r22
    half_trace = 0.5 * (a11 + a22)
    radius = math.hypot(0.5 * (a11 - a22), a12)
    o_err, d_err, a_qod, _, _, useless = _prior_terms(pair, p)
    return BoundReport(
        delta, n, a11, a12, a22, half_trace - radius, half_trace + radius,
        o_err, d_err, a_qod, _p_star(delta, c), useless,
    )
