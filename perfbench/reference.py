"""Independent high-precision reference for the paper's closed forms.

Evaluates the overlap delta, the normalization N, the two-source state
rho_2 and the weighted difference Lambda = p*rho_2 - (1-p)*rho_1 in the
orthonormalized pair basis, then the Helstrom error o_err = (1 -
||Lambda||_1)/2, the blind-guess error d_err, their ratio a_qod, the mode
sorter's error p_err_spade and advantage a_d, and the useless-region
boundary p*.  Everything runs in mpmath and nothing is imported from
cohdet, so agreement with the program is evidence, not an echo.

The trace-norm form cancels: o_err is a difference of two numbers near 1
when p, 1-p, 1-delta**2 or 1+delta*c is small.  The working precision is
therefore raised by -log10 of each of those that is below 1; the sum is
used rather than the smallest because two of them can be small at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

#: Digits kept beyond those lost to cancellation.
BASE_DPS = 30


@dataclass(frozen=True)
class Reference:
    """Reference values at one scenario, rounded to double at the end.

    values  every numeric quantity by name (only the inputs when degenerate)
    zeros   names whose exact value is 0
    det_lambda, useless  det(Lambda) and the useless flag det(Lambda) >= 0
    degenerate  True exactly where 1 + delta*c = 0
    """

    values: dict
    zeros: frozenset
    det_lambda: float | None
    useless: bool | None
    degenerate: bool
    dps: int


def _lost_digits(x: float) -> int:
    """Decimal digits a cancellation against 1 loses when 0 < x < 1."""
    if not 0.0 < x < 1.0:
        return 0
    return int(math.ceil(-math.log10(x))) + 1


def _scenario_digits(k: float, gamma: float, theta: float, theta_pi: float | None) -> int:
    """Digits lost to 1 - delta**2 and 1 + delta*c, estimated in double
    precision from forms that do not cancel: 1 - delta**2 =
    -expm1(-k**2/4) and 1 + delta*c = (1 - gamma) + 2*gamma*cos(theta/2)**2
    + gamma*cos(theta)*expm1(-k**2/8), whose terms are all >= 0 when c < 0."""
    half = math.pi * theta_pi / 2 if theta_pi is not None else theta / 2
    c = gamma * math.cos(2 * half)
    one_plus_dc = (1 - gamma) + 2 * gamma * math.cos(half) ** 2 + c * math.expm1(-k * k / 8)
    return _lost_digits(-math.expm1(-k * k / 4)) + _lost_digits(one_plus_dc)


def required_dps(k: float, ps, gamma: float, theta: float = 0.0,
                 theta_pi: float | None = None) -> int:
    """Working precision for the scenarios (k, p, gamma, theta), p in ps."""
    prior = max(_lost_digits(p) + _lost_digits(1.0 - p) for p in ps)
    return BASE_DPS + prior + _scenario_digits(k, gamma, theta, theta_pi)


def evaluate(k: float, p: float, gamma: float, theta: float = 0.0,
             theta_pi: float | None = None, dps: int | None = None) -> Reference:
    """Reference values at (k, p, gamma, theta).

    The phase is theta radians, or theta_pi * pi exactly when theta_pi is
    given (as the CLI's --theta-pi flag intends).  Inputs are taken as the
    exact binary values of the floats passed in.
    """
    return evaluate_row(k, [p], gamma, theta, theta_pi, dps)[0]


def evaluate_row(k: float, ps, gamma: float, theta: float = 0.0,
                 theta_pi: float | None = None, dps: int | None = None) -> list[Reference]:
    """`evaluate` at one separation and several priors; rho_2 does not
    depend on the prior, so it is built once."""
    if dps is None:
        dps = required_dps(k, ps, gamma, theta, theta_pi)
    with mp.workdps(dps):
        k_, g_ = mpf(k), mpf(gamma)
        if theta_pi is not None:
            theta_ = mpf(theta_pi) * mp.pi
            c = g_ * mp.cospi(theta_pi)
        else:
            theta_ = mpf(theta)
            c = g_ * mp.cos(theta_)
        theta_ = theta_ % (2 * mp.pi)
        delta = mp.exp(-k_ * k_ / 8)
        one_plus_dc = 1 + delta * c
        if one_plus_dc == 0:
            return [
                Reference(_to_float({"k": k_, "p": mpf(p), "gamma": g_, "theta": theta_}),
                          frozenset(), None, None, True, dps)
                for p in ps
            ]
        n = 1 / (2 * one_plus_dc)
        one_minus_d2 = 1 - delta * delta
        r11 = n * (1 + delta * delta + 2 * delta * c)
        r12 = n * (delta + c) * mp.sqrt(one_minus_d2)
        r22 = n * one_minus_d2
        p_star = (2 + 2 * delta * c) / (3 + 2 * delta * c - c * c)
        return [_at_prior(mpf(p), k_, g_, theta_, c, delta, n, r11, r12, r22, p_star, dps)
                for p in ps]


def _at_prior(p, k, gamma, theta, c, delta, n, r11, r12, r22, p_star, dps) -> Reference:
    l11 = p * r11 - (1 - p)
    l12 = p * r12
    l22 = p * r22
    # det(Lambda) = l11*l22 - l12**2, factored so that it is exactly 0
    # wherever a factor is (k = 0, p = 0, a pure rho_2 at p = 1).
    det = p * n * (1 - delta * delta) * (p * n * (1 - c * c) - (1 - p))
    trace = 2 * p - 1
    # The eigenvalues of a symmetric 2x2 matrix from its trace and
    # determinant; with det >= 0 they share a sign and ||Lambda||_1 = |trace|.
    radius = mp.sqrt(trace * trace - 4 * det) / 2
    eig_low, eig_high = trace / 2 - radius, trace / 2 + radius
    trace_norm = abs(trace) if det >= 0 else eig_high - eig_low
    o_err = (1 - trace_norm) / 2
    d_err = min(p, 1 - p)
    p_err_spade = p * r11
    values = {
        "k": k, "p": p, "gamma": gamma, "theta": theta,
        "delta": delta, "normalization": n,
        "lambda_11": l11, "lambda_12": l12, "lambda_22": l22,
        "eig_low": eig_low, "eig_high": eig_high,
        "o_err": o_err, "d_err": d_err,
        "a_qod": _ratio(d_err, o_err),
        "p_err_spade": p_err_spade,
        "a_d": _ratio(d_err, p_err_spade),
        "p_star": p_star,
    }
    zeros = frozenset(name for name, value in values.items() if not value)
    return Reference(_to_float(values), zeros, float(det), det >= 0, False, dps)


def _ratio(num, den):
    """num/den; where both error probabilities vanish (a deterministic
    prior, at which guessing is trivially optimal) the ratio is 1."""
    if den == 0:
        return mpf(1) if num == 0 else mp.inf
    return num / den


def _to_float(values: dict) -> dict:
    return {name: float(value) for name, value in values.items()}
