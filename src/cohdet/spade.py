"""Binary mode sorting: split image-plane photons into the fundamental
Gaussian mode and its orthogonal complement, one detector each.

A photon from the known on-axis source always ends up in the Gaussian
mode.  A photon from the displaced source lands in the Gaussian mode with
a probability fixed by the overlap and the coherence, so a click on the
complement detector is unambiguous evidence for the second source.  The
resulting decision rule needs no prior knowledge at all.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .helstrom import direct_error
from .states import ScenarioParams, _require_admissible


def _gaussian_click_prob(delta: float, c: float) -> float:
    # (1 + delta**2 + 2*delta*c) / (2*(1 + delta*c)); the numerator equals
    # (delta + c)**2 + 1 - c**2 so the ratio always lands in [0, 1].
    q = (1.0 + delta * delta + 2.0 * delta * c) / (2.0 * (1.0 + delta * c))
    return min(1.0, max(0.0, q))


def spade_error(delta: float, c: float, p: float) -> float:
    """Error probability of the mode-sorting decision rule with prior p.

    The rule never errs under H1, so the only contribution is the prior
    weight p times the probability that a two-source photon hides in the
    Gaussian mode.
    """
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"prior p must lie in [0, 1], got {p!r}")
    _require_admissible(delta, c)
    return p * _gaussian_click_prob(delta, c)


def spade_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the mode-sorting error."""
    d_err = direct_error(params.p)
    p_err = spade_error(params.delta, params.c, params.p)
    if p_err == 0.0:
        # Only reachable at p = 0, where both error probabilities vanish.
        return 1.0 if d_err == 0.0 else math.inf
    return d_err / p_err
