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
from .helstrom import _evaluate
from .states import ScenarioParams, _pair_terms, _require_admissible


def spade_error(delta: float, c: float, p: float) -> float:
    """Error probability of the mode-sorting decision rule with prior p.

    The rule never errs under H1, so the only contribution is the prior
    weight p times the probability that a two-source photon hides in the
    Gaussian mode.
    """
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"prior p must lie in [0, 1], got {p!r}")
    _require_admissible(delta, c)
    return p * _pair_terms(delta, c)[4]


def spade_advantage(params: ScenarioParams) -> float:
    """Ratio of the blind-guess error to the mode-sorting error."""
    return _evaluate(params)[4]
