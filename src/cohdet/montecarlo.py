"""Seeded per-photon simulation used to validate the analytic error rates.

Each registered photon is one independent trial of the mode-sorting rule:
draw whether the second source exists from the prior, then, if it does,
whether its photon lands in the Gaussian mode, where the rule misses it.
Streams come from a counter-based generator so a run is bit-reproducible
from its seed, sharded deterministically so large photon budgets can be
split without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .kernel import ScenarioParams, _pair_terms, _require_count

#: Trials per RNG shard; each shard owns an independent substream.
SHARD_SIZE = 1 << 20


@dataclass(frozen=True)
class TrialConfig:
    """One simulation request.

    epsilon, when set, is the mean photon number per emission attempt: most
    attempts then yield vacuum and are discarded before n_photons one-photon
    trials are registered.  It is off by default because the analytic rates
    condition on registered photons anyway.
    """

    params: ScenarioParams
    n_photons: int
    seed: int
    epsilon: float | None = None

    def __post_init__(self) -> None:
        _require_count(self.n_photons, 1, "n_photons must be a positive integer")
        _require_count(self.seed, 0, "seed must be a nonnegative integer")
        if self.epsilon is not None:
            if not math.isfinite(self.epsilon) or not 0.0 < self.epsilon <= 0.1:
                raise DomainError(
                    f"epsilon must lie in (0, 0.1] (weak-source regime), got {self.epsilon!r}"
                )


class EmpiricalResult(NamedTuple):
    """Aggregated outcome of a simulation run, in the order `cohdet
    simulate` prints it.

    z_score compares the empirical error rate against the analytic one
    using the analytic binomial standard error, so it tests a known null.
    n_attempts is the simulated number of emission attempts and is only
    set when vacuum modelling is enabled.
    """

    n_trials: int
    n_errors: int
    error_rate: float
    std_err: float
    analytic_p_err: float
    z_score: float
    n_attempts: int | None = None


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent substream (seed, key) of the counter-based generator."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def run_simulation(config: TrialConfig) -> EmpiricalResult:
    """Run config.n_photons independent trials and compare against the
    analytic error rate.

    Identical configs give bit-identical results.  Trials are drawn in
    SHARD_SIZE blocks, one substream per block; the vacuum attempt count
    uses its own substream, so enabling epsilon leaves every registered
    trial outcome unchanged.  An epsilon too small for numpy to draw that
    count for n_photons raises DomainError before any trial runs.
    """
    params = config.params
    n_attempts = None
    if config.epsilon is not None:
        try:
            failures = _stream(config.seed, 1).negative_binomial(config.n_photons, config.epsilon)
        except ValueError as exc:
            raise DomainError(
                f"epsilon {config.epsilon!r} is too small for n_photons = {config.n_photons}:"
                " numpy draws the vacuum count only while (1/epsilon - 1) * (n_photons"
                " + 10*sqrt(n_photons)) < 9.2e18"
            ) from exc
        n_attempts = config.n_photons + int(failures)

    # The mode sorter's miss probability; the pair was checked with params.
    q = _pair_terms(params.delta, params.c)[4]

    n_errors = 0
    remaining = config.n_photons
    shard = 0
    while remaining > 0:
        block = min(remaining, SHARD_SIZE)
        rng = _stream(config.seed, 0, shard)
        u_truth = rng.random(block)
        u_event = rng.random(block)
        # The rule only errs when the second source exists and the photon
        # still lands in the Gaussian mode.
        n_errors += int(np.count_nonzero((u_truth < params.p) & (u_event < q)))
        remaining -= block
        shard += 1

    rate = params.p * q  # spade_error(delta, c, p)
    error_rate = n_errors / config.n_photons
    std_err = math.sqrt(rate * (1.0 - rate) / config.n_photons)
    if std_err > 0.0:
        z_score = (error_rate - rate) / std_err
    else:
        z_score = 0.0 if error_rate == rate else math.copysign(math.inf, error_rate - rate)

    return EmpiricalResult(config.n_photons, n_errors, error_rate, std_err, rate, z_score, n_attempts)
