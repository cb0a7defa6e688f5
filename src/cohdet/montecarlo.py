"""Seeded per-photon simulation used to validate the analytic error rates.

Each registered photon is one independent trial of the mode-sorting rule:
draw whether the second source exists from the prior, then, if it does,
whether its photon lands in the Gaussian mode, where the rule misses it.
Streams come from a counter-based generator, Philox, so a run is
bit-reproducible from its seed.  Photons are taken in SHARD_SIZE shards,
one substream (seed, 0, s) per shard s; photon i of a shard of b photons
reads words i and b + i of it.  Philox can start at any word, so each shard
is cut into one contiguous range per core and the ranges run on threads;
the counts, and so the results, do not depend on the number of cores.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .kernel import ScenarioParams, _Record, _require_count

#: Trials per RNG shard; each shard owns an independent substream.
SHARD_SIZE = 1 << 20

#: Photons drawn per numpy call: their words and masks stay in a core's cache.
CHUNK = 1 << 16

#: Photons per worker below which another thread costs more than it saves:
#: on a 2-core Xeon, two threads first beat one at about 60000 photons.
MIN_WORKER_PHOTONS = 1 << 15


class TrialConfig(_Record):
    """One simulation request.

    epsilon, when set, is the mean photon number per emission attempt: most
    attempts then yield vacuum and are discarded before n_photons one-photon
    trials are registered.  It is off by default because the analytic rates
    condition on registered photons anyway.
    """

    __slots__ = _fields = ("params", "n_photons", "seed", "epsilon")

    def __init__(
        self, params: ScenarioParams, n_photons: int, seed: int, epsilon: float | None = None,
    ) -> None:
        n_photons = _require_count(n_photons, 1, "n_photons must be a positive integer")
        seed = _require_count(seed, 0, "seed must be a nonnegative integer")
        if epsilon is not None:
            if not math.isfinite(epsilon) or not 0.0 < epsilon <= 0.1:
                raise DomainError(
                    f"epsilon must lie in (0, 0.1] (weak-source regime), got {epsilon!r}"
                )
        for name, value in zip(self._fields, (params, n_photons, seed, epsilon)):
            object.__setattr__(self, name, value)


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


def _words(seed: int, shard: int, word: int) -> np.random.Generator:
    """Substream (seed, 0, shard) from its word-th 64-bit word on.  Philox
    makes four words per counter step: advance whole steps, draw the rest."""
    rng = _stream(seed, 0, shard)
    rng.bit_generator.advance(word // 4)
    rng.bit_generator.random_raw(word % 4)
    return rng


def _count_range(seed: int, shard: int, block: int, lo: int, hi: int, p: float, q: float) -> int:
    """Errors among photons [lo, hi) of a shard of `block` photons, drawn
    CHUNK at a time.  The rule only errs when the second source exists (word
    i below p) and the photon still lands in the Gaussian mode (word
    block + i below q)."""
    truth, event = _words(seed, shard, lo), _words(seed, shard, block + lo)
    errors = 0
    for start in range(lo, hi, CHUNK):
        n = min(CHUNK, hi - start)
        errors += int(np.count_nonzero((truth.random(n) < p) & (event.random(n) < q)))
    return errors


def _workers(n_photons: int) -> int:
    """Threads for a run: one per core the process may use, fewer when the
    run is too small to pay for them."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_photons // MIN_WORKER_PHOTONS))


def _count_errors(seed: int, n_photons: int, p: float, q: float, workers: int) -> int:
    """Errors among the run's photons.  Worker w counts the w-th of `workers`
    contiguous ranges of every shard, worker 0 on the calling thread; numpy
    releases the GIL while it draws and compares.  The sum of the integer
    counts does not depend on the split, and a worker's exception is
    raised here once every worker has stopped."""
    results: list[int | BaseException] = [0] * workers

    def work(w: int) -> None:
        try:
            for shard, start in enumerate(range(0, n_photons, SHARD_SIZE)):
                block = min(n_photons - start, SHARD_SIZE)
                lo, hi = block * w // workers, block * (w + 1) // workers
                results[w] += _count_range(seed, shard, block, lo, hi, p, q)
        except BaseException as exc:
            results[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return sum(results)


def run_simulation(config: TrialConfig) -> EmpiricalResult:
    """Run config.n_photons independent trials and compare against the
    analytic error rate.

    Identical configs give bit-identical results, on any number of cores.
    Trials are drawn in SHARD_SIZE blocks, one substream (seed, 0, s) per
    block s: photon i of a block of b photons reads words i and b + i.  The
    vacuum attempt count uses its own substream (seed, 1), so enabling
    epsilon leaves every registered trial outcome unchanged.  An epsilon too
    small for numpy to draw that count for n_photons raises DomainError
    before any trial runs.
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

    # The mode sorter's miss probability, r11 of the scenario's pair.
    q = params._pair[1]
    n_errors = _count_errors(config.seed, config.n_photons, params.p, q, _workers(config.n_photons))

    rate = params._record[8]  # p_err_spade, p * q
    error_rate = n_errors / config.n_photons
    std_err = math.sqrt(rate * (1.0 - rate)) / math.sqrt(config.n_photons)
    if std_err > 0.0:
        z_score = (error_rate - rate) / std_err
    else:
        z_score = 0.0 if error_rate == rate else math.copysign(math.inf, error_rate - rate)

    return EmpiricalResult(config.n_photons, n_errors, error_rate, std_err, rate, z_score, n_attempts)
