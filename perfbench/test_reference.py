"""Tests of the benchmark's independent reference.

    python3 -m pytest perfbench

These sit outside the package's test paths, so the package's own test
run does not include them.
"""

import math

import pytest
from mpmath import mp

from reference import evaluate

SCENARIOS = [
    # (k, p, gamma, theta, theta_pi)
    (2.0, 0.5, 0.0, 0.0, None),
    (0.05, 0.3, 0.9, 0.0, 1.0),
    (1.5, 1e-300, 0.4, 2.0, None),
    (3.0, 1e-12, 0.0, 0.0, None),
    (1e-9, 0.5, 1.0, 0.0, 1.0),
    (1e-6, 0.999999, 1.0, 0.0, 0.0),
    (12.0, 0.7, 0.6, 5.0, None),
    (1e300, 1e-300, 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("k", [1e-6, 0.01, 0.5, 2.0, 5.0, 12.0])
def test_incoherent_closed_form_at_even_prior(k):
    with mp.workdps(60):
        want = float(mp.mpf(1) / 2 - mp.sqrt(-mp.expm1(-mp.mpf(k) ** 2 / 4)) / 4)
    assert evaluate(k, 0.5, 0.0).values["o_err"] == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("p", [1e-300, 1e-12, 0.3, 0.5, 0.8, 1.0 - 2**-52])
@pytest.mark.parametrize("gamma, theta", [(0.0, 0.0), (0.7, 1.0), (0.99, math.pi)])
def test_no_advantage_at_zero_separation(p, gamma, theta):
    ref = evaluate(0.0, p, gamma, theta)
    assert ref.values["o_err"] == ref.values["d_err"]
    assert ref.values["a_qod"] == 1.0
    assert ref.useless


def _same(a, b):
    return a == b or abs(a - b) <= 1e-15 * abs(b)


@pytest.mark.parametrize("k, p, gamma, theta, theta_pi", SCENARIOS)
def test_agrees_with_itself_at_doubled_precision(k, p, gamma, theta, theta_pi):
    ref = evaluate(k, p, gamma, theta, theta_pi)
    doubled = evaluate(k, p, gamma, theta, theta_pi, dps=2 * ref.dps)
    assert ref.zeros == doubled.zeros
    assert ref.useless == doubled.useless
    for name, value in ref.values.items():
        assert _same(value, doubled.values[name]), name


def test_fixed_fifty_digits_cancel_at_tiny_prior():
    # Why the working precision is raised: at p = 1e-300 the trace norm
    # rounds to 1 at 50 digits and o_err comes out as exactly 0.
    assert evaluate(1.5, 1e-300, 0.4, 2.0, dps=50).values["o_err"] == 0.0
    assert evaluate(1.5, 1e-300, 0.4, 2.0).values["o_err"] > 0.0


def test_degenerate_exactly_at_the_singular_point():
    assert evaluate(0.0, 0.5, 1.0, theta_pi=1.0).degenerate
    assert not evaluate(1e-9, 0.5, 1.0, theta_pi=1.0).degenerate
    assert not evaluate(0.0, 0.5, 1.0 - 2**-53, theta_pi=1.0).degenerate
