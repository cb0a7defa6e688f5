"""The kernel against `perfbench/reference.py`, an independent mpmath
evaluation of the closed forms that raises its precision to cover the
cancellations it meets.  o_err, a_qod, p_err_spade and a_d agree to 1e-13
relative over the admissible domain and its edges: priors down to 1e-300,
separations down to 1e-8, and coherence next to the singular point
delta*c = -1, down to k = 1e-9 there: below it the reference's precision
rule falls short of the digits that 1 + delta**2 + 2*delta*c loses, so no
relative agreement is asserted, only the values the kernel must give where
its ratios overflow.  The reference is loaded by path and only read."""

import contextlib
import importlib.util
import io
import json
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ROOT

from cohdet import ScenarioParams, bound_report, spade_advantage
from cohdet.cli import main


def _load_reference():
    spec = importlib.util.spec_from_file_location("_perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up while building Reference
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

RTOL = 1e-13

#: Record index of each compared quantity in `_prior_terms`'s record.
QUANTITIES = {"o_err": 5, "a_qod": 7, "p_err_spade": 8, "a_d": 9}


def check_scenario(k, gamma, p, theta=0.0, theta_pi=None):
    """The scenario's kernel values against the reference; the phase is
    theta radians, or theta_pi*pi as `--theta-pi` gives it."""
    phase = theta_pi * math.pi if theta_pi is not None else theta
    params = ScenarioParams(k=k, gamma=gamma, theta=phase, p=p)
    record, report = params._record, bound_report(params)
    ref = reference.evaluate(k, p, gamma, theta, theta_pi)
    for name, index in QUANTITIES.items():
        assert record[index] == pytest.approx(ref.values[name], rel=RTOL, abs=0), name
    assert report.p_star == pytest.approx(ref.values["p_star"], rel=RTOL, abs=0)
    if k > 0.0 and p > 0.0:
        assert report.useless == (p >= report.p_star)
    if abs(p - ref.values["p_star"]) > 1e-12:
        assert report.useless == ref.useless


PRIORS = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(1e-300, 1.0),
    st.integers(1, 300).map(lambda e: 10.0 ** -e),
)


@settings(max_examples=150, deadline=None)
@given(
    k=st.one_of(st.just(0.0), st.floats(1e-8, 12.0)),
    gamma=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 6.28),
    p=PRIORS,
)
def test_domain(k, gamma, theta, p):
    # |c| <= 0.99 keeps the rounding of cos(theta) below the tolerance; the
    # strategy below reaches c = -1 exactly.
    assume(abs(gamma * math.cos(theta)) <= 0.99)
    check_scenario(k, gamma, p, theta=theta)


@settings(max_examples=150, deadline=None)
@given(
    k=st.one_of(st.just(0.0), st.floats(1e-8, 0.1)),
    gamma=st.one_of(st.just(1.0), st.floats(0.9, 1.0)),
    theta_pi=st.sampled_from((0.0, 1.0)),
    p=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-250, 1.0)),
)
def test_next_to_the_singular_point(k, gamma, theta_pi, p):
    # c = -gamma exactly at theta_pi = 1, and 1 + delta*c reaches k**2/8.
    assume(not (k == 0.0 and gamma == 1.0 and theta_pi == 1.0))
    check_scenario(k, gamma, p, theta_pi=theta_pi)


#: `cohdet bound` flags at the edges of the domain: tiny priors, at k = 0
#: and beyond, and 1 + delta*c = k**2/8 next to the singular point, where
#: 1 - ||Lambda||_1 would cancel to 0.
EDGES = [
    ("--k", "1e300", "--gamma", "1", "--theta-pi", "1", "--p", "1e-300"),
    ("--k", "1", "--gamma", "0.4", "--theta", "1", "--p", "1e-300"),
    ("--k", "1e-9", "--gamma", "1", "--theta-pi", "1"),
    ("--k", "1e-4", "--gamma", "1", "--theta-pi", "1", "--p", "0.470080825714688"),
    ("--k", "0", "--gamma", "0.4", "--theta", "1", "--p", "1e-9"),
    ("--k", "0", "--gamma", "0.9", "--theta-pi", "1", "--p", "1e-9"),
]


def _scenario(flags):
    """(k, gamma, p, theta, theta_pi) of `bound` flags, with the CLI's defaults."""
    given_ = dict(zip(flags[::2], map(float, flags[1::2])))
    return (given_["--k"], given_["--gamma"], given_.get("--p", 0.5), given_.get("--theta", 0.0),
            given_.get("--theta-pi"))


#: Scenarios next to c = -1 where o_err/p underflows to 0, so that `cohdet
#: bound` used to end in a ZeroDivisionError: (k, p) at gamma = 1, theta = pi.
#: The exact a_qod overflows.  r11 = (1 - delta)/2 underflows to 0 at the
#: first, and a_d overflows; at the second it is a subnormal 6.7e-316 and
#: a_d = 6.13e300, where the reference's precision falls short and gives inf.
UNDERFLOWS = [(7.4e-162, 0.12, math.inf), (1.0354673959404709e-157, 0.9999999999999959, 6.12998030465962e300)]


@pytest.mark.parametrize("k, p, a_d", UNDERFLOWS)
def test_underflowed_divisor_gives_inf(k, p, a_d):
    params = ScenarioParams(k=k, gamma=1.0, theta=math.pi, p=p)
    report = bound_report(params)
    assert report.o_err == 0.0 and report.a_qod == math.inf
    assert not report.useless and report.d_err == min(p, 1.0 - p)
    # a_d from a subnormal r11 keeps about 27 bits.
    assert spade_advantage(params) == pytest.approx(a_d, rel=1e-8)
    ref = reference.evaluate(k, p, 1.0, 0.0, 1.0)
    assert (ref.values["o_err"], ref.values["a_qod"], ref.useless) == (0.0, math.inf, False)


@pytest.mark.parametrize("k, p", [(k, p) for k, p, _ in UNDERFLOWS])
def test_bound_prints_the_underflowed_points(k, p):
    flags = ["--k", repr(k), "--gamma", "1", "--theta-pi", "1", "--p", repr(p)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bound", *flags, "--format", "json"]) == 0
    printed = json.loads(out.getvalue())
    assert printed["o_err"] == 0.0 and printed["a_qod"] is None and printed["useless"] is False


@pytest.mark.parametrize("p, a_d", [(0.0, 1.0), (0.5, math.inf), (1.0, 0.0)])
def test_underflowed_sorter_advantage_at_the_ends(p, a_d):
    # r11 = 0 at every prior here: a_d keeps its conventions at p = 0 and,
    # with d_err = 0, its exact value 0 at p = 1.
    params = ScenarioParams(k=7.4e-162, gamma=1.0, theta=math.pi, p=p)
    assert params._pair[1] == 0.0 and spade_advantage(params) == a_d


@pytest.mark.parametrize("flags", EDGES)
def test_edge(flags):
    check_scenario(*_scenario(flags))


@pytest.mark.parametrize("flags", EDGES)
def test_edge_prints_the_reference(flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bound", *flags]) == 0
    printed = dict(line.split(" = ") for line in out.getvalue().splitlines())
    k, gamma, p, theta, theta_pi = _scenario(flags)
    ref = reference.evaluate(k, p, gamma, theta, theta_pi)
    for name in ("eig_low", "eig_high", "o_err", "d_err", "a_qod", "p_star"):
        assert float(printed[name]) == pytest.approx(ref.values[name], rel=1e-8, abs=0), name
    assert printed["useless"] == ("true" if ref.useless else "false")
