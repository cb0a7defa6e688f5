"""Shared test helpers: strategies for admissible scenario parameters and a
fresh interpreter that runs the package from src/."""

import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from cohdet import ScenarioParams, overlap
from cohdet.kernel import effective_coherence


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def admissible_delta_c(draw, margin=1e-6):
    """(delta, c) pairs staying clear of the singular point delta*c = -1."""
    delta = draw(finite_floats(0.0, 1.0))
    c = draw(finite_floats(-1.0, 1.0))
    assume(1.0 + delta * c > margin)
    return delta, c


@st.composite
def scenario_params(draw, k_max=12.0, margin=1e-6):
    """Admissible ScenarioParams over sensible physical ranges."""
    k = draw(finite_floats(0.0, k_max))
    gamma = draw(finite_floats(0.0, 1.0))
    theta = draw(finite_floats(0.0, 2.0 * math.pi))
    p = draw(finite_floats(0.0, 1.0))
    assume(1.0 + overlap(k) * effective_coherence(gamma, theta) > margin)
    return ScenarioParams(k=k, gamma=gamma, theta=theta, p=p)


def linspace(lo, hi, n):
    """Inclusive grid matching the sweep module's spacing convention."""
    if n == 1:
        return [lo]
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values[-1] = hi
    return values


ROOT = Path(__file__).resolve().parents[1]


def python_env():
    """The environment of a fresh interpreter with the package in src/ on its path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_python(*args, timeout=120, stdout=subprocess.PIPE):
    """A fresh interpreter with the package in src/ on its path; stdout is
    captured unless a file is given."""
    return subprocess.run(
        [sys.executable, *args], env=python_env(), cwd=ROOT, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
