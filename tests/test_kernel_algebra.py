"""The kernel's factored closed forms, proved with sympy and tied to the code.

`_pair_terms` and `_prior_terms` evaluate hand-derived forms chosen so that
no small factor cancels.  Each form is written here as the kernel writes it
and proved equal to the quantity it stands for, built from the definition:
psi_0 = (1, 0) and psi_s = (delta, sqrt(1 - delta**2)) in the orthonormal
pair basis, rho_2 = N*(|psi_0><psi_0| + |psi_s><psi_s| + c*(|psi_0><psi_s| +
|psi_s><psi_0|)) and Lambda = p*rho_2 - (1 - p)*rho_1.  A proof says nothing
about code it was not written from, so each proved form is also evaluated
at 120 digits at seeded doubles and compared with what the kernel returns
there, to a few ulps.
"""

import math
import random
import sys

import mpmath
import pytest
import sympy

from cohdet.kernel import _pair_terms, _prior_terms

EPS = sys.float_info.epsilon
ULPS = 4

delta, p = sympy.symbols("delta p", positive=True)
c = sympy.Symbol("c", real=True)
half = sympy.Rational(1, 2)

# The definitions.
psi0, psis = sympy.Matrix([1, 0]), sympy.Matrix([delta, sympy.sqrt(1 - delta**2)])
N = 1 / (2 * (1 + delta * c))
rho2 = N * (psi0 * psi0.T + psis * psis.T + c * (psi0 * psis.T + psis * psi0.T))

# `_pair_terms`, expression for expression, with dm = 1 - delta.
dm = 1 - delta
one_plus_c = 1 + c
one_plus_dc = one_plus_c - c * dm
dm_ratio = dm / one_plus_dc
n_1mc2 = half * (1 - c) * one_plus_c / one_plus_dc
r11 = half * dm * dm_ratio + delta * (one_plus_c / one_plus_dc)
r12 = half * ((one_plus_c - dm) / one_plus_dc) * sympy.sqrt(dm * (1 + delta))
r22 = dm_ratio * (half * (1 + delta))
p_star = 1 / (1 + n_1mc2)

# `_prior_terms`: Lambda's entries and the radius r of its eigenvalues p - 1/2 -+ r.
a11, a12, a22 = p * r11 - (1 - p), p * r12, p * r22
radius = sympy.sqrt((half * (a11 - a22)) ** 2 + a12**2)
kernel_rho2 = sympy.Matrix([[r11, r12], [r12, r22]])

#: name: (the kernel's form, what it is proved equal to, the kernel's value
#: of that form from (pair, record), or None where the kernel returns none).
IDENTITIES = {
    "N": (half / one_plus_dc, N, lambda pair, record: pair[0]),
    "r11": (r11, rho2[0, 0], lambda pair, record: pair[1]),
    "r12": (r12, rho2[0, 1], lambda pair, record: pair[2]),
    "r22": (r22, rho2[1, 1], lambda pair, record: pair[3]),
    "N(1-c^2)": (n_1mc2, N * (1 - c**2), lambda pair, record: pair[4]),
    "p_star": (p_star, (2 + 2 * delta * c) / (3 + 2 * delta * c - c**2), lambda pair, record: pair[5]),
    "det rho2": (r22 * n_1mc2, kernel_rho2.det(), lambda pair, record: pair[3] * pair[4]),
    "tr rho2": (r11 + r22, sympy.Integer(1), lambda pair, record: pair[1] + pair[3]),
    "det Lambda": (
        p * r22 * (p - p_star) * (1 + n_1mc2),
        sympy.Matrix([[a11, a12], [a12, a22]]).det(),
        lambda pair, record: record[3] * record[4],
    ),
    # 1 - 4r**2 = (1 - 2r)(1 + 2r), so o_err = (1 - 2r)/2 is this over 2(1 + 2r),
    # as `_prior_terms` forms it wherever measuring is not useless.
    "1-4r^2": (
        4 * p * ((1 - p) * r11 + p * r22 * n_1mc2),
        1 - 4 * radius**2,
        lambda pair, record: None if record[10] else record[5] * 2.0 * (1.0 + 2.0 * math.sqrt(
            (0.5 * (record[0] - record[2])) ** 2 + record[1] ** 2)),
    ),
    "1+delta^2+2delta*c": (
        dm**2 + 2 * delta * one_plus_c,
        1 + delta**2 + 2 * delta * c,
        lambda pair, record: pair[1] / pair[0],
    ),
}


@pytest.mark.parametrize("name", IDENTITIES)
def test_identity_is_proved(name):
    form, meaning, _ = IDENTITIES[name]
    assert sympy.simplify(form - meaning) == 0


def _points(count=200, seed=20261020):
    """Seeded doubles (delta, dm, c, p) with dm = 1 - delta exactly, so that
    the kernel and the proved form take the same inputs; 1 - delta down to
    1e-12, c next to both ends and at -delta, p next to both ends, and the
    singular point delta*c = -1 left out."""
    rng = random.Random(seed)
    for _ in range(count):
        gap = rng.choice([rng.random(), 10.0 ** rng.uniform(-12.0, 0.0)])
        d = 1.0 - max(gap, 1e-300)
        c_value = rng.choice([rng.uniform(-1.0, 1.0), -1.0 + 10.0 ** rng.uniform(-12.0, -1.0),
                              1.0 - 10.0 ** rng.uniform(-12.0, -1.0), -d])
        p_value = rng.choice([rng.random(), 10.0 ** rng.uniform(-9.0, -1.0), 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)])
        yield d, 1.0 - d, c_value, p_value


POINTS = list(_points())


def _scale(name, pair, want, d, dm_value, c_value, p_value):
    """The size the kernel's rounding is measured against: the value itself,
    except at the two subtractions the kernel forms from rounded terms, which
    cancel there.  r12's delta + c is (1 + c) - dm with 1 + c rounded, and
    det Lambda's p - p_star subtracts a rounded p_star: for those two, the
    size of the terms."""
    if name == "r12":
        return pair[0] * ((1.0 + c_value) + dm_value) * math.sqrt(dm_value * (1.0 + d))
    if name == "det Lambda":
        return p_value * pair[3] * (p_value + pair[5]) * (1.0 + pair[4])
    return abs(want)


@pytest.mark.parametrize("name", IDENTITIES)
def test_kernel_evaluates_the_proved_form(name):
    form, _, kernel_value = IDENTITIES[name]
    exact = sympy.lambdify((delta, c, p), form, modules="mpmath")
    checked = 0
    with mpmath.workdps(120):
        for d, dm_value, c_value, p_value in POINTS:
            pair = _pair_terms(d, dm_value, c_value)
            record = _prior_terms(pair, p_value)
            got = kernel_value(pair, record)
            if got is None:
                continue
            want = float(exact(mpmath.mpf(d), mpmath.mpf(c_value), mpmath.mpf(p_value)))
            scale = _scale(name, pair, want, d, dm_value, c_value, p_value)
            assert abs(got - want) <= ULPS * EPS * scale, (d, c_value, p_value, got, want)
            checked += 1
    assert checked >= len(POINTS) // 2
