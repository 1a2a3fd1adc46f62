"""The package's Brent root finder and bounded Brent minimizer against
scipy's, the code they transcribe: the same bits, and the same errors."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from sectionscope._numerics import brentq, minimize_bounded
from sectionscope.flows import _ROOT_TOL


def _outcome(solve, *args, **kwargs):
    """The bits of solve's result, or the type of the error it raised."""
    try:
        return float(solve(*args, **kwargs)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


_coefficients = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)


@settings(max_examples=400, deadline=None)
@given(coef=_coefficients, power=st.integers(1, 5),
       ends=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       xtol=st.sampled_from([1e-15, 1e-14, 2e-12, _ROOT_TOL]),
       digits=st.one_of(st.none(), st.integers(0, 3)),
       scale=st.sampled_from([1.0, 1e-300]))
def test_brentq_is_scipys_bit_for_bit(coef, power, ends, xtol, digits,
                                      scale):
    def f(x):
        # rounded to digits, f has plateaus (equal values at distinct x);
        # scaled to 1e-300, the extrapolation's products underflow
        y = (coef[0] * (x - coef[1]) ** power
             + 0.1 * coef[2] * math.sin(3.0 * x) + 1e-3 * coef[3])
        return scale * (y if digits is None else round(y, digits))

    a, b = sorted(ends)
    assert (_outcome(brentq, f, a, b, xtol=xtol)
            == _outcome(scipy_brentq, f, a, b, xtol=xtol))


def test_brentq_errors_are_scipys():
    for f, a, b in [(lambda x: x * x + 1.0, -1.0, 1.0),      # no sign change
                    (lambda x: math.nan, 0.0, 1.0),           # NaN value
                    (lambda x: 1e-200 * (x + 1.0), 0.0, 1.0)]:
        assert (_outcome(brentq, f, a, b) == _outcome(scipy_brentq, f, a, b)
                == ValueError)
    # a step at 0 with a tolerance near the smallest float: bisection needs
    # far more than the 100 iterations both allow
    slow = (lambda x: math.copysign(1.0, x), -1.0, 0.7)
    assert (_outcome(brentq, *slow, xtol=1e-300)
            == _outcome(scipy_brentq, *slow, xtol=1e-300) == RuntimeError)
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("a,b", [(0.7, 0.3), (0.9, 0.3), (1.5, 0.2)])
def test_brentq_root_is_a_float_for_numpy_tolerances(a, b):
    # the last two end on a tolerance-sized step, where a numpy tolerance
    # would make the root a numpy scalar
    def f(x):
        return math.sin(a * x) - b

    tol = 4 * sys.float_info.epsilon
    want = brentq(f, 0.0, 1.0, xtol=tol, rtol=tol)
    assert type(_ROOT_TOL) is float and _ROOT_TOL == tol
    for t in (_ROOT_TOL, np.float64(tol)):
        got = brentq(f, 0.0, 1.0, xtol=t, rtol=t)
        assert type(got) is float
        assert got.hex() == want.hex()


@settings(max_examples=300, deadline=None)
@given(coef=_coefficients,
       ends=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2,
                     unique=True),
       cut=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_bounded_minimizer_is_scipys_bit_for_bit(coef, ends, cut):
    lo, hi = sorted(ends)

    def f(x):
        # like _refine_min's value, inf on part of the interval
        if cut is not None and x > lo + cut * (hi - lo):
            return math.inf
        return (coef[0] * math.cos(3.0 * x + coef[1]) + coef[2] * x * x
                + coef[3] * x)

    with np.errstate(invalid="ignore"):
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        x, fun = minimize_bounded(f, lo, hi)
    assert x.hex() == float(res.x).hex()
    assert fun.hex() == float(res.fun).hex()
