"""The inputs the scalar ports refuse, and the bracket ends brentq returns
as they are.  Their bit-for-bit parity with SciPy is checked in
``tests/test_with_scipy.py``."""

import math

import pytest

from failsafekit import ValidationError, scalar


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_bounded_search_refuses_non_finite_bounds(lo, hi):
    with pytest.raises(ValidationError, match="bounds must be finite"):
        scalar.minimize_bounded(abs, lo, hi, xatol=1e-8)


def test_bounded_search_refuses_reversed_bounds():
    with pytest.raises(ValidationError, match="lower search bound exceeds the upper"):
        scalar.minimize_bounded(abs, 1.0, -1.0, xatol=1e-8)


def test_bounded_search_refuses_a_nan_value():
    with pytest.raises(ValidationError, match="is NaN"):
        scalar.minimize_bounded(lambda x: math.nan if x > 0.5 else x, 0.0, 1.0, xatol=1e-8)


def test_brentq_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(ValidationError, match="change sign"):
        scalar.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_brentq_refuses_a_nan_value():
    with pytest.raises(ValidationError, match="is NaN"):
        scalar.brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize("f, root", [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)])
def test_brentq_returns_a_bracket_end_that_is_an_exact_root(f, root):
    assert scalar.brentq(f, 0.0, 1.0, xtol=1e-12) == root


def test_brentq_refuses_a_search_that_runs_out_of_iterations():
    # a step at 1 bracketed by [0, 1e300]: bisection needs about 1000 halvings
    with pytest.raises(ValidationError, match="did not converge in 100 iterations"):
        scalar.brentq(lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 1e300, xtol=1e-12)
