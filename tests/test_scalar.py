"""The inputs the scalar ports refuse.  Their bit-for-bit parity with SciPy
is checked in ``tests/test_with_scipy.py``."""

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
