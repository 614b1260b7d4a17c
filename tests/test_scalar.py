"""The scalar ports against SciPy, compared with ``float.hex``, and the
inputs they refuse.  The parity tests skip where scipy is not installed."""

import math

import numpy as np
import pytest

from failsafekit import GeneratorSpec, ValidationError, sample_copula
from failsafekit import fitlab, scalar


def _hex(values):
    return [float(v).hex() for v in values]


# ------------------------------------------------------------- dilogarithm
@pytest.mark.parametrize("lo, hi", [
    (0.0, 0.5),     # w = -x, the reflection term
    (0.5, 1.5),     # w = x - 1, frank's e = 1 - e^-theta lies here
    (1.5, 2.0),     # w = 1/x - 1
    (2.0, 1e3),     # x -> 1/x first
], ids=["below-half", "middle", "up-to-two", "above-two"])
def test_spence_matches_scipy_on_each_branch(lo, hi):
    special = pytest.importorskip("scipy.special")
    xs = np.linspace(lo, hi, 20001)
    assert _hex(scalar.spence(x) for x in xs.tolist()) == _hex(special.spence(xs))


def test_spence_matches_scipy_at_branch_points_and_extremes():
    special = pytest.importorskip("scipy.special")
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 5e-324, 1e-300, math.exp(-30.0),
                   math.exp(30.0), 1e308, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52])
    assert _hex(scalar.spence(x) for x in xs.tolist()) == _hex(special.spence(xs))
    # NaN outside [0, inf), as in SciPy
    for x in (-1.0, math.inf, math.nan):
        assert math.isnan(scalar.spence(x)) and math.isnan(float(special.spence(x)))


# ------------------------------------------------------------------ brentq
@pytest.mark.parametrize("taus", [
    np.geomspace(1e-150, 1e-3, 300),
    np.linspace(0.001, 0.999, 300),
    1.0 - np.geomspace(1e-15, 1e-3, 300),
], ids=["near-0", "middle", "near-1"])
def test_brentq_matches_scipy_on_frank_tau(taus):
    optimize = pytest.importorskip("scipy.optimize")
    got, want = [], []
    for tau in taus.tolist():
        def f(theta):
            return fitlab.frank_tau(theta) - tau
        args = (f, 8.0 * tau, 8.0 / (1.0 - tau))
        got.append(scalar.brentq(*args, xtol=fitlab._FRANK_XTOL))
        want.append(optimize.brentq(*args, xtol=fitlab._FRANK_XTOL))
    assert _hex(got) == _hex(want)


# --------------------------------------------------------- bounded search
def _scipy_bounded(func, lo, hi, xatol, maxiter=500):
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), float(res.fun), bool(res.success)


def _samples():
    rng = np.random.default_rng(7)
    for i in range(24):
        m = int(rng.integers(8, 200))
        yield [rng.weibull(rng.uniform(0.3, 8.0), m) * rng.uniform(0.1, 100.0),
               rng.gamma(rng.uniform(0.2, 20.0), rng.uniform(0.01, 10.0), m),
               np.exp(rng.normal(0.0, rng.uniform(0.05, 3.0), m)),
               rng.pareto(rng.uniform(0.5, 5.0), m) + 1e-3][i % 4]
    # flat burr profiles leave the shape unidentified
    yield 1000.0 + np.random.default_rng(1).normal(0.0, 0.01, 200)


@pytest.mark.parametrize("family", ["weibull", "gamma", "burr"])
@pytest.mark.parametrize("maxiter", [500, 6], ids=["converging", "maxiter-reached"])
def test_bounded_search_matches_scipy_on_mle_profiles(family, maxiter, monkeypatch):
    pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(scalar, "_BOUNDED_MAXITER", maxiter)
    successes = set()
    for data in _samples():
        centre, inner = fitlab._PROFILES[family]
        lo, hi = centre(data) + np.log([1e-3, 1e3])

        def neg(s):
            return -fitlab._loglik(family, inner(data, np.exp(s)), data)

        got = scalar.minimize_bounded(neg, lo, hi, xatol=1e-10)
        want = _scipy_bounded(neg, lo, hi, xatol=1e-10, maxiter=maxiter)
        assert (*_hex(got[:2]), got[2]) == (*_hex(want[:2]), want[2])
        successes.add(got[2])
    assert successes == {maxiter == 500}


def test_mle_fit_matches_the_scipy_search(monkeypatch):
    pytest.importorskip("scipy.optimize")
    got = [fitlab.mle_fit(f, x) for x in _samples() for f in ("weibull", "gamma", "burr")]
    monkeypatch.setattr(fitlab, "minimize_bounded", _scipy_bounded)
    want = [fitlab.mle_fit(f, x) for x in _samples() for f in ("weibull", "gamma", "burr")]
    assert got == want  # converged included
    assert {r.converged for r in got} == {True, False}


@pytest.mark.parametrize("family, theta", [("clayton", 2.0), ("gumbel", 1.6), ("frank", 5.0)])
def test_pseudo_likelihood_refit_matches_the_scipy_search(monkeypatch, family, theta):
    pytest.importorskip("scipy.optimize")
    samples = [fitlab.pseudo_observations(
        sample_copula(GeneratorSpec(family, theta), d, 50, seed=s).uniforms)
        for s, d in zip(range(6), (2, 3) * 3)]

    def refits():
        return _hex(fitlab.fit_copula(family, p, "pseudo_likelihood") for p in samples)

    got = refits()
    monkeypatch.setattr(fitlab, "minimize_bounded", _scipy_bounded)
    assert got == refits()


# ---------------------------------------------------------------- refusals
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
