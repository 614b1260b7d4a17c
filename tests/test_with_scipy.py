"""Every check against SciPy, in one file that skips as a whole where scipy is
not installed; no other test module imports it.  The package never loads
scipy: these tests compare its numpy ports and samplers with SciPy's
reference implementations, most of them bit for bit through ``float.hex``."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("scipy")

from scipy import optimize, special, stats
from scipy.integrate import quad
from scipy.special import logsumexp

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    SemiParamModel,
    SystemSpec,
    phi,
    psi,
    sample_copula,
    sample_lifetimes,
    sp_survival,
)
from failsafekit import fitlab, scalar
from failsafekit.fitlab import (
    _kendall_tau_matrix,
    fixed_shape_weibull_scale,
    frank_tau,
    mle_fit,
    pseudo_observations,
)
from failsafekit.mcsim import THETA_MAX
from failsafekit.models import pdf
from test_mcsim import N_BIG
from test_models import ALL_BASELINES, _ids


# -------------------------------- fitlab: profile fits, ranks, Kendall tau
@pytest.mark.parametrize("seed", [88, 42])
@pytest.mark.parametrize("family", ["weibull", "gamma"])
def test_profile_fit_matches_scipy(seed, family):
    dist = stats.weibull_min if family == "weibull" else stats.gamma
    data = 10.0 * np.random.default_rng(seed).weibull(2.0, size=120)
    res = mle_fit(family, data)
    shape, _, scale = dist.fit(data, floc=0)
    ref = float(np.sum(dist.logpdf(data, shape, 0, scale)))
    assert res.loglik >= ref - 1e-9 * max(1.0, abs(ref))
    assert res.params["shape"] == pytest.approx(shape, rel=1e-4)
    assert res.converged


def _random_matrix(rng, m, d, tied):
    x = rng.normal(size=(m, d))
    return np.round(x * 2.0) if tied else x


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pseudo_observations_equal_rankdata_bitwise(d, tied):
    rng = np.random.default_rng(100 * d + tied)
    for m in (2, 7, 40, 151):
        x = _random_matrix(rng, m, d, tied)
        if np.any(np.ptp(x, axis=0) == 0.0):
            continue
        ref = stats.rankdata(x, axis=0, method="average") / (m + 1.0)
        assert pseudo_observations(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 5])
def test_batched_ranks_equal_rankdata_per_slice(d):
    rng = np.random.default_rng(30 + d)
    for m in (2, 9, 40, 108):
        stack = np.stack([_random_matrix(rng, m, d, tied=True) for _ in range(7)])
        stack = stack[np.all(np.ptp(stack, axis=1) > 0.0, axis=1)]
        got = fitlab._twice_ranks(stack) / 2.0
        assert got.shape == stack.shape
        for x, ranks in zip(stack, got):
            assert ranks.tobytes() == stats.rankdata(x, axis=0, method="average").tobytes()


def _tau_budgets(d):
    """The default comparison budget, and one of seven lag rows of one
    count-60 matrix: a stack of five such matrices then compares one lag at
    a time, the half lag alone in the last pass, and one matrix ends in a
    partial pass of lags 29 and 30; at count 203 the last pass is lag 101
    alone."""
    return (fitlab._BLOCK_BYTES, 7 * d * 60)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_kendall_tau_matrix_equals_kendalltau_bitwise(d, tied, monkeypatch):
    rng = np.random.default_rng(10 * d + tied)
    off = ~np.eye(d, dtype=bool)
    for m in (2, 3, 11, 60, 203):
        stack = np.stack([_random_matrix(rng, m, d, tied) for _ in range(5)])
        ref = np.full((5, d, d), np.nan)
        for b, i, j in np.ndindex(5, d, d):
            if i != j:
                ref[b, i, j] = stats.kendalltau(stack[b, :, i], stack[b, :, j]).statistic
        for budget in _tau_budgets(d):
            monkeypatch.setattr(fitlab, "_BLOCK_BYTES", budget)
            taus = _kendall_tau_matrix(stack)
            assert taus.shape == (5, d, d)
            assert ([float(t).hex() for t in taus[:, off].ravel()]
                    == [float(t).hex() for t in ref[:, off].ravel()]), m
            for x, tau in zip(stack, taus):
                assert _kendall_tau_matrix(x[None]).tobytes() == tau.tobytes()
            if np.all(np.ptp(stack, axis=1) > 0.0):
                # signs of narrow integer twice-ranks are the signs of the values
                twice = fitlab._twice_ranks(stack).astype(np.uint16)
                assert _kendall_tau_matrix(twice).tobytes() == taus.tobytes()


def test_kendall_tau_matrix_constant_column_is_nan(monkeypatch):
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(3, 30, 4))
    stack[1, :, 2] = 1.5
    for budget in _tau_budgets(4):
        monkeypatch.setattr(fitlab, "_BLOCK_BYTES", budget)
        taus = _kendall_tau_matrix(stack)
        assert not np.any(np.isnan(taus[[0, 2]]))
        x, tau = stack[1], taus[1]
        assert np.all(np.isnan(tau[2])) and np.all(np.isnan(tau[:, 2]))
        assert np.isnan(stats.kendalltau(x[:, 0], x[:, 2]).statistic)
        ref = stats.kendalltau(x[:, 0], x[:, 3]).statistic
        assert float(tau[0, 3]).hex() == float(ref).hex()


def test_fixed_shape_weibull_scale_large_shape_finite():
    data = np.array([100.0, 101.0, 102.0, 103.0, 104.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = fixed_shape_weibull_scale(data, 200.0)
    # mean(x^b)^(1/b) through logsumexp: 104^200 alone overflows
    want = np.exp((logsumexp(200.0 * np.log(data)) - np.log(data.size)) / 200.0)
    assert est == pytest.approx(want, rel=1e-13)


# ----------------------------------- mcsim: samplers against SciPy's tests
def test_independence_tau_near_zero():
    u = sample_copula(GeneratorSpec("independence"), 2, N_BIG, seed=1).uniforms
    tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert abs(tau) < 0.01


def test_clayton_tau_matches_closed_form():
    # tau = theta / (theta + 2) = 0.5 at theta = 2
    u = sample_copula(GeneratorSpec("clayton", 2.0), 2, N_BIG, seed=2).uniforms
    tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert tau == pytest.approx(0.5, abs=0.01)


def test_gumbel_tau_matches_closed_form():
    # tau = 1 - 1/theta = 0.5 at theta = 2
    u = sample_copula(GeneratorSpec("gumbel", 2.0), 2, N_BIG, seed=3).uniforms
    tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert tau == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("g", [
    GeneratorSpec("independence"),
    GeneratorSpec("clayton", 2.0),
    GeneratorSpec("gumbel", 1.7),
    GeneratorSpec("frank", 4.0),
    GeneratorSpec("amh", 0.6),
], ids=lambda g: f"{g.family}")
def test_marginals_uniform_and_joint_law_matches_copula(g):
    u = sample_copula(g, 3, N_BIG, seed=7).uniforms
    for j in range(3):
        assert stats.kstest(u[:, j], "uniform").pvalue > 0.001
    # empirical joint cdf vs the analytic copula at probe points
    rng = np.random.default_rng(5)
    for _ in range(8):
        pt = rng.uniform(0.2, 0.9, 3)
        emp = np.mean(np.all(u <= pt[None, :], axis=1))
        ana = psi(g, np.sum(phi(g, pt)))
        assert abs(emp - ana) <= 4.0 / np.sqrt(N_BIG) + 0.002, (g, pt)


@pytest.mark.parametrize("theta", [40.0, 500.0])
def test_frank_sampler_with_strong_dependence(theta):
    # p = 1 - e^-theta rounds to 1 here; the log-series frailty must not
    u = sample_copula(GeneratorSpec("frank", theta), 2, 4000, seed=8).uniforms
    assert u.max() < 1.0 - 1e-15
    assert stats.kstest(u[:, 0], "uniform").pvalue > 0.001
    tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert tau == pytest.approx(frank_tau(theta), abs=0.01)


@pytest.mark.parametrize("family,tau", [("clayton", 50.0 / 52.0), ("gumbel", 1.0 - 1.0 / 50.0)])
def test_power_frailty_samplers_at_theta_max(family, tau):
    # the largest theta sampled still gives finite uniforms with the family's tau
    u = sample_copula(GeneratorSpec(family, THETA_MAX[family]), 2, 4000, seed=8).uniforms
    assert np.all((u > 0.0) & (u < 1.0))
    assert stats.kstest(u[:, 0], "uniform").pvalue > 0.001
    assert stats.kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(tau, abs=0.01)


def test_lifetime_marginals_ks_against_analytic_survival():
    m = SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.5, lam=1.5)
    sysd = SystemSpec(2, m, (0.7, 1.3), GeneratorSpec("frank", 3.0))
    lt = sample_lifetimes(sysd, 20_000, seed=22)
    for j, theta in enumerate(sysd.theta):
        pv = stats.kstest(lt[:, j], lambda x, t=theta: 1.0 - sp_survival(m, x, t)).pvalue
        assert pv > 0.001, (j, pv)


# ----------------------------------------- models: densities by quadrature
@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_pdf_integrates_to_one(b):
    total, err = quad(lambda t: pdf(b, t), 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=max(1e-6, 10 * err))


# ------------------------------------------ scalar: the ports, bit for bit
def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("lo, hi", [
    (0.0, 0.5),     # w = -x, the reflection term
    (0.5, 1.5),     # w = x - 1, frank's e = 1 - e^-theta lies here
    (1.5, 2.0),     # w = 1/x - 1
    (2.0, 1e3),     # x -> 1/x first
], ids=["below-half", "middle", "up-to-two", "above-two"])
def test_spence_matches_scipy_on_each_branch(lo, hi):
    xs = np.linspace(lo, hi, 20001)
    assert _hex(scalar.spence(x) for x in xs.tolist()) == _hex(special.spence(xs))


def test_spence_matches_scipy_at_branch_points_and_extremes():
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 5e-324, 1e-300, math.exp(-30.0),
                   math.exp(30.0), 1e308, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52])
    assert _hex(scalar.spence(x) for x in xs.tolist()) == _hex(special.spence(xs))
    # NaN outside [0, inf), as in SciPy
    for x in (-1.0, math.inf, math.nan):
        assert math.isnan(scalar.spence(x)) and math.isnan(float(special.spence(x)))


@pytest.mark.parametrize("taus", [
    np.geomspace(1e-150, 1e-3, 300),
    np.linspace(0.001, 0.999, 300),
    1.0 - np.geomspace(1e-15, 1e-3, 300),
], ids=["near-0", "middle", "near-1"])
def test_brentq_matches_scipy_on_frank_tau(taus):
    got, want = [], []
    for tau in taus.tolist():
        def f(theta):
            return fitlab.frank_tau(theta) - tau
        args = (f, 8.0 * tau, 8.0 / (1.0 - tau))
        got.append(scalar.brentq(*args, xtol=fitlab._FRANK_XTOL))
        want.append(optimize.brentq(*args, xtol=fitlab._FRANK_XTOL))
    assert _hex(got) == _hex(want)


def _scipy_bounded(func, lo, hi, xatol, maxiter=500):
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
    got = [fitlab.mle_fit(f, x) for x in _samples() for f in ("weibull", "gamma", "burr")]
    monkeypatch.setattr(fitlab, "minimize_bounded", _scipy_bounded)
    want = [fitlab.mle_fit(f, x) for x in _samples() for f in ("weibull", "gamma", "burr")]
    assert got == want  # converged included
    assert {r.converged for r in got} == {True, False}


@pytest.mark.parametrize("family, theta", [("clayton", 2.0), ("gumbel", 1.6), ("frank", 5.0)])
def test_pseudo_likelihood_refit_matches_the_scipy_search(monkeypatch, family, theta):
    samples = [fitlab.pseudo_observations(
        sample_copula(GeneratorSpec(family, theta), d, 50, seed=s).uniforms)
        for s, d in zip(range(6), (2, 3) * 3)]

    def refits():
        return _hex(fitlab.fit_copula(family, p, "pseudo_likelihood") for p in samples)

    got = refits()
    monkeypatch.setattr(fitlab, "minimize_bounded", _scipy_bounded)
    assert got == refits()
