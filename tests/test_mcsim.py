import time

import numpy as np
import pytest
from scipy import stats

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    SemiParamModel,
    SystemSpec,
    UnsupportedGeneratorError,
    ValidationError,
    empirical_survival_x2n,
    phi,
    psi,
    sample_copula,
    sample_lifetimes,
    second_smallest,
    sp_survival,
    survival_x2n,
)
from failsafekit.fitlab import frank_tau
from failsafekit.mcsim import THETA_MAX, _sample_log_series, _sample_positive_stable

N_BIG = 100_000


def scale_exp_system(gen, thetas):
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    return SystemSpec(len(thetas), m, tuple(thetas), gen)


# ------------------------------------------------------------- uniforms
def test_reproducible_batches():
    g = GeneratorSpec("clayton", 2.0)
    a = sample_copula(g, 3, 5000, seed=123).uniforms
    b = sample_copula(g, 3, 5000, seed=123).uniforms
    assert np.array_equal(a, b)
    c = sample_copula(g, 3, 5000, seed=124).uniforms
    assert not np.array_equal(a, c)


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


@pytest.mark.parametrize("family,theta", [
    ("gumbel_barnett", 0.5),
    ("gumbel_hougaard", 2.0),
    ("amh", -0.5),
    ("frank", 800.0),
    ("clayton", 100.0),
    ("gumbel", 100.0),
])
def test_unsupported_families_raise(family, theta):
    with pytest.raises(UnsupportedGeneratorError):
        sample_copula(GeneratorSpec(family, theta), 2, 10, seed=0)


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


def test_positive_stable_laplace_transform():
    rng = np.random.Generator(np.random.Philox(11))
    for alpha in (0.4, 0.5, 0.75):
        v = _sample_positive_stable(alpha, 200_000, rng)
        for t in (0.5, 1.0, 3.0):
            emp = np.mean(np.exp(-t * v))
            assert emp == pytest.approx(np.exp(-(t ** alpha)), abs=0.004), (alpha, t)


def test_log_series_pmf():
    rng = np.random.Generator(np.random.Philox(12))
    p = 0.8
    v = _sample_log_series(np.log1p(-p), 400_000, rng)
    norm = -1.0 / np.log1p(-p)
    for k in range(1, 7):
        want = norm * p ** k / k
        assert np.mean(v == k) == pytest.approx(want, abs=0.004), k


# ------------------------------------------------------------ lifetimes
def test_lifetime_marginal_mean():
    # scale-exponential with theta=2 is exponential(2): mean 1/2
    sysd = scale_exp_system(GeneratorSpec("independence"), (2.0, 2.0))
    lt = sample_lifetimes(sysd, N_BIG, seed=21)
    se = 0.5 / np.sqrt(N_BIG)
    assert abs(lt[:, 0].mean() - 0.5) < 3 * se


def test_lifetime_marginals_ks_against_analytic_survival():
    m = SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.5, lam=1.5)
    sysd = SystemSpec(2, m, (0.7, 1.3), GeneratorSpec("frank", 3.0))
    lt = sample_lifetimes(sysd, 20_000, seed=22)
    for j, theta in enumerate(sysd.theta):
        pv = stats.kstest(lt[:, j], lambda x, t=theta: 1.0 - sp_survival(m, x, t)).pvalue
        assert pv > 0.001, (j, pv)


def test_lifetime_independence_uncorrelated():
    sysd = scale_exp_system(GeneratorSpec("independence"), (1.0, 1.0))
    lt = sample_lifetimes(sysd, N_BIG, seed=23)
    corr = np.corrcoef(lt[:, 0], lt[:, 1])[0, 1]
    assert abs(corr) < 0.01


def test_lifetime_reproducibility():
    sysd = scale_exp_system(GeneratorSpec("clayton", 1.0), (1.0, 3.0))
    a = sample_lifetimes(sysd, 2000, seed=9)
    b = sample_lifetimes(sysd, 2000, seed=9)
    assert np.array_equal(a, b)


def test_inversion_resolution():
    # sampled lifetimes match the exponential quantile of the same uniforms
    sysd = scale_exp_system(GeneratorSpec("independence"), (2.0,  0.5))
    lt = sample_lifetimes(sysd, 5000, seed=31)
    u = sample_copula(sysd.generator, 2, 5000, seed=31).uniforms
    exact = -np.log(u) / np.array([2.0, 0.5])[None, :]
    assert np.max(np.abs(lt - exact)) < 1e-9


def test_heavy_tail_inversion_is_fast_and_exact():
    # burr(1, 0.5) draws lifetimes above 5e5, where one float ulp exceeds
    # an absolute x-resolution of 1e-10
    m = SemiParamModel("scale", BaselineSpec("burr", (1.0, 0.5)))
    sysd = SystemSpec(3, m, (0.5, 1.0, 2.0), GeneratorSpec("gumbel", 1.5))
    start = time.perf_counter()
    lt = sample_lifetimes(sysd, 20_000, seed=41)
    assert time.perf_counter() - start < 1.0
    u = sample_copula(sysd.generator, 3, 20_000, seed=41).uniforms
    for j, theta in enumerate(sysd.theta):
        assert np.all(np.abs(sp_survival(m, lt[:, j], theta) - u[:, j]) <= 1e-10 * u[:, j]), j


def test_location_atom_at_zero():
    # theta = -0.5 leaves mass 1 - F(0.5) below 0; it must land on 0 exactly
    m = SemiParamModel("location", BaselineSpec("weibull", (1.0, 0.8)))
    sysd = SystemSpec(3, m, (-0.5, 0.2, 1.0), GeneratorSpec("clayton", 2.0))
    count = 20_000
    lt = sample_lifetimes(sysd, count, seed=42)
    assert np.all(lt >= 0.0)
    dkw = np.sqrt(np.log(2.0 / 1e-3) / (2.0 * count))
    atom = 1.0 - sp_survival(m, 0.0, -0.5)
    assert abs(np.mean(lt[:, 0] == 0.0) - atom) <= dkw
    assert np.all(lt[:, 1] >= 0.2) and np.all(lt[:, 2] >= 1.0)


# --------------------------------------------------- empirical survival
def test_empirical_survival_trivial_points():
    lt = np.array([[1.0, 2.0, 3.0], [0.5, 4.0, 5.0]])
    assert empirical_survival_x2n(lt, 0.0) == 1.0
    assert empirical_survival_x2n(lt, 99.0) == 0.0
    # row-wise second-smallest values are 2.0 and 4.0
    assert empirical_survival_x2n(lt, 3.0) == pytest.approx(0.5)


def test_second_smallest_matches_full_sort():
    rng = np.random.default_rng(17)
    arr = rng.uniform(0.0, 10.0, size=(500, 6))
    assert np.array_equal(second_smallest(arr), np.sort(arr, axis=1)[:, 1])


def test_empty_matrix_rejected():
    with pytest.raises(ValidationError):
        empirical_survival_x2n(np.empty((0, 3)), 1.0)


# --------------------------------------------------- analytic agreement
@pytest.mark.parametrize("gen", [
    GeneratorSpec("independence"),
    GeneratorSpec("clayton", 2.0),
    GeneratorSpec("gumbel", 1.6),
    GeneratorSpec("frank", 4.0),
    GeneratorSpec("amh", 0.5),
], ids=lambda g: g.family)
def test_empirical_matches_analytic_for_all_supported_families(gen):
    count = 200_000
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.5, 0.9)))
    sysd = SystemSpec(3, m, (0.6, 1.0, 1.9), gen)
    lt = sample_lifetimes(sysd, count, seed=77)
    xs = np.linspace(0.05, 4.0, 20)
    emp = empirical_survival_x2n(lt, xs)
    ana = survival_x2n(sysd, xs)
    assert np.max(np.abs(emp - ana)) <= 4.0 / np.sqrt(count), gen
