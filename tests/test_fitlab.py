import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    SemiParamModel,
    SystemSpec,
    ValidationError,
    phi,
    psi,
    sample_copula,
)
from failsafekit import fitlab
from failsafekit.cli import load_dataset_csv
from failsafekit.demos import load_reference_manifest
from failsafekit.fitlab import (
    LifetimeDataset,
    cvm_gof,
    empirical_copula,
    fit_copula,
    fixed_shape_weibull_scale,
    frank_tau,
    mle_fit,
    pseudo_observations,
    rank_models,
    recommend_subset,
    tau_to_theta,
)
from failsafekit.fitlab import TauRangeError, _make_result
from failsafekit.mcsim import _draw_times


# ------------------------------------------------------------------ MLE
def test_exponential_mle_exact():
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    res = mle_fit("exponential", data)
    assert res.params["rate"] == 1.0 / np.mean(data)
    assert res.converged


def test_weibull_recovery_synthetic():
    rng = np.random.default_rng(2718)
    data = 67.7 * rng.weibull(5.0, size=108)
    res = mle_fit("weibull", data)
    assert abs(res.params["scale"] - 67.7) / 67.7 < 0.10
    assert abs(res.params["shape"] - 5.0) / 5.0 < 0.10
    assert res.converged


def test_gamma_on_exponential_data_shape_near_one():
    rng = np.random.default_rng(42)
    data = rng.exponential(scale=2.0, size=500)
    res = mle_fit("gamma", data)
    se = 1.0 / np.sqrt(0.6449 * 500)  # asymptotic sd of the shape MLE at 1
    assert abs(res.params["shape"] - 1.0) < 2 * se


def test_burr_recovery_synthetic():
    rng = np.random.default_rng(5)
    u = rng.uniform(size=400)
    data = ((1.0 - u) ** (-1.0 / 1.5) - 1.0) ** (1.0 / 2.0)  # burr c=2, k=1.5
    res = mle_fit("burr", data)
    assert abs(res.params["c"] - 2.0) / 2.0 < 0.15
    assert abs(res.params["k"] - 1.5) / 1.5 < 0.25
    assert res.converged


def test_weibull_profile_fit_on_very_narrow_data():
    # the optimum lies near shape 1e5, far from any fixed search interval
    data = 1000.0 + np.random.default_rng(1).normal(0.0, 0.01, 200)
    res = mle_fit("weibull", data)
    assert res.converged
    assert res.params["shape"] > 1e4
    best_multistart = 634.1042282153369  # five Nelder-Mead starts reached this
    assert res.loglik >= best_multistart - 1e-9 * best_multistart


def test_gamma_loglik_is_smooth_at_large_shape():
    # near the optimum shape 1.17e10 the log density's terms are about 1e11;
    # summed directly they cancelled to noise of 1e-2 between shapes 1e-13 apart
    data = 1000.0 + np.random.default_rng(1).normal(0.0, 0.01, 200)
    shapes = 1.1671432230e10 * (1.0 + np.arange(4) * 1e-13)
    ll = [fitlab._loglik("gamma", (k, k / np.mean(data)), data) for k in shapes]
    assert np.ptp(ll) < 1e-8, ll


def test_burr_fit_on_very_narrow_data_is_finite():
    # 1000^c overflows over the whole profile interval; the log forms must not
    data = 1000.0 + np.random.default_rng(1).normal(0.0, 0.01, 200)
    res = mle_fit("burr", data)
    assert np.isfinite(res.loglik) and all(np.isfinite(list(res.params.values())))
    assert rank_models([res, mle_fit("weibull", data)]).best.family == "weibull"


def test_flat_burr_profile_is_not_converged():
    # the burr profile loglik is flat out to the search interval's upper end
    # (higher there than at the optimum found), so c and k are not identified;
    # weibull peaks sharply on the same data
    data = 1000.0 + np.random.default_rng(1).normal(0.0, 0.01, 200)
    assert not mle_fit("burr", data).converged
    assert mle_fit("weibull", data).converged


#: mle_fit's params and loglik as float.hex on three seeded datasets,
#: recorded before _loglik stopped building a BaselineSpec per evaluation.
_MLE_PINNED = {
    (0, "exponential"): (("0x1.0b9b979f0f489p-6",), "-0x1.142f5ffc68186p+9"),
    (0, "gamma"): (("0x1.e732b2119b77cp+3", "0x1.fd49fbf7ca6a0p-3"), "-0x1.c02c5de47a768p+8"),
    (0, "weibull"): (("0x1.0bc1aa8cf5406p+6", "0x1.2f33ed98127b5p+2"), "-0x1.bb703b0964ea0p+8"),
    (0, "burr"): (("0x1.1d989014261e1p+7", "0x1.c1cbb48a8cdfep-10"), "-0x1.5e56d51d1e2e8p+9"),
    (1, "exponential"): (("0x1.114887d194238p-3",), "-0x1.69b174e91d30ap+7"),
    (1, "gamma"): (("0x1.bbc82e0bb7eedp+1", "0x1.d9be34d951f47p-2"), "-0x1.44f96823c2dfep+7"),
    (1, "weibull"): (("0x1.0e55c5ea6caecp+3", "0x1.1d7c9882b9fe9p+1"), "-0x1.3fcf2b8b7456fp+7"),
    (1, "burr"): (("0x1.7ecfe286fe498p+2", "0x1.6e9897a2e60a4p-4"), "-0x1.a6166bb96569dp+7"),
    (2, "exponential"): (("0x1.31e6fa0d6b3bbp-1",), "-0x1.e4d1a24db4fc5p+5"),
    (2, "gamma"): (("0x1.ca6c312b8ebcep+0", "0x1.11e441c760dd3p+0"), "-0x1.c97423e266898p+5"),
    (2, "weibull"): (("0x1.d7ecfe6650d84p+0", "0x1.69ad2d671ad2ap+0"), "-0x1.ca1f82bdf7a12p+5"),
    (2, "burr"): (("0x1.1ce29b23b9feap+1", "0x1.8c222309d7715p-1"), "-0x1.dd187bad0866ep+5"),
}


def _pinned_dataset(k):
    if k == 0:
        return 67.7 * np.random.default_rng(11).weibull(5.0, 108)
    if k == 1:
        return np.random.default_rng(12).gamma(2.5, 3.0, 60)
    return np.exp(np.random.default_rng(13).normal(0.0, 0.8, 40))


@pytest.mark.parametrize("k, family", sorted(_MLE_PINNED))
def test_mle_fit_pinned_bitwise(k, family):
    res = mle_fit(family, _pinned_dataset(k))
    got = (tuple(float(v).hex() for v in res.params.values()), res.loglik.hex())
    assert got == _MLE_PINNED[(k, family)]


def test_mle_rejects_bad_data():
    with pytest.raises(ValidationError):
        mle_fit("weibull", np.array([1.0, 2.0]))  # too few
    with pytest.raises(ValidationError):
        mle_fit("gamma", np.array([1.0, -2.0, 3.0, 4.0, 5.0]))
    with pytest.raises(ValidationError):
        mle_fit("weibull", np.full(20, 3.3))  # degenerate
    with pytest.raises(ValidationError, match="degenerate"):
        # distinct values with equal logs: sd(log x) = 0 leaves no search interval
        mle_fit("burr", np.repeat([1e5, np.nextafter(1e5, 2e5)], 3))
    with pytest.raises(ValidationError):
        mle_fit("lognormal", np.arange(1.0, 9.0))


# ------------------------------------------------------------- ranking
def test_aic_bic_identities():
    res = _make_result("exponential", {"rate": 1.0}, -10.0, 50, True, "d")
    assert res.aic == pytest.approx(2 * 1 - 2 * (-10.0))
    assert res.bic == pytest.approx(np.log(50) + 20.0)
    res2 = _make_result("weibull", {"scale": 1.0, "shape": 1.0}, -10.0, 50, True, "d")
    assert res2.aic == pytest.approx(24.0)
    assert res2.bic == pytest.approx(2 * np.log(50) + 20.0)


def test_rank_models_orders_by_aic():
    rng = np.random.default_rng(7)
    data = 67.7 * rng.weibull(5.0, size=108)
    fits = [mle_fit(f, data) for f in ("exponential", "gamma", "weibull", "burr")]
    ranking = rank_models(fits)
    assert ranking.best.family == "weibull"
    aics = [r.aic for r in ranking.entries]
    assert aics == sorted(aics)
    assert ranking.aic_deltas[0] == 0.0


def test_rank_single_candidate():
    res = mle_fit("exponential", np.arange(1.0, 9.0))
    ranking = rank_models([res])
    assert ranking.entries == (res,)


def test_rank_rejects_mixed_datasets():
    a = mle_fit("exponential", np.arange(1.0, 9.0))
    b = mle_fit("exponential", np.arange(2.0, 12.0))
    with pytest.raises(ValidationError):
        rank_models([a, b])


# ---------------------------------------------------- pseudo-observations
def test_pseudo_observations_examples():
    assert_allclose(pseudo_observations(np.array([[3.0], [1.0], [2.0]]))[:, 0],
                    [0.75, 0.25, 0.5])
    assert_allclose(pseudo_observations(np.array([[1.0], [1.0], [2.0]]))[:, 0],
                    [0.375, 0.375, 0.75])


def test_pseudo_observations_rank_invariance():
    rng = np.random.default_rng(3)
    col = rng.uniform(1.0, 5.0, 40)[:, None]
    assert_allclose(pseudo_observations(col), pseudo_observations(np.exp(col)))


def test_pseudo_observations_mean_half_without_ties():
    rng = np.random.default_rng(4)
    mat = rng.uniform(size=(25, 3))
    ps = pseudo_observations(mat)
    assert_allclose(ps.mean(axis=0), 0.5, atol=1e-15)


def test_pseudo_observations_constant_column_rejected():
    with pytest.raises(ValidationError):
        pseudo_observations(np.array([[1.0, 2.0], [1.0, 3.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pseudo_observations_reject_non_finite(bad):
    mat = np.array([[1.0, 2.0], [3.0, bad], [2.0, 1.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        pseudo_observations(mat)


def test_batched_ranks_refuse_the_first_failing_matrix():
    stack = np.random.default_rng(6).normal(size=(4, 10, 3))
    stack[2, :, 1] = 0.5
    stack[3, 4, 0] = np.nan
    with pytest.raises(ValidationError, match="column 1 is constant"):
        fitlab._twice_ranks(stack)
    stack[1, 0, 2] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        fitlab._twice_ranks(stack)


# ------------------------------------------------------------ copula fit
def test_tau_inversion_formulas():
    assert tau_to_theta("clayton", 0.35) == pytest.approx(2 * 0.35 / 0.65, rel=1e-12)
    assert tau_to_theta("gumbel", 0.35) == pytest.approx(1 / 0.65, rel=1e-12)
    th = tau_to_theta("frank", 0.35)
    assert frank_tau(th) == pytest.approx(0.35, abs=1e-9)
    assert th == pytest.approx(3.5088, abs=1e-3)


#: (theta, frank's tau) to 40 digits, from tau's Bernoulli series below
#: theta = 1 and the dilogarithm form above, cross-checked against a direct
#: quadrature of the Debye integral at 80 digits.
_FRANK_TAU_TABLE = (
    (1e-8, 1.111111111111111133247289811253858460288e-9),
    (1e-6, 1.111111111111099949720124251175204743856e-7),
    (1e-4, 1.111111111000000053265269791333951930127e-5),
    (1e-2, 1.111110000001889664202062923212481214494e-3),
    (0.1, 1.111000018892773979298977740947867424254e-2),
    (0.5, 5.541725432484423747319375031462118251695e-2),
    (1.0, 1.100185364489931056703461817028420287699e-1),
    (1.4, 1.526045736146816388619298990187168715469e-1),
    (1.5, 1.630541621050721157811691541217385480697e-1),
    (1.6, 1.734154417351947869060424531141879430969e-1),
    (2.0, 2.138945692196201441035763935949595283185e-1),
    (3.0, 3.07246959430723784387979214190450716233e-1),
    (5.0, 4.567009581601168968283454182924514135284e-1),
    (10.0, 6.657773862719784102516724612592463054075e-1),
    (30.0, 8.739774847415347803260092203510298317782e-1),
    (100.0, 9.606579736267392905745889660666584100757e-1),
    (700.0, 9.942991423189130467464201829809522124505e-1),
    (750.0, 9.946783639755864762768815816189628161791e-1),
    (1e3, 9.960065797362673929057458896606665841008e-1),
    (1e4, 9.99600065797362673929057458896606665841e-1),
)


@pytest.mark.parametrize("theta, tau", _FRANK_TAU_TABLE)
def test_frank_tau_matches_40_digit_table(theta, tau):
    assert frank_tau(theta) == pytest.approx(tau, rel=1e-14, abs=0.0)


def test_frank_tau_limits():
    assert frank_tau(1e20) == 1.0 and frank_tau(np.inf) == 1.0
    assert frank_tau(9e-300) == pytest.approx(1e-300, rel=1e-15)
    with pytest.raises(ValidationError):
        frank_tau(0.0)


@pytest.mark.parametrize("tau", np.concatenate([
    np.geomspace(1e-9, 0.5, 25), 1.0 - np.geomspace(1e-9, 0.5, 25)[::-1],
    [5e-324, 1e-300, 1.0 - 2.0 ** -53],  # the float ends of (0, 1)
]))
def test_frank_tau_round_trip(tau):
    theta = tau_to_theta("frank", tau)
    assert 0.0 < theta < np.inf
    assert abs(frank_tau(theta) - tau) <= 1e-12


def test_tau_thetas_equal_tau_to_theta_per_element():
    # the range edges: tau = 0 is gumbel's independence and outside the
    # others' ranges; 1 - 2**-53 is the largest float tau below 1
    taus = np.concatenate([[-0.5, -1e-300, 0.0, 5e-324, 1e-9, 1.0 / 3.0, 0.5, 1.0 - 2.0 ** -53,
                            1.0, 1.5, np.nan], np.random.default_rng(5).uniform(-0.2, 1.0, 40)])
    for family in ("clayton", "gumbel", "frank"):
        thetas = fitlab._tau_thetas(family, taus)
        for tau, theta in zip(taus.tolist(), thetas.tolist()):
            try:
                expected = tau_to_theta(family, tau)
            except TauRangeError:
                assert np.isnan(theta), (family, tau)
                continue
            assert theta.hex() == expected.hex(), (family, tau)
            if family == "clayton":
                assert theta.hex() == (2.0 * tau / (1.0 - tau)).hex()
            elif family == "gumbel":
                assert theta.hex() == (1.0 / (1.0 - tau)).hex()
    assert fitlab._tau_thetas("gumbel", np.array([0.0]))[0] == 1.0
    for family in ("clayton", "frank"):
        assert np.isnan(fitlab._tau_thetas(family, np.array([0.0, 1.0]))).all()
        assert np.isfinite(fitlab._tau_thetas(family, np.array([1.0 - 2.0 ** -53]))).all()


def test_frank_small_tau_is_theta_over_9():
    assert tau_to_theta("frank", 1e-9) == pytest.approx(9e-9, rel=1e-9)


def test_frank_inverts_every_tiny_tau():
    # before theta = 9 tau took over below _FRANK_TAU_LINEAR, 191 of these
    # raised: the root search ran out of its 100 iterations below 7.2e-156
    for tau in np.logspace(-300, -3, 400).tolist():
        theta = tau_to_theta("frank", tau)
        if tau < fitlab._FRANK_TAU_LINEAR:
            assert theta == 9.0 * tau
        assert frank_tau(theta) == pytest.approx(tau, rel=1e-14, abs=0.0)


def test_tau_out_of_range_rejected():
    for fam in ("clayton", "gumbel", "frank"):
        with pytest.raises(ValidationError):
            tau_to_theta(fam, -0.2)


def test_fit_copula_gumbel_simulated():
    u = sample_copula(GeneratorSpec("gumbel", 1.5), 2, 500, seed=101).uniforms
    ps = pseudo_observations(u)
    theta = fit_copula("gumbel", ps)
    assert 1.35 <= theta <= 1.65


def test_fit_copula_pseudo_likelihood_close_to_truth():
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 400, seed=9).uniforms
    ps = pseudo_observations(u)
    theta = fit_copula("clayton", ps, method="pseudo_likelihood")
    assert 0.75 <= theta <= 1.3


@pytest.mark.parametrize("family, theta", [("gumbel", 1.8), ("frank", 4.0)])
def test_fit_copula_pseudo_likelihood_gumbel_frank(family, theta):
    u = sample_copula(GeneratorSpec(family, theta), 2, 400, seed=9).uniforms
    fitted = fit_copula(family, pseudo_observations(u), method="pseudo_likelihood")
    assert abs(fitted - theta) < 0.2 * theta


#: float.hex of fit_copula(family, 60 x 3 sample at seed 7, "pseudo_likelihood"),
#: captured while the bivariate density ran phi through its checked form,
#: twice per margin.
_PSEUDO_LIKELIHOOD_PINNED = {
    ("clayton", 1.5): "0x1.1a5ecab2895c3p+1",
    ("gumbel", 1.7): "0x1.83dd75c11db95p+0",
    ("frank", 4.0): "0x1.1a0d8f727ff50p+2",
}


@pytest.mark.parametrize("family,theta", list(_PSEUDO_LIKELIHOOD_PINNED))
def test_fit_copula_pseudo_likelihood_pinned_bitwise(family, theta):
    ps = pseudo_observations(sample_copula(GeneratorSpec(family, theta), 3, 60, seed=7).uniforms)
    got = fit_copula(family, ps, method="pseudo_likelihood").hex()
    assert got == _PSEUDO_LIKELIHOOD_PINNED[(family, theta)]


@pytest.mark.parametrize("family, theta", [("clayton", 1.5), ("gumbel", 1.8), ("frank", 4.0)])
def test_bivariate_log_density_is_mixed_partial_of_copula(family, theta):
    # c(u, v) = d2/du dv psi(phi(u) + phi(v)), by central differences
    g = GeneratorSpec(family, theta)
    grid = np.array([0.15, 0.4, 0.6, 0.85])
    u, v = (a.ravel() for a in np.meshgrid(grid, grid))
    cop = lambda a, b: psi(g, phi(g, a) + phi(g, b))
    h = 1e-4
    fd = (cop(u + h, v + h) - cop(u + h, v - h) - cop(u - h, v + h) + cop(u - h, v - h)) / (4 * h * h)
    assert_allclose(np.exp(fitlab._bivariate_log_density(family, theta, u, v)), fd, rtol=1e-5)


def test_fit_copula_mean_pairwise_above_two_dims():
    u = sample_copula(GeneratorSpec("clayton", 2.0), 4, 800, seed=31).uniforms
    ps = pseudo_observations(u)
    theta = fit_copula("clayton", ps)
    assert 1.6 <= theta <= 2.4


def test_fit_copula_rejects_nan():
    ps = np.array([[0.2, 0.4], [0.6, np.nan], [0.4, 0.2], [0.8, 0.6]])
    with pytest.raises(ValidationError, match=re.escape("pseudo-observation must lie in (0, 1), got nan")):
        fit_copula("clayton", ps)


@pytest.mark.parametrize("count", [0, 1])
def test_fit_copula_refuses_fewer_than_two_rows(count):
    with pytest.raises(ValidationError, match=re.escape("count >= 2")):
        fit_copula("clayton", np.full((count, 2), 0.5))


def test_fit_copula_names_constant_column():
    ps = np.array([[0.2, 0.5, 0.4], [0.6, 0.5, 0.8], [0.4, 0.5, 0.2], [0.8, 0.5, 0.6]])
    with pytest.raises(ValidationError, match="column 1 is constant"):
        fit_copula("clayton", ps)


def test_comonotone_data_is_unattainable():
    x = np.sort(np.random.default_rng(0).uniform(size=50))
    ps = pseudo_observations(np.stack([x, 2 * x], axis=1))
    with pytest.raises(ValidationError):
        fit_copula("clayton", ps)


# ------------------------------------------------------------------ GOF
def test_cvm_reproducible():
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 120, seed=6).uniforms
    ps = pseudo_observations(u)
    a = cvm_gof("clayton", ps, boot_n=100, seed=5)
    b = cvm_gof("clayton", ps, boot_n=100, seed=5)
    assert a == b
    assert 0.0 <= a.p_value <= 1.0 and a.statistic >= 0.0


def test_cvm_rejects_wrong_family_and_accepts_right_one():
    u = sample_copula(GeneratorSpec("gumbel", 4.0), 2, 200, seed=55).uniforms
    ps = pseudo_observations(u)
    wrong = cvm_gof("clayton", ps, boot_n=100, seed=9)
    right = cvm_gof("gumbel", ps, boot_n=100, seed=9)
    assert wrong.p_value <= 0.01
    assert right.p_value >= 0.2
    assert wrong.statistic > right.statistic


def test_cvm_boot_n_floor():
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 50, seed=6).uniforms
    with pytest.raises(ValidationError):
        cvm_gof("clayton", pseudo_observations(u), boot_n=10, seed=1)


@pytest.mark.parametrize("boot_n, message", [
    (150.5, "boot_n must be an integer, got 150.5"),
    (True, "boot_n must be an integer, got True"),
    ("150", "boot_n must be an integer, got '150'"),
    (np.nan, "boot_n must be an integer, got nan"),
    (99, "boot_n must be at least 100, got 99"),
    (2 ** 60, f"boot_n must be at most {2 ** 60 - 1}, got {2 ** 60}"),
], ids=["fraction", "bool", "string", "nan", "below-minimum", "beyond-numpy"])
def test_cvm_gof_refuses_a_malformed_boot_n(boot_n, message):
    # the fraction, the string and NaN raised a bare TypeError; True read as 1;
    # 2**60 raised numpy's "Maximum allowed dimension exceeded"
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 50, seed=6).uniforms
    with pytest.raises(ValidationError) as err:
        cvm_gof("clayton", pseudo_observations(u), boot_n=boot_n, seed=1)
    assert str(err.value) == message


def test_cvm_gof_takes_an_integral_float_boot_n_as_its_int():
    ps = pseudo_observations(sample_copula(GeneratorSpec("clayton", 1.0), 3, 40, seed=6).uniforms)
    want = cvm_gof("clayton", ps, boot_n=150, seed=1)
    got = cvm_gof("clayton", ps, boot_n=150.0, seed=1)
    assert type(got.bootstrap_n) is int
    assert [float(v).hex() for v in (got.theta, got.statistic, got.p_value)] == \
        [float(v).hex() for v in (want.theta, want.statistic, want.p_value)]
    assert got == want


@pytest.mark.parametrize("theta,seed", [(6.0, 3), (8.0, 0)])
def test_cvm_frank_replicates_with_strong_dependence(theta, seed):
    # 6 x 20 frank samples whose bootstrap replicates refit theta above 13,
    # where 1 + (e^-theta - 1) e^-t cancels near t = 0
    u = sample_copula(GeneratorSpec("frank", theta), 6, 20, seed).uniforms
    res = cvm_gof("frank", pseudo_observations(u), boot_n=100, seed=seed)
    assert 0.0 <= res.p_value <= 1.0 and res.bootstrap_n == 100


def test_cvm_frank_refit_near_zero_theta_is_silent():
    # a replicate whose mean tau is rounding residue above 0 refits theta
    # ~ 1.7e-17, where frank's far phi branch would warn if evaluated
    u = sample_copula(GeneratorSpec("clayton", 0.05), 6, 8, seed=11).uniforms
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = cvm_gof("frank", u, boot_n=104, seed=11)
    assert res.bootstrap_n == 104 and 0.0 <= res.p_value <= 1.0


def test_cvm_frank_sample_beyond_float_p():
    # at theta = 40 the frailty's p = 1 - e^-theta rounds to 1 in float64
    u = sample_copula(GeneratorSpec("frank", 40.0), 3, 60, seed=1).uniforms
    res = cvm_gof("frank", pseudo_observations(u), boot_n=100, seed=1)
    assert 25.0 < res.theta < 60.0 and 0.0 <= res.p_value <= 1.0


#: float.hex of (theta, statistic, p_value) of cvm_gof(family, 40 x d sample
#: at seed 11, boot_n=100, seed=3), captured while kendalltau and rankdata
#: still came from scipy.stats; the frank entries since frank_tau took its
#: closed form (see _CVM_FRANK_QUADRATURE).
_CVM_PINNED = {
    ("clayton", 1.5, 2): ("0x1.b6db6db6db6dcp+0", "0x1.b9b93f3787ffap-6", "0x1.0f5c28f5c28f6p-1"),
    ("clayton", 1.5, 5): ("0x1.738a31d738a34p+0", "0x1.7a987b88683c4p-5", "0x1.3333333333333p-1"),
    ("gumbel", 1.7, 2): ("0x1.5d1745d1745d1p+0", "0x1.2d4311115665cp-6", "0x1.f5c28f5c28f5cp-1"),
    ("gumbel", 1.7, 5): ("0x1.8c30c30c30c30p+0", "0x1.39c65a4cd3718p-5", "0x1.b851eb851eb85p-1"),
    ("frank", 4.0, 2): ("0x1.f9f6094d286c5p+1", "0x1.6347a1e145c2bp-6", "0x1.bd70a3d70a3d7p-1"),
    ("frank", 4.0, 5): ("0x1.3c94d0f1ae6abp+2", "0x1.4df139ec68990p-5", "0x1.9eb851eb851ecp-1"),
}


@pytest.mark.parametrize("family,theta,d", list(_CVM_PINNED))
def test_cvm_pinned_bitwise(family, theta, d):
    u = sample_copula(GeneratorSpec(family, theta), d, 40, seed=11).uniforms
    res = cvm_gof(family, pseudo_observations(u), boot_n=100, seed=3)
    got = (res.theta.hex(), res.statistic.hex(), res.p_value.hex())
    assert got == _CVM_PINNED[(family, theta, d)]


#: float.hex of (theta, statistic, p_value) and out_of_range of
#: cvm_gof(family, m x d sample at seed 11, boot_n=100, seed=3) at the
#: extreme shapes of the fit_gof benchmark, captured while every bootstrap
#: kernel still built (m, m, d) pairwise tensors; frank's since frank_tau
#: took its closed form.
_CVM_PINNED_SHAPES = {
    ("gumbel", 1.7, 6, 108): ("0x1.ad1bf42833e31p+0", "0x1.f7eef02f45414p-6",
                              "0x1.8a3d70a3d70a4p-1", 0),
    ("frank", 4.0, 3, 12): ("0x1.88accf52a4a0ep+1", "0x1.457d12dac483cp-4",
                            "0x1.eb851eb851eb8p-2", 4),
}


@pytest.mark.parametrize("family,theta,d,m", list(_CVM_PINNED_SHAPES))
def test_cvm_pinned_shapes_bitwise(family, theta, d, m):
    u = sample_copula(GeneratorSpec(family, theta), d, m, seed=11).uniforms
    res = cvm_gof(family, pseudo_observations(u), boot_n=100, seed=3)
    got = (res.theta.hex(), res.statistic.hex(), res.p_value.hex(), res.out_of_range)
    assert got == _CVM_PINNED_SHAPES[(family, theta, d, m)]


#: The frank pins (theta, statistic, p_value, out_of_range) as they stood
#: while frank_tau integrated the Debye function by quadrature.  Both
#: thetas lie within 4.1e-16 of the exact root; the closed form moves theta
#: by 1-3 ulps, so theta and the statistic agree within 1e-13 relative, the
#: p-value and the out-of-range count exactly.
_CVM_FRANK_QUADRATURE = {
    (2, 40): ("0x1.f9f6094d286c2p+1", "0x1.6347a1e145c26p-6", "0x1.bd70a3d70a3d7p-1", 0),
    (5, 40): ("0x1.3c94d0f1ae6acp+2", "0x1.4df139ec6897ep-5", "0x1.9eb851eb851ecp-1", 0),
    (3, 12): ("0x1.88accf52a4a10p+1", "0x1.457d12dac483ep-4", "0x1.eb851eb851eb8p-2", 4),
}


@pytest.mark.parametrize("d,m", list(_CVM_FRANK_QUADRATURE))
def test_cvm_frank_close_to_quadrature_pins(d, m):
    u = sample_copula(GeneratorSpec("frank", 4.0), d, m, seed=11).uniforms
    res = cvm_gof("frank", pseudo_observations(u), boot_n=100, seed=3)
    theta, stat, p_value = (float.fromhex(h) for h in _CVM_FRANK_QUADRATURE[(d, m)][:3])
    assert res.theta == pytest.approx(theta, rel=1e-13, abs=0.0)
    assert res.statistic == pytest.approx(stat, rel=1e-13, abs=0.0)
    assert (res.p_value, res.out_of_range) == (p_value, _CVM_FRANK_QUADRATURE[(d, m)][3])


#: The same pins for uniforms rounded to 2 decimals, so that ties reach the
#: ranks, the tau estimate and the empirical copula; the first entry is the
#: sha256 prefix of the pseudo-observations' bytes.
_CVM_PINNED_TIED = {
    ("clayton", 1.5, 3, 80): ("300c4a196c8eca73", "0x1.7d0011d69cba9p+0",
                              "0x1.a47f161fc255dp-5", "0x1.47ae147ae147bp-6", 0),
    ("gumbel", 1.7, 2, 60): ("d7c1aecd32ec0b58", "0x1.af6aacc001652p+0",
                             "0x1.21545551be3a9p-5", "0x1.70a3d70a3d70ap-4", 0),
}


@pytest.mark.parametrize("family,theta,d,m", list(_CVM_PINNED_TIED))
def test_cvm_pinned_tied_bitwise(family, theta, d, m):
    u = np.round(sample_copula(GeneratorSpec(family, theta), d, m, seed=11).uniforms, 2)
    ps = pseudo_observations(u)
    res = cvm_gof(family, ps, boot_n=100, seed=3)
    got = (hashlib.sha256(ps.tobytes()).hexdigest()[:16], res.theta.hex(),
           res.statistic.hex(), res.p_value.hex(), res.out_of_range)
    assert got == _CVM_PINNED_TIED[(family, theta, d, m)]


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("d", [2, 6])
def test_empirical_copula_equals_broadcast_bitwise(d, tied):
    rng = np.random.default_rng(20 * d + tied)
    for m in (2, 9, 57, 108):
        p = pseudo_observations(rng.uniform(size=(m, d)))
        if tied:
            p = np.round(p, 1)
        ref = np.all(p[:, None, :] <= p[None, :, :], axis=2).mean(axis=0)
        assert empirical_copula(p).tobytes() == ref.tobytes()


def _cvm_by_definition(family, ps, child_seeds, method):
    """cvm_gof's fit and statistic, and its bootstrap one replicate at a
    time: each replicate's (exceeds, out of range)."""
    def statistic(th, p):
        g = GeneratorSpec(family, th)
        cn = np.all(p[:, None, :] <= p[None, :, :], axis=2).mean(axis=0)
        return float(np.sum((cn - psi(g, np.sum(phi(g, p), axis=1))) ** 2))

    theta = fit_copula(family, ps, method)
    stat = statistic(theta, ps)
    outcomes = []
    for s in child_seeds:
        u = sample_copula(GeneratorSpec(family, theta), ps.shape[1], ps.shape[0], int(s)).uniforms
        rep = pseudo_observations(u)
        try:
            theta_b = fit_copula(family, rep, method)
        except ValidationError:
            outcomes.append((True, True))
            continue
        outcomes.append((statistic(theta_b, rep) >= stat, False))
    return theta, stat, outcomes


@pytest.mark.parametrize("method", ["tau", "pseudo_likelihood"])
@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("family,theta", [("clayton", 0.3), ("gumbel", 1.7), ("frank", 4.0)])
def test_cvm_equals_one_replicate_at_a_time(family, theta, d, method, monkeypatch):
    # blocks of 25 replicates at m = 24, so boot_n 101 and 137 end in a
    # partial block; clayton at 0.3 sends some replicates out of range.  A
    # six-dimensional pseudo-likelihood replicate fits 15 pairs, so those
    # cases run one boot_n only.
    m = 24
    monkeypatch.setattr(fitlab, "_BLOCK_BYTES", 25 * m * m)
    ps = pseudo_observations(sample_copula(GeneratorSpec(family, theta), d, m, seed=d).uniforms)
    boot_ns = (101,) if (d, method) == (6, "pseudo_likelihood") else (100, 101, 137)
    seeds = np.random.SeedSequence(7).generate_state(boot_ns[-1], dtype=np.uint64)
    fitted, stat, outcomes = _cvm_by_definition(family, ps, seeds, method)
    for boot_n in boot_ns:
        # child seeds are a prefix of a longer run's, so replicate b is the same
        assert np.array_equal(np.random.SeedSequence(7).generate_state(boot_n, dtype=np.uint64),
                              seeds[:boot_n])
        res = cvm_gof(family, ps, boot_n=boot_n, seed=7, method=method)
        exceed, out_of_range = np.sum(outcomes[:boot_n], axis=0)
        assert (res.theta.hex(), res.statistic.hex(), res.p_value.hex(), res.out_of_range) == (
            fitted.hex(), stat.hex(), (exceed / boot_n).hex(), out_of_range)


def test_cvm_ranks_an_infinite_time_as_its_zero_uniform():
    # clayton's Gamma(1/theta) frailty underflows to 0 about once in 1e7 rows
    # at theta = 44, where E / V is +inf and the uniform psi(+inf) = 0;
    # replicate 41 of master seed 10560 draws such a row.  The bootstrap ranks
    # it below every finite time, as pseudo_observations ranks that uniform,
    # and the draw raises no RuntimeWarning (an error under pytest)
    ps = pseudo_observations(sample_copula(GeneratorSpec("clayton", 45.0), 2, 24, 19).uniforms)
    seeds = np.random.SeedSequence(10560).generate_state(100, dtype=np.uint64)
    fitted, stat, outcomes = _cvm_by_definition("clayton", ps, seeds, "tau")
    assert np.isinf(_draw_times(GeneratorSpec("clayton", fitted), 2, 24, int(seeds[41]))).any()
    res = cvm_gof("clayton", ps, boot_n=100, seed=10560)
    exceed, out_of_range = np.sum(outcomes, axis=0)
    assert (res.theta.hex(), res.statistic.hex(), res.p_value.hex(), res.out_of_range) == (
        fitted.hex(), stat.hex(), (exceed / 100).hex(), out_of_range)


@pytest.mark.parametrize("family, thetas", [
    ("clayton", [1.0, 0.4, 3.0]), ("gumbel", [2.0, 1.0, 1.7]), ("frank", [0.5, 4.0, 30.0]),
])
def test_cvm_statistics_equal_the_scalar_kernel_bitwise(family, thetas):
    # clayton 1 and gumbel 2 are exponents at which numpy's scalar ** skips pow
    stack = fitlab._twice_ranks(np.random.default_rng(3).random((12, 24, 3))) / 2.0 / 25.0
    cn = empirical_copula(stack)
    got = fitlab._cvm_statistics(family, np.array(thetas * 4), stack, cn)
    for th, p, c, stat in zip(thetas * 4, stack, cn, got.tolist()):
        g = GeneratorSpec(family, th)
        assert stat.hex() == float(np.sum((c - psi(g, np.sum(phi(g, p), axis=1))) ** 2)).hex()


def test_cvm_replicate_statistics_equal_one_at_a_time_at_gumbel_theta_2(monkeypatch):
    # at m = 9 a replicate's tau is 1/2 exactly when 27 of its 36 pairs
    # concord, and gumbel then refits theta = 2
    seen = []
    real = fitlab._cvm_statistics

    def recording(family, thetas, pseudo, cn):
        out = real(family, thetas, pseudo, cn)
        seen.extend(zip(thetas.tolist(), pseudo, cn, out.tolist()))
        return out

    monkeypatch.setattr(fitlab, "_cvm_statistics", recording)
    ps = pseudo_observations(sample_copula(GeneratorSpec("gumbel", 2.0), 2, 9, seed=9).uniforms)
    cvm_gof("gumbel", ps, boot_n=300, seed=9)
    assert sum(th == 2.0 for th, *_ in seen) > 10
    for th, p, c, stat in seen:
        g = GeneratorSpec("gumbel", th)
        assert stat.hex() == float(np.sum((c - psi(g, np.sum(phi(g, p), axis=1))) ** 2)).hex()


def test_cvm_mean_tau_rounds_as_one_replicate_at_a_time():
    # d = 6 averages 15 taus, which np.mean sums pairwise for one replicate.
    # Near independence some replicates' mean tau is 0 or within rounding of
    # it, so a block mean summed in another order moves the out-of-range count
    ps = pseudo_observations(sample_copula(GeneratorSpec("clayton", 0.05), 6, 8, seed=11).uniforms)
    seeds = np.random.SeedSequence(11).generate_state(104, dtype=np.uint64)
    _, _, outcomes = _cvm_by_definition("clayton", ps, seeds, "tau")
    exceed, out_of_range = np.sum(outcomes, axis=0)
    res = cvm_gof("clayton", ps, boot_n=104, seed=11)
    assert (res.p_value.hex(), res.out_of_range) == ((exceed / 104).hex(), out_of_range)


def test_cvm_memory_is_bounded_at_large_count():
    # at m = 1000 the block is one replicate.  The peak, about 2.5 MB, is
    # the Kendall tau kernel's pass of 131 lag rows of both columns: 262 000
    # comparisons, the budget, held as 2.1 MB of float signs.  The empirical
    # copula's two 1 MB comparison buffers stay below it.  The bound fails
    # for a kernel that stores an upper-pair index table, 16 bytes a pair
    # (8 MB here)
    ps = pseudo_observations(sample_copula(GeneratorSpec("clayton", 1.5), 2, 1000, 4).uniforms)
    tracemalloc.start()
    try:
        cvm_gof("clayton", ps, boot_n=100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_cvm_counts_out_of_range_replicates():
    # near-independent clayton: many replicates refit a tau <= 0.  The
    # one-at-a-time reference counts the replicates whose fit_copula raises
    u = sample_copula(GeneratorSpec("clayton", 0.05), 2, 30, seed=9).uniforms
    ps = pseudo_observations(u)
    seeds = np.random.SeedSequence(9).generate_state(100, dtype=np.uint64)
    expected = sum(out for _, out in _cvm_by_definition("clayton", ps, seeds, "tau")[2])
    res = cvm_gof("clayton", ps, boot_n=100, seed=9)
    assert res.out_of_range == expected > 0
    assert res.to_json()["out_of_range"] == res.out_of_range
    assert res.p_value.hex() == "0x1.5c28f5c28f5c3p-2"  # as before the count existed


def test_cvm_propagates_replicate_errors_other_than_tau_range(monkeypatch):
    # only a tau outside the family's range counts as an extreme misfit
    real = fitlab._pseudo_likelihood_theta
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) > 1:  # the first call fits the data, the others replicates
            raise ValidationError("replicate refit failed")
        return real(*args)

    monkeypatch.setattr(fitlab, "_pseudo_likelihood_theta", failing)
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 30, seed=2).uniforms
    with pytest.raises(ValidationError, match="replicate refit failed"):
        cvm_gof("clayton", pseudo_observations(u), boot_n=100, seed=2, method="pseudo_likelihood")


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_cvm_refuses_a_seed_outside_64_bits(seed):
    u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 30, seed=2).uniforms
    with pytest.raises(ValidationError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        cvm_gof("clayton", pseudo_observations(u), boot_n=100, seed=seed)


# --------------------------------------------------------------- subsets
def _subset_system(thetas, gen):
    m = SemiParamModel("scale", BaselineSpec("exp_weibull", (0.9, 0.9)))
    return SystemSpec(len(thetas), m, tuple(thetas), gen)


def test_identical_subsets_tie():
    gen = GeneratorSpec("gumbel_barnett", 0.2)
    systems = {"a": _subset_system((0.3, 0.6, 0.9), gen),
               "b": _subset_system((0.3, 0.6, 0.9), gen)}
    rec = recommend_subset(systems)
    assert set(rec.maximal) == {"a", "b"}
    assert rec.dominates == ()
    assert ("a", "b") in rec.ties or ("b", "a") in rec.ties


def test_nested_chain_recovers_total_order():
    gen = GeneratorSpec("gumbel_barnett", 0.2)
    # componentwise-ordered scale vectors: u dominates v dominates w
    systems = {
        "u": _subset_system((0.2, 0.4, 0.6), gen),
        "v": _subset_system((0.3, 0.5, 0.7), gen),
        "w": _subset_system((0.4, 0.6, 0.8), gen),
    }
    rec = recommend_subset(systems)
    assert set(rec.dominates) == {("u", "v"), ("u", "w"), ("v", "w")}
    assert rec.maximal == ("u",)
    assert rec.incomparable == ()


def test_related_pair_that_fails_hypotheses_is_listed_unverified():
    gen = GeneratorSpec("clayton", 2.0)  # log-convex; theorem 1 needs log-concave
    systems = {"u": _subset_system((0.2, 0.4, 0.6), gen),
               "v": _subset_system((0.3, 0.5, 0.7), gen)}
    rec = recommend_subset(systems)
    assert rec.certificates == {} and rec.maximal == ("u", "v")
    assert rec.unverified == {("u", "v"): ("generator_log_concave",)}
    assert rec.to_json()["unverified"] == {"u>v": ["generator_log_concave"]}


def test_incomparable_pair_reported():
    gen = GeneratorSpec("gumbel_barnett", 0.2)
    systems = {"a": _subset_system((0.2, 0.9), gen),
               "b": _subset_system((0.35, 0.4), gen)}
    # prefix products: a=(0.2, 0.18), b=(0.35, 0.14): neither direction
    rec = recommend_subset(systems)
    assert rec.incomparable == (("a", "b"),)
    assert set(rec.maximal) == {"a", "b"}


def test_pair_whose_hypotheses_hold_but_curves_reverse_is_inconsistent():
    # the valid-model counterexample of tests/test_ordering.py: theorem 1's
    # hypotheses hold for x over y, yet y dominates x, so the pair gets no
    # certificate; y is not p-larger than x, so that direction is listed nowhere
    m = SemiParamModel("scale", BaselineSpec("gen_gamma", (0.6756542170040485, 0.6771824743878045)))
    gen = GeneratorSpec("amh", -0.059197712937787306)
    systems = {"x": SystemSpec(4, m, (2.387575887836777, 0.11823813879259237,
                                      0.19158892533540825, 1.0266837460946139), gen),
               "y": SystemSpec(4, m, (0.7228169735573664, 0.198873648489512,
                                      0.2790330900151772, 1.9284721783568337), gen)}
    rec = recommend_subset(systems)
    assert rec.inconsistent == (("x", "y"),)
    assert rec.certificates == {} and rec.unverified == {}
    assert rec.dominates == () and rec.ties == () and rec.incomparable == ()
    assert rec.maximal == ("x", "y")


def test_subset_structural_validation():
    gen = GeneratorSpec("gumbel_barnett", 0.2)
    good = _subset_system((0.3, 0.6), gen)
    other = SystemSpec(2, SemiParamModel("scale", BaselineSpec("exponential", (1.0,))),
                       (0.3, 0.6), gen)
    with pytest.raises(ValidationError):
        recommend_subset({"a": good, "b": other})
    with pytest.raises(ValidationError):
        recommend_subset({"a": good})


def test_printed_wire_groups_are_incomparable():
    # the reference analysis claims group A p-larger group B; the printed
    # numbers refute it in every preorder (first ascending prefix of A
    # exceeds B's, later prefixes order the other way)
    from failsafekit import Preorder, classify
    manifest = load_reference_manifest()
    a = manifest["wire_groups"]["A"]["theta"]
    b = manifest["wire_groups"]["B"]["theta"]
    rep = classify(a, b)
    for kind in Preorder:
        assert rep.forward[kind] is False, kind
        assert rep.reverse[kind] is False, kind


def test_fixed_shape_weibull_scale_closed_form():
    rng = np.random.default_rng(10)
    data = 3.0 * rng.weibull(4.0, size=4000)
    est = fixed_shape_weibull_scale(data, 4.0)
    assert est == pytest.approx((np.mean(data ** 4.0)) ** 0.25, rel=1e-12)
    assert abs(est - 3.0) < 0.05


# ---------------------------------------------------------------- data IO
def test_load_long_format(tmp_path):
    path = tmp_path / "long.csv"
    rows = ["cable,wire,strength"]
    for cable in range(1, 7):
        for wire in ("w1", "w2"):
            rows.append(f"c{cable},{wire},{300 + cable}")
    path.write_text("\n".join(rows))
    ds = load_dataset_csv(str(path))
    assert set(ds.labels) == {"w1", "w2"}
    assert ds.observations["w1"].size == 6


def test_load_wide_format(tmp_path):
    path = tmp_path / "wide.csv"
    rng = np.random.default_rng(1)
    mat = rng.uniform(300.0, 350.0, size=(9, 3))
    lines = ["w1,w2,w3"] + [",".join(f"{v}" for v in row) for row in mat]
    path.write_text("\n".join(lines))
    ds = load_dataset_csv(str(path))
    assert ds.labels == ("w1", "w2", "w3")
    assert_allclose(ds.matrix(), mat)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("cable,wire,strength\nc1,w1,not-a-number\n")
    with pytest.raises(ValidationError):
        load_dataset_csv(str(bad))
    with pytest.raises(ValidationError):
        load_dataset_csv(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("data, shape, fragment", [
    ([300.0, np.nan, 310.0], 4.0, "data entry must be positive and finite, got nan"),
    ([300.0, np.inf, 310.0], 4.0, "data entry must be positive and finite, got inf"),
    ([300.0, 310.0], np.nan, "shape must be positive and finite"),
    ([300.0, 310.0], np.inf, "shape must be positive and finite"),
], ids=["nan-data", "inf-data", "nan-shape", "inf-shape"])
def test_fixed_shape_weibull_scale_refuses_non_finite_input(data, shape, fragment):
    # NaN and inf pass a positivity check, and the closed form turns them into
    # a NaN or a meaningless scale
    with pytest.raises(ValidationError, match=fragment):
        fixed_shape_weibull_scale(data, shape)


@pytest.mark.parametrize("data, shape, fragment", [
    ([300.0, 310.0], "2", "shape must be a number, got '2'"),
    ([300.0, 310.0], None, "shape must be a number, got None"),
    (["300", "x"], 4.0, "data entry must be a number, got '300'"),
    ([300.0, [310.0, 320.0]], 4.0, "data entry must be a number, got [310.0, 320.0]"),
], ids=["text-shape", "none-shape", "text-data", "ragged-data"])
def test_fixed_shape_weibull_scale_refuses_non_numeric_input(data, shape, fragment):
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        fixed_shape_weibull_scale(data, shape)


def test_dataset_minimum_observations():
    with pytest.raises(ValidationError):
        LifetimeDataset({"w1": [1.0, 2.0, 3.0]})


_WIDE_ROWS = "".join(f"{300 + i},{310 + i}\n" for i in range(5))


@pytest.mark.parametrize("text, fragment", [
    ("w1,w2\n", "no data rows"),
    ("w1,w2\n" + _WIDE_ROWS + "320\n", "wide-format row length mismatch"),
    ("w1,w2\n" + _WIDE_ROWS + "320,n/a\n", "non-numeric cell 'n/a'"),
    ("w1,w2\n" + _WIDE_ROWS + "0.0,320\n", "'w1' entry must be positive and finite, got 0.0"),
    ("cable,wire,strength\n" + "".join(f"c{i},w1,{300 + i}\nc{i},w2,{310 + i}\n"
                                        for i in range(5)) + "c5,w2,320\n",
     "components have unequal lengths"),
    ("w1,w1,w2,w2\n" + _WIDE_ROWS.replace("\n", ",1,2\n"), "header repeats column 'w1'"),
    ("w1,w1,w2\n" + _WIDE_ROWS.replace("\n", ",1\n"), "header repeats column 'w1'"),
    ("cable,wire,strength,wire\n" + "".join(f"c{i},w1,{300 + i},w2\n" for i in range(5)),
     "header repeats column 'wire'"),
], ids=["header-only", "short-wide-row", "non-numeric-cell",
        "nonpositive", "unequal-lengths", "repeated-wide-pairs", "repeated-wide",
        "repeated-long"])
def test_load_dataset_rejects(tmp_path, text, fragment):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        load_dataset_csv(str(path)).matrix()


@pytest.mark.parametrize("text", [
    "w1,w2\n\n" + _WIDE_ROWS.replace("\n", "\n,\n", 2) + "\n",
    "cable,wire,strength\n\n" + "".join(f"c{i},w1,{300 + i}\n,,\nc{i},w2,{310 + i}\n"
                                            for i in range(5)),
], ids=["wide", "long"])
def test_load_dataset_skips_blank_rows(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    ds = load_dataset_csv(str(path))
    assert ds.labels == ("w1", "w2")
    assert_allclose(ds.matrix(), [[300 + i, 310 + i] for i in range(5)])


def test_manifest_loads_and_has_tolerances():
    manifest = load_reference_manifest()
    assert manifest["marginal_aic_order"][0] == "weibull"
    assert manifest["preferred_copula"] == "clayton"
    assert manifest["tolerances"] == {"theta": 0.1, "p_value": 0.1}


@pytest.mark.parametrize("call, message", [
    (lambda: fit_copula("clayton", np.full((5, 1), 0.5)),
     "pseudo-observations must be count x d with d >= 2"),
    (lambda: fit_copula("clayton", [[0.2, 0.2], [0.4, 0.6], [0.6, 0.4], [0.8, 0.8]], "moments"),
     "method must be 'tau' or 'pseudo_likelihood'"),
    (lambda: tau_to_theta("amh", 0.2), "copula family must be one of ('clayton', 'gumbel', 'frank')"),
    (lambda: rank_models([]), "nothing to rank"),
    (lambda: pseudo_observations([[0.3, 0.6]]), "need a count x d matrix with count >= 2"),
    (lambda: LifetimeDataset({}), "dataset has no components"),
    # numpy's AxisError once escaped the first, and text arrays were compared
    (lambda: empirical_copula("ab"), "pseudo-observation must be a number, got 'ab'"),
    (lambda: empirical_copula(np.array([["a", "b"], ["c", "d"]])),
     "pseudo-observation must be a number, got 'a'"),
    (lambda: empirical_copula([0.2, 0.4]),
     "pseudo-observations must be count x d or B x count x d with d >= 1"),
    (lambda: empirical_copula(np.ones((1, 2, 3, 4))),
     "pseudo-observations must be count x d or B x count x d with d >= 1"),
    # a NaN compared as never <=, and read [0, 1/3, 1/3]
    (lambda: empirical_copula([[0.2, np.nan], [0.5, 0.5], [0.7, 0.1]]),
     "pseudo-observation must not be NaN, got nan"),
], ids=["fit-one-column", "fit-unknown-method", "tau-unknown-family", "rank-nothing",
        "pseudo-one-row", "dataset-empty", "copula-text", "copula-text-matrix",
        "copula-vector", "copula-4-d", "copula-nan"])
def test_fitting_refusals_keep_their_messages(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
