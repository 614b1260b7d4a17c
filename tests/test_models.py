import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    SemiParamModel,
    SystemSpec,
    ValidationError,
    check_dfr,
    check_dpfr,
    check_theorem1_condition2,
    check_theorem2_condition2,
    default_grid,
    hazard,
    quantile,
    sf,
    sp_quantile,
    sp_survival,
)
from failsafekit.models import (
    log_pdf,
    log_sf,
    pdf,
    sp_inverse_log_survival,
    sp_log_survival,
)

ALL_BASELINES = [
    BaselineSpec("exponential", (1.3,)),
    BaselineSpec("weibull", (2.0, 0.8)),
    BaselineSpec("weibull", (1.5, 2.0)),
    BaselineSpec("exp_weibull", (0.9, 0.9)),
    BaselineSpec("burr", (0.8, 1.0)),
    BaselineSpec("gen_pareto", (1.0,)),
    BaselineSpec("gen_gamma", (0.5, 0.5)),
    BaselineSpec("gamma", (2.0, 1.5)),
]

_ids = lambda b: f"{b.family}{b.params}"


# ------------------------------------------------------------ baselines
@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_sf_boundaries_and_monotone(b):
    assert sf(b, 0.0) == pytest.approx(1.0)
    xs = np.geomspace(1e-6, quantile(b, 0.9999), 400)
    vals = sf(b, xs)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_pdf_integrates_to_one(b):
    total, err = quad(lambda t: pdf(b, t), 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=max(1e-6, 10 * err))


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_pdf_nonnegative(b):
    xs = np.geomspace(1e-6, quantile(b, 0.999), 200)
    assert np.all(pdf(b, xs) >= 0.0)


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_quantile_inverts_cdf(b):
    ps = np.linspace(0.001, 0.999, 50)
    xs = quantile(b, ps)
    assert_allclose(1.0 - sf(b, xs), ps, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_hazard_matches_log_sf_slope(b):
    xs = np.geomspace(quantile(b, 0.05), quantile(b, 0.95), 60)
    h = hazard(b, xs)
    step = 1e-6 * xs
    from failsafekit.models import log_sf
    fd = -(log_sf(b, xs + step) - log_sf(b, xs - step)) / (2.0 * step)
    assert_allclose(h, fd, rtol=1e-5)


def test_bad_baselines_rejected():
    with pytest.raises(ValidationError):
        BaselineSpec("weibull", (1.0,))
    with pytest.raises(ValidationError):
        BaselineSpec("weibull", (-1.0, 2.0))
    with pytest.raises(ValidationError):
        BaselineSpec("nope", (1.0,))


# ------------------------------------------------------------- sp model
def test_scale_exponential_closed_form():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    assert sp_survival(m, 1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_survival_at_origin():
    base = BaselineSpec("weibull", (2.0, 0.8))
    for m, theta in [
        (SemiParamModel("scale", base), 1.7),
        (SemiParamModel("phr", base), 0.4),
        (SemiParamModel("location", base), 0.5),
        (SemiParamModel("mphrs", base, alpha=0.5, lam=2.0), 1.2),
        (SemiParamModel("ls", base, lam=1.0), 2.0),
    ]:
        assert sp_survival(m, 0.0, theta) == pytest.approx(1.0)
    # a negative location shifts mass left of the origin: survival(0) < 1
    loc_neg = sp_survival(SemiParamModel("location", base), 0.0, -0.5)
    assert loc_neg == pytest.approx(sf(base, 0.5), rel=1e-12)
    # location/ls keep survival 1 on the padded support
    ls = SemiParamModel("ls", base, lam=1.0)
    assert sp_survival(ls, 0.99, 3.0) == 1.0
    loc = SemiParamModel("location", base)
    assert sp_survival(loc, 0.49, 0.5) == 1.0


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_sp_survival_in_unit_interval_and_monotone(b):
    rng = np.random.default_rng(8)
    kinds = [
        ("scale", {}, 1.3), ("phr", {}, 0.7), ("location", {}, 0.3),
        ("mphrs", {"alpha": 0.6, "lam": 1.5}, 0.9), ("ls", {"lam": 0.5}, 1.1),
    ]
    for kind, fixed, theta in kinds:
        m = SemiParamModel(kind, b, **fixed)
        xs = np.linspace(0.0, quantile(b, 0.999) * 2.0 + 2.0, 300)
        vals = sp_survival(m, xs, theta * rng.uniform(0.8, 1.2))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 1e-12)


def test_burr_log_forms_finite_where_power_overflows():
    # 1000**300 overflows; log(1 + t^c) is then c log t to double precision
    b = BaselineSpec("burr", (300.0, 2.0))
    t = np.array([0.5, 1.0, 2.0, 1000.0])
    log_t = np.log(t)
    assert_allclose(np.exp(log_sf(b, t))[:3], (1.0 + t[:3] ** 300.0) ** -2.0, rtol=1e-13)
    assert log_sf(b, t)[3] == -2.0 * 300.0 * log_t[3]
    assert log_pdf(b, t)[3] == (np.log(600.0) + 299.0 * log_t[3] - 3.0 * 300.0 * log_t[3])


def test_mphrs_reductions():
    b = BaselineSpec("burr", (0.8, 1.0))
    rng = np.random.default_rng(12)
    xs = np.concatenate([[0.0], rng.uniform(0.01, 8.0, 200)])
    theta = 0.9
    lam, al = 1.7, 0.35
    # alpha=1, lam=1: the scale model
    m = SemiParamModel("mphrs", b, alpha=1.0, lam=1.0)
    assert_allclose(sp_survival(m, xs, theta),
                    sp_survival(SemiParamModel("scale", b), xs, theta), atol=1e-12)
    # alpha=1: scaled-frailty composite F(x theta)^lam
    m = SemiParamModel("mphrs", b, alpha=1.0, lam=lam)
    assert_allclose(sp_survival(m, xs, theta), sf(b, xs * theta) ** lam, atol=1e-12)
    # alpha=1 at theta=1: plain frailty model with parameter lam
    assert_allclose(sp_survival(m, xs, 1.0),
                    sp_survival(SemiParamModel("phr", b), xs, lam), atol=1e-12)
    # theta=1: frailty-odds form alpha F^lam / (1 - (1-alpha) F^lam)
    m = SemiParamModel("mphrs", b, alpha=al, lam=lam)
    w = sf(b, xs) ** lam
    assert_allclose(sp_survival(m, xs, 1.0), al * w / (1 - (1 - al) * w), atol=1e-12)
    # theta=1, lam=1: proportional-odds form
    m = SemiParamModel("mphrs", b, alpha=al, lam=1.0)
    w = sf(b, xs)
    assert_allclose(sp_survival(m, xs, 1.0), al * w / (1 - (1 - al) * w), atol=1e-12)


@pytest.mark.parametrize("kind,fixed,theta", [
    ("scale", {}, 0.8), ("phr", {}, 1.4), ("location", {}, 0.6),
    ("mphrs", {"alpha": 0.5, "lam": 2.0}, 1.1), ("ls", {"lam": 1.0}, 0.7),
])
def test_sp_quantile_roundtrip(kind, fixed, theta):
    m = SemiParamModel(kind, BaselineSpec("weibull", (2.0, 0.8)), **fixed)
    ps = np.linspace(0.01, 0.99, 40)
    xs = sp_quantile(m, ps, theta)
    assert_allclose(1.0 - sp_survival(m, xs, theta), ps, rtol=1e-9, atol=1e-10)


_SP_KINDS = [
    ("scale", {}, 0.8), ("phr", {}, 1.4), ("phr", {}, 0.1), ("location", {}, 0.6),
    ("mphrs", {"alpha": 0.5, "lam": 2.0}, 1.1), ("ls", {"lam": 1.0}, 0.7),
]


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_inverse_log_survival_over_sampler_range(b):
    # every uniform the copula sampler can emit maps back to its survival
    u = np.geomspace(1e-15, 1.0 - 1e-16, 300)
    for kind, fixed, theta in _SP_KINDS:
        m = SemiParamModel(kind, b, **fixed)
        xs = sp_inverse_log_survival(m, np.log(u), theta)
        assert np.all(np.isfinite(xs)), kind
        assert np.all(np.abs(sp_survival(m, xs, theta) - u) <= 1e-10 * u), kind


def test_phr_quantile_with_small_theta_stays_finite():
    # 1 - (1-p)^(1/theta) rounds to 1 in cdf space; log space does not
    m = SemiParamModel("phr", BaselineSpec("exponential", (1.0,)))
    x = sp_quantile(m, 0.999, 0.1)
    assert math.isfinite(x)
    assert x == pytest.approx(-math.log(0.001) / 0.1, rel=1e-12)
    sysd = SystemSpec(3, m, (0.1, 1.0, 2.0), GeneratorSpec("clayton", 1.0))
    xs = default_grid(sysd, 200)
    assert np.all(np.isfinite(xs)) and xs[-1] == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("prob", [0.0, 1.0, -0.2, math.nan, [0.3, math.nan, 0.7]],
                         ids=["zero", "one", "negative", "nan", "nan_in_array"])
def test_quantile_rejects_probabilities_outside_unit_interval(prob):
    b = BaselineSpec("weibull", (1.0, 2.0))
    with pytest.raises(ValidationError, match=r"must lie in \(0, 1\)"):
        quantile(b, prob)
    with pytest.raises(ValidationError, match=r"must lie in \(0, 1\)"):
        sp_quantile(SemiParamModel("scale", b), prob, 1.0)


def test_theta_domain_enforced():
    b = BaselineSpec("exponential", (1.0,))
    with pytest.raises(ValidationError):
        sp_survival(SemiParamModel("scale", b), 1.0, -0.5)
    with pytest.raises(ValidationError):
        sp_survival(SemiParamModel("phr", b), 1.0, 0.0)
    # location admits any real theta
    assert sp_survival(SemiParamModel("location", b), 1.0, -3.0) == pytest.approx(
        math.exp(-4.0))


def test_fixed_parameter_validation():
    b = BaselineSpec("exponential", (1.0,))
    with pytest.raises(ValidationError):
        SemiParamModel("mphrs", b, alpha=0.5)
    with pytest.raises(ValidationError):
        SemiParamModel("mphrs", b, alpha=-0.1, lam=1.0)
    with pytest.raises(ValidationError):
        SemiParamModel("ls", b)
    with pytest.raises(ValidationError):
        SemiParamModel("scale", b, lam=1.0)


# ------------------------------------------------------------ DFR/DPFR
def test_dfr_verdicts():
    assert check_dfr(BaselineSpec("gen_pareto", (0.5,))).holds
    assert check_dfr(BaselineSpec("exponential", (1.0,))).holds  # constant hazard
    v = check_dfr(BaselineSpec("weibull", (1.0, 2.0)))
    assert not v.holds and v.worst_violation > 1e-3


def test_dpfr_verdicts():
    # x*h is x/(1+x) for gen_pareto(1): increasing, so the check fails
    v = check_dpfr(BaselineSpec("gen_pareto", (1.0,)))
    assert not v.holds
    # exponential: x*h = rate*x, increasing
    assert not check_dpfr(BaselineSpec("exponential", (1.0,))).holds
    # burr(0.8, 1): x*h = c*k*x^c/(1+x^c), increasing by the closed form
    b = BaselineSpec("burr", (0.8, 1.0))
    xs = np.geomspace(0.01, 50.0, 300)
    closed = 0.8 * xs ** 0.8 / (1.0 + xs ** 0.8)
    assert np.all(np.diff(closed) > 0.0)  # symbolic oracle: strictly increasing
    assert_allclose(xs * hazard(b, xs), closed, rtol=1e-12)
    assert not check_dpfr(b).holds


def test_dpfr_grid_validation():
    with pytest.raises(ValidationError):
        check_dpfr(BaselineSpec("exponential", (1.0,)), x_grid=np.linspace(1, 2, 10))
    # burr(0.05, 0.05): the 0.999 quantile overflows to inf, so there is
    # no default grid; on the NaN grid geomspace made of it, x*hazard is
    # finite nowhere
    heavy = BaselineSpec("burr", (0.05, 0.05))
    with pytest.raises(ValidationError, match="burr"):
        check_dpfr(heavy)
    with pytest.raises(ValidationError, match="not finite at any grid point"):
        check_dpfr(heavy, x_grid=np.full(100, np.nan))
    # burr(0.01, 1e10): both bulk quantiles underflow to 0
    with pytest.raises(ValidationError, match="burr"):
        check_dfr(BaselineSpec("burr", (0.01, 1e10)))


# ----------------------------------------------- theorem shape checks
def test_condition1_scale_over_dfr_baselines():
    a_grid = np.linspace(np.log(0.1), np.log(1.0), 60)
    for b in [BaselineSpec("exp_weibull", (0.9, 0.9)), BaselineSpec("gen_pareto", (1.0,))]:
        m = SemiParamModel("scale", b)
        v = check_theorem1_condition2(m, a_grid=a_grid)
        assert v.holds, (b, v)


def test_condition1_fails_for_increasing_hazard():
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 2.0)))
    v = check_theorem1_condition2(m)
    assert not v.holds and v.worst_violation > 1e-3


def test_condition1_fails_for_location_kind():
    # location survival increases with theta, breaking the decreasing clause
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    v = check_theorem1_condition2(m, a_grid=np.linspace(np.log(0.5), np.log(3.0), 50))
    assert not v.holds


def test_dfr_implies_condition1_over_catalog():
    rng = np.random.default_rng(21)
    catalog = []
    for _ in range(3):
        catalog.append(BaselineSpec("burr", (rng.uniform(0.3, 1.0), rng.uniform(0.3, 3.0))))
        catalog.append(BaselineSpec("exp_weibull", (rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))))
        catalog.append(BaselineSpec("gen_pareto", (rng.uniform(0.1, 3.0),)))
        catalog.append(BaselineSpec("gen_gamma", (rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))))
    for b in catalog:
        assert check_dfr(b).holds, b
        v = check_theorem1_condition2(SemiParamModel("scale", b))
        assert v.holds, (b, v)


def test_condition2_location_over_gp_holds():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    v = check_theorem2_condition2(m, theta_grid=np.linspace(0.5, 4.0, 80))
    assert v.holds, v


def test_condition2_fails_for_scale_and_phr():
    # survival decreases in theta for both kinds
    for kind in ("scale", "phr"):
        m = SemiParamModel(kind, BaselineSpec("exponential", (1.0,)))
        v = check_theorem2_condition2(m)
        assert not v.holds, (kind, v)


def test_sp_log_survival_matches_log_of_survival():
    m = SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.4, lam=1.3)
    xs = np.geomspace(0.01, 10.0, 50)
    assert_allclose(sp_log_survival(m, xs, 0.9),
                    np.log(sp_survival(m, xs, 0.9)), rtol=1e-12)


BROADCAST_MODELS = [
    SemiParamModel("scale", BaselineSpec("weibull", (1.3, 0.8))),
    SemiParamModel("phr", BaselineSpec("gen_gamma", (0.5, 0.5))),
    SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,))),
    SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.4, lam=1.3),
    SemiParamModel("ls", BaselineSpec("burr", (2.0, 1.5)), lam=1.5),
]


@pytest.mark.parametrize("m", BROADCAST_MODELS, ids=lambda m: m.kind)
def test_theta_column_matches_scalar_calls_bitwise(m):
    thetas = np.array([0.3, 1.0, 2.5])
    if m.kind == "location":
        thetas = np.array([-0.7, -0.1, 0.3, 2.5])
    xs = np.geomspace(1e-3, 60.0, 40)
    ls = -np.geomspace(1e-12, 700.0, 40)
    cases = ((sp_survival, xs), (sp_log_survival, xs), (sp_inverse_log_survival, ls))
    for f, arg in cases:
        got = f(m, arg, thetas[:, None])
        want = np.stack([f(m, arg, float(t)) for t in thetas])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.__name__


@pytest.mark.parametrize("m", BROADCAST_MODELS, ids=lambda m: m.kind)
def test_theta_array_outside_domain_raises(m):
    bad = np.array([0.5, np.nan if m.kind == "location" else -1.0, 1.0])
    for f in (sp_survival, sp_log_survival, sp_inverse_log_survival):
        with pytest.raises(ValidationError, match="outside the"):
            f(m, -np.geomspace(0.1, 2.0, 5), bad[:, None])


def test_theorem2_probe_names_offending_thetas():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    with pytest.raises(ValidationError, match="at least 3 points"):
        check_theorem2_condition2(m, theta_grid=[-2.0, 1.0])
    with pytest.raises(ValidationError, match=r"\[-2\.0, -0\.5\]"):
        check_theorem2_condition2(m, theta_grid=[-2.0, -0.5, 1.0, 2.0])


#: (model, x grid or None for the default) -> (holds, worst_violation) of the
#: theorem-1 and theorem-2 condition-2 probes on their default parameter grids.
PINNED_PROBES = {
    # the active window starts inside the grid (survival 1 below theta)
    "location_gen_pareto": (
        SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,))), None,
        (False, 0.04219787435787142), (True, 0.0)),
    # survival is identically 1 below lambda
    "ls_weibull": (
        SemiParamModel("ls", BaselineSpec("weibull", (1.0, 0.8)), lam=1.5), None,
        (True, 0.0), (False, 0.04009255415668235)),
    "mphrs_weibull": (
        SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.4, lam=1.3),
        None,
        (True, -3.844475933128456e-15), (False, 0.03134263913015869)),
    # far rows underflow to log F = -inf
    "phr_gen_gamma": (
        SemiParamModel("phr", BaselineSpec("gen_gamma", (0.5, 0.5))),
        np.geomspace(0.01, 3000.0, 200),
        (True, -7.385600837123264e-116), (False, 0.05007064225784778)),
    # survival is 1 on the whole grid: no window reaches 3 points
    "location_no_window": (
        SemiParamModel("location", BaselineSpec("exponential", (1.0,))),
        np.linspace(0.01, 0.1, 50),
        (True, 0.0), (True, 0.0)),
    "scale_exponential": (
        SemiParamModel("scale", BaselineSpec("exponential", (1.0,))), None,
        (True, 3.632458419053067e-15), (False, 0.05006732745118465)),
}


@pytest.mark.parametrize("name", sorted(PINNED_PROBES))
def test_condition2_verdicts_pinned(name):
    m, xs, want1, want2 = PINNED_PROBES[name]
    for probe, (holds, worst) in ((check_theorem1_condition2, want1),
                                  (check_theorem2_condition2, want2)):
        v = probe(m, xs)
        assert v.holds is holds, (probe.__name__, v)
        assert v.worst_violation == pytest.approx(worst, rel=1e-13), (probe.__name__, v)


def test_json_roundtrip():
    m = SemiParamModel("mphrs", BaselineSpec("gen_gamma", (0.5, 0.5)), alpha=0.5, lam=1.0)
    assert SemiParamModel.from_json(m.to_json()) == m
    m2 = SemiParamModel("scale", BaselineSpec("exponential", (2.0,)))
    assert SemiParamModel.from_json(m2.to_json()) == m2
