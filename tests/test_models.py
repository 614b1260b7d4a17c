import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    GridPolicy,
    HypothesisCheck,
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
    _FAMILIES,
    _cf_depth,
    _gamma_plan,
    _geomspace,
    _horner,
    _legendre_fraction,
    _log_z,
    BASELINE_FAMILIES,
    BULK_Q_HI,
    BULK_Q_LO,
    CURVE_FLOOR,
    GAMMA_SHAPE_MAX,
    PROBE_POINTS,
    bulk_grid,
    default_x_grid,
    inverse_log_sf,
    linear_grid,
    log_pdf,
    log_sf,
    pdf,
    sp_inverse_log_survival,
    sp_log_survival,
    survival_shape,
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


# ------------------------------------------------ incomplete gamma kernel
#: (a, x, log Q(a, x)) from 40-digit mpmath: log1p(-gammainc(a, 0, x)) below
#: x = a + 1, log(gammainc(a, x, inf)) above, both regularized.  Per shape:
#: deep lower tail, half the shape, both sides of the series/fraction switch
#: at a + 1, twice it, and x where log Q is about -800, past exp's underflow.
_LOG_Q_REF = [
    (0.001, 1e-300, -0.6961039435002198), (0.001, 1e-20, -3.113237264692663),
    (0.001, 0.0005, -4.961789330220424), (0.001, 1.000998999, -8.425338970356586),
    (0.001, 1.001, -8.425340647618958), (0.001, 2.002, -9.926927870926864),
    (0.001, 786.430716109, -799.9999999999864),
    (0.3, 1e-300, -1.1142425085473105e-90), (0.3, 1e-20, -1.1142431293159474e-06),
    (0.3, 0.15, -0.9409424268439487), (0.3, 1.2999987, -2.8969216421408963),
    (0.3, 1.3, -2.896923427884333), (0.3, 2.6, -4.557434910127687),
    (0.3, 794.229161715, -799.9999999998539),
    (0.84, 1e-300, -1.0608814809323597e-252), (0.84, 1e-20, -1.6813838371377277e-17),
    (0.84, 0.42, -0.5548448833324756), (0.84, 1.83999816, -2.1132990848856363),
    (0.84, 1.84, -2.1133010396133436), (0.84, 3.68, -4.038691644595598),
    (0.84, 798.815245985, -800.000000000361),
    (1.0, 1e-300, -1e-300), (1.0, 1e-20, -1e-20), (1.0, 0.5, -0.5),
    (1.0, 1.999998, -1.999998), (1.0, 2.0, -2.0), (1.0, 4.0, -4.0), (1.0, 800.0, -800.0),
    (3.3, 1e-300, -0.0), (3.3, 1e-20, -1.1292616890111595e-67),
    (3.3, 1.65, -0.19203117652131438), (3.3, 4.2999957, -1.3978334381601285),
    (3.3, 4.3, -1.3978359579277788), (3.3, 8.6, -4.368642857130264),
    (3.3, 814.431453608, -799.9999999995703),
    (30.0, 1e-20, -0.0), (30.0, 15.0, -0.00041853724282134606),
    (30.0, 30.999969, -0.9047221002096681), (30.0, 31.0, -0.9047273980694089),
    (30.0, 62.0, -12.963346440679901), (30.0, 926.898180113, -800.0000000000613),
    (1000.0, 500.0, -3.2982727970671e-86), (1000.0, 1000.998999, -0.7273222412372405),
    (1000.0, 1001.0, -0.727348334897787), (1000.0, 2002.0, -312.230202744724),
    (1000.0, 2838.18075215, -799.9999999986892),
    (1e4, 5000.0, -0.0), (1e4, 10000.989999, -0.7037613925765075),
    (1e4, 10001.0, -0.7038420310627796), (1e4, 14535.0331409, -799.9999999952381),
    (1e4, 20002.0, -3075.052761289873),
]


def test_gamma_log_sf_matches_40_digit_values():
    a, x, ref = (np.array(c) for c in zip(*_LOG_Q_REF))
    got = np.array([log_sf(BaselineSpec("gamma", (ai, 1.0)), xi) for ai, xi in zip(a, x)])
    assert np.all(np.isfinite(got))
    # the rounding of a log x - x and, for a = 0.001, the cancellation in
    # 1 - P where Q is near a set the error; both stay below 2e-13 here
    assert_allclose(got, ref, rtol=2e-13, atol=0.0)


def test_gamma_far_tail_stays_in_log_space():
    # log Q(2, 900) is -893.2, far below exp's underflow at -745
    assert log_sf(BaselineSpec("gamma", (2.0, 1.5)), 600.0) == pytest.approx(
        -893.1964947423917, rel=1e-15)
    # log S = 100 log(1e-5) = -1151 on the baseline; 40-digit root 772.23210646125
    m = SemiParamModel("phr", BaselineSpec("gamma", (2.0, 1.5)))
    assert sp_quantile(m, 1.0 - 1e-5, 0.01) == pytest.approx(772.2321064612537, rel=1e-11)


@pytest.mark.parametrize("b", [BaselineSpec("exponential", (1.3,)),
                               BaselineSpec("weibull", (2.0, 0.7)),
                               BaselineSpec("exp_weibull", (0.9, 0.9)),
                               BaselineSpec("burr", (1.7, 0.6)),
                               BaselineSpec("gen_pareto", (1.0,)),
                               BaselineSpec("gamma", (0.8, 1.5)),
                               BaselineSpec("gen_gamma", (0.5, 0.7)),
                               BaselineSpec("gen_gamma", (0.05, 3.0))], ids=_ids)
def test_closed_form_values_do_not_depend_on_the_batch(b):
    # one array against one call per element, forward and inverse, to the
    # byte: a scalar is evaluated as a 1-element array, because numpy's `**`
    # on a 0-d value (libm pow) can round differently from its array loop;
    # for gamma the array spans both sides of a + 1 and exceeds 16 elements,
    # where the kernel leaves per-element Python floats for numpy
    xs = quantile(b, np.geomspace(1e-12, 0.999999, 40))
    ls = -np.geomspace(1e-300, 1e3, 40)
    for fn, arg in ((log_sf, xs), (log_pdf, xs), (inverse_log_sf, ls)):
        batched = fn(b, arg)
        single = np.array([fn(b, v) for v in arg])
        assert batched.tobytes() == single.tobytes(), fn.__name__
        assert fn(b, arg[::7]).tobytes() == batched[::7].tobytes(), fn.__name__


def test_gamma_shape_above_the_term_budget_is_refused():
    ok = BaselineSpec("gamma", (GAMMA_SHAPE_MAX, 1.0))
    assert np.isfinite(log_sf(ok, 1e4)) and np.isfinite(quantile(ok, 0.5))
    too_big = [BaselineSpec("gamma", (1.0001e4, 1.0)), BaselineSpec("gen_gamma", (1e-4, 2.0))]
    for b in too_big:
        for fn, arg in ((log_sf, 1.0), (quantile, 0.5)):
            with pytest.raises(ValidationError, match=r"shape (10001|20000) is outside \(0, 10000\]"):
                fn(b, arg)
    # the density needs no term budget: fits may reach any shape
    assert np.isfinite(log_pdf(BaselineSpec("gamma", (1e10, 1e7)), 1000.0))


def test_incomplete_gamma_fraction_refuses_a_shape_it_cannot_settle():
    # _gamma_plan refuses every shape above GAMMA_SHAPE_MAX before sizing the
    # fraction; at 100 times that the fraction does not settle in 300 levels
    with pytest.raises(ValidationError, match=r"did not settle at shape 1e\+06$"):
        _cf_depth(100 * GAMMA_SHAPE_MAX, 100 * GAMMA_SHAPE_MAX + 1.0)


def test_exp_weibull_lower_tail_keeps_its_digits():
    # log(1 - exp(-t^alpha)) as log1p(-exp(-u)) read S = 0.99899527 here
    b = BaselineSpec("exp_weibull", (0.3295, 0.2057))
    x = quantile(b, 0.001)
    assert x == pytest.approx(5.47e-45, rel=1e-3)
    assert abs(sf(b, x) - 0.999) <= 1e-15
    assert np.isfinite(log_pdf(b, quantile(b, 1e-8)))


@pytest.mark.parametrize("params", [(0.3295, 0.2057), (0.9, 0.9), (1.0, 2.0), (2.5, 0.3), (3.0, 4.0)])
def test_exp_weibull_log_sf_is_zero_at_the_origin_without_a_guard(params):
    # at t = 0, log z = -inf and the closed form is log(-expm1(-inf)) = log 1 =
    # +0.0; every t > 0 takes the same operations as the guarded expression
    al, be = params
    t = np.array([0.0, 5e-324, 1e-300, 1e-30, 1e-3, 0.5, 1.0, 3.0, 40.0, 1e3])
    with np.errstate(all="ignore"):
        old = np.where(t > 0.0, np.log(-np.expm1(be * _log_z(t, al))), 0.0)
    got = log_sf(BaselineSpec("exp_weibull", params), t)
    assert got.tobytes() == old.tobytes()


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


def test_mphrs_survival_at_origin_never_rounds_above_one():
    # w = 1 at x = 0; the map alpha w / (alpha w + (1 - w)) is then alpha / alpha
    b = BaselineSpec("weibull", (1.0, 2.0))
    for alpha in np.linspace(0.01, 5.0, 500).tolist():
        m = SemiParamModel("mphrs", b, alpha=alpha, lam=1.3)
        assert sp_survival(m, 0.0, 0.7) <= 1.0, alpha


def test_mphrs_map_is_exact_to_rounding_near_w_one():
    # theta = lam = 1 over exponential(1), so w = sf(b, x), within 1e-3 of 1
    # here: the map's relative error against exact rational arithmetic on
    # the same w stays within two ulps
    b = BaselineSpec("exponential", (1.0,))
    xs = np.concatenate([[0.0, 5e-324], np.geomspace(1e-18, 1e-3, 60)])
    ws = [Fraction(w) for w in sf(b, xs).tolist()]
    for alpha in np.geomspace(1e-3, 1.0, 40).tolist():
        got = sp_survival(SemiParamModel("mphrs", b, alpha=alpha, lam=1.0), xs, 1.0)
        a = Fraction(alpha)
        for g, w in zip(got.tolist(), ws):
            exact = a * w / (a * w + 1 - w)
            assert abs(Fraction(g) - exact) <= Fraction(4.5e-16) * exact, (alpha, float(w))


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_sp_survival_in_unit_interval_at_the_extremes(b):
    # the survival kernel relies on this: it clips no marginal
    xs = np.array([0.0, 5e-324, 1e300, math.inf])
    kinds = [
        ("scale", {}, 1.3), ("phr", {}, 0.7), ("location", {}, 0.3), ("location", {}, -0.3),
        ("mphrs", {"alpha": 0.1, "lam": 1.3}, 0.9), ("mphrs", {"alpha": 3.7, "lam": 0.4}, 2.0),
        ("ls", {"lam": 0.5}, 1.1), ("ls", {"lam": -0.5}, 1.1),
    ]
    for kind, fixed, theta in kinds:
        vals = sp_survival(SemiParamModel(kind, b, **fixed), xs, theta)
        assert np.all((vals >= 0.0) & (vals <= 1.0)), (kind, fixed, vals)


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
    v = check_dfr(BaselineSpec("gen_pareto", (0.5,)))
    assert v.name == "baseline_dfr"
    assert v.holds and v.evidence == "gen_pareto always DFR"
    assert check_dfr(BaselineSpec("exponential", (1.0,))).holds  # constant hazard
    v = check_dfr(BaselineSpec("weibull", (1.0, 2.0)))
    assert not v.holds and v.evidence == "weibull shape 2 > 1"
    v = check_dfr(BaselineSpec("weibull", (1.3, 0.8)))
    assert v.holds and v.evidence == "weibull shape 0.8 <= 1"
    # boundaries: shape 1 is the exponential, burr c = 1 has hazard k / (1 + x)
    assert check_dfr(BaselineSpec("gamma", (1.0, 2.0))).holds
    assert check_dfr(BaselineSpec("burr", (1.0, 3.0))).holds
    v = check_dfr(BaselineSpec("exp_weibull", (0.5, 2.5)))
    assert not v.holds and v.evidence == "exp_weibull alpha 0.5 <= 1; alpha*beta 1.25 > 1"
    assert check_dfr(BaselineSpec("gen_gamma", (1.0, 1.0))).holds


#: Baselines the 0.001-0.999 quantile grid of the former probe certified as
#: DFR although their hazard rises, each with a witness (x1, x2), x1 < x2,
#: where it does: one from each class of false pass.
FALSE_DFR = {
    "burr_c_1.10": (BaselineSpec("burr", (1.10, 0.21)), (1e-6, 1e-3)),
    "exp_weibull_alpha_beta_above_1": (BaselineSpec("exp_weibull", (0.38, 2.7)), (1e-9, 1e-7)),
    "gen_gamma_p_above_1": (BaselineSpec("gen_gamma", (1.08, 0.3)), (10.0, 20.0)),
    "gen_gamma_q_above_1": (BaselineSpec("gen_gamma", (0.35, 1.05)), (1e-8, 1e-6)),
}


@pytest.mark.parametrize("name", sorted(FALSE_DFR))
def test_false_dfr_passes_read_not_dfr(name):
    b, (x1, x2) = FALSE_DFR[name]
    assert not check_dfr(b).holds
    assert hazard(b, x2) > hazard(b, x1) * (1.0 + 1e-3)


def test_dfr_table_is_sound_on_random_baselines():
    # wherever the table says DFR, the hazard never rises on a dense grid of
    # quantiles from 1e-8 to 1 - 1e-8, spaced in log(p) and log(1 - p)
    rng = np.random.default_rng(2024)
    probs = np.concatenate([np.geomspace(1e-8, 0.5, 1000), 1.0 - np.geomspace(0.5, 1e-8, 1000)[1:]])
    certified = dict.fromkeys(BASELINE_FAMILIES, 0)
    for family in BASELINE_FAMILIES:
        for _ in range(100):
            params = np.exp(rng.uniform(np.log(0.2), np.log(5.0), len(_FAMILIES[family].names)))
            b = BaselineSpec(family, tuple(params))
            if not check_dfr(b).holds:
                continue
            certified[family] += 1
            h = hazard(b, quantile(b, probs))
            assert np.all(np.isfinite(h)), b
            rise = np.max(np.diff(h) / h[:-1])
            assert rise <= 1e-9, (b, rise)
    assert min(certified.values()) >= 10, certified


def test_dpfr_verdicts():
    # x*h is x/(1+x) for gen_pareto(1): increasing
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
    # x*h >= c > 0 on (0, x0] would make S(x0) = 0, so no lifetime law is DPFR;
    # burr(0.1486, 0.1756) was the one certificate of the former grid probe
    for b in [BaselineSpec("burr", (0.1486, 0.1756))] + ALL_BASELINES:
        v = check_dpfr(b)
        assert v.name == "baseline_dpfr"
        assert not v.holds and v.evidence.startswith(f"{b.family}: no lifetime law with S(0) = 1")
        assert "diverges" in v.evidence


def test_dpfr_grid_validation():
    # the lifetime grid that remains (the mphrs alpha > 1 hazard probe, the
    # bulk grid of the baseline alone) still refuses a baseline without a
    # finite positive bulk: burr(0.05, 0.05) has an infinite 0.999 quantile,
    # burr(0.01, 1e10) both quantiles at 0
    heavy = BaselineSpec("burr", (0.05, 0.05))
    flat = BaselineSpec("burr", (0.01, 1e10))
    for b in (heavy, flat):
        msg = re.escape(f"scale burr{b.params} has no finite positive bulk quantile range")
        with pytest.raises(ValidationError, match=msg):
            bulk_grid([(SemiParamModel("scale", b), 1.0)], PROBE_POINTS)
        with pytest.raises(ValidationError, match=msg):
            default_x_grid(b)
    # one message names every model of the grid, once each
    ok = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    with pytest.raises(ValidationError, match=r"^scale weibull\(1.0, 0.8\), phr burr"):
        bulk_grid([(ok, (1.0, 2.0)), (SemiParamModel("phr", heavy), 1.0), (ok, 3.0)], 50)
    with pytest.raises(ValidationError, match="burr"):
        check_theorem1_condition2(SemiParamModel("mphrs", heavy, alpha=2.0, lam=1.0))
    # DPFR needs no grid at all: it fails by proof
    assert not check_dpfr(heavy).holds
    with pytest.raises(ValidationError, match="fewer than 3 finite points"):
        check_theorem1_condition2(SemiParamModel("mphrs", heavy, alpha=2.0, lam=1.0),
                                  grid=lambda m: np.full(100, np.nan))


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_probe_grid_is_the_bulk_rule_over_the_baseline(b):
    m = SemiParamModel("mphrs", b, alpha=2.5, lam=0.7)
    grid = GridPolicy().shape_x_grid(m)
    np.testing.assert_array_equal(grid, bulk_grid([(SemiParamModel("scale", b), 1.0)],
                                                  PROBE_POINTS))
    np.testing.assert_array_equal(grid, default_x_grid(b))
    # the scale model at theta = 1 has the baseline's quantiles bit for bit
    lo, hi = quantile(b, 0.001), quantile(b, 0.999)
    assert grid.size == PROBE_POINTS and grid[-1] == hi
    assert grid[0] == lo


def test_probe_grid_reaches_below_the_curve_floor():
    # gen_pareto(3): q(0.001) ~ 1e-3 lies below CURVE_FLOOR q(0.999) ~ 0.33,
    # and both the curve grid and the probe start at q(0.001), not at the floor
    b = BaselineSpec("gen_pareto", (3.0,))
    lo, hi = quantile(b, 0.001), quantile(b, 0.999)
    assert 0.0 < lo < hi * CURVE_FLOOR
    curve = bulk_grid([(SemiParamModel("scale", b), 1.0)], 1000)
    assert curve[0] == lo and curve[-1] == hi
    probe = default_x_grid(b)
    assert probe[0] == lo and probe[-1] == hi


def test_probe_sees_a_hazard_rise_below_the_curve_floor():
    # gen_pareto(3) is DFR, so the probe decides this mphrs model; its hazard
    # rises between q(0.001) = 0.001 and CURVE_FLOOR q(0.999) ~ 0.333, which
    # the probe must see
    m = SemiParamModel("mphrs", BaselineSpec("gen_pareto", (3.0,)), alpha=10.0, lam=20.0)
    assert check_dfr(m.baseline).holds
    v = check_theorem1_condition2(m)
    assert not v.holds and "in [0.001, 3.33e+08], worst relative rise 4.347e-02" in v.evidence
    # on a grid that starts at CURVE_FLOOR q(0.999) the rise is out of sight
    hi = quantile(m.baseline, BULK_Q_HI)
    at_curve_floor = check_theorem1_condition2(
        m, grid=lambda mm: np.geomspace(hi * CURVE_FLOOR, hi, PROBE_POINTS))
    assert at_curve_floor.holds and "in [0.333, 3.33e+08]" in at_curve_floor.evidence


def test_bulk_grid_steps_equal_geomspace_bit_for_bit():
    # random ends from 1e-12 to 1e3 with spans up to 1e12, 2 to 3000 points
    rng = np.random.default_rng(33)
    for _ in range(3000):
        lo = 10.0 ** rng.uniform(-12.0, 3.0)
        hi = lo * 10.0 ** rng.uniform(0.0, 12.0)
        points = int(rng.integers(2, 3001) if rng.random() < 0.2 else rng.integers(2, 60))
        assert _geomspace(lo, hi, points).tobytes() == np.geomspace(lo, hi, points).tobytes()
    assert _geomspace(2.0, 2.0, 5).tobytes() == np.geomspace(2.0, 2.0, 5).tobytes()


@pytest.mark.parametrize("b", ALL_BASELINES, ids=_ids)
def test_bulk_grid_is_geomspace_over_its_ends(b):
    m = SemiParamModel("scale", b)
    theta = (0.3, 1.0, 4.0)
    lo = min(sp_quantile(m, BULK_Q_LO, t) for t in theta)
    hi = max(sp_quantile(m, BULK_Q_HI, t) for t in theta)
    for points in (2, 17, 1000):
        want = np.geomspace(lo if lo > 0.0 else hi * CURVE_FLOOR, hi, points)
        assert bulk_grid([(m, theta)], points).tobytes() == want.tobytes()


def _horner_allocating(z, coef):
    s = coef[0]
    for c in coef[1:]:
        s = s * z + c
    return s


def _legendre_fraction_allocating(x, a, depth):
    b = x + (2 * depth + 1 - a)
    f = b
    for k in range(depth, 0, -1):
        b = b - 2.0
        f = b - k * (k - a) / f
    return f


@pytest.mark.parametrize("a", [0.003, 0.35, 1.0, 2.375, 40.0, 1e4])
def test_gamma_kernels_in_place_equal_the_allocating_form(a):
    # the in-place vector walk runs the allocating form's operations in its
    # order, so every element has the same bits, as in the Python-float path
    coef, depth = _gamma_plan(a)
    rng = np.random.default_rng(int(a * 1000))
    z = rng.uniform(0.0, 1.0, 300)
    x = (a + 1.0) * np.exp(rng.uniform(0.0, 5.0, 300))
    for fn, ref, arr, args in ((_horner, _horner_allocating, z, (coef,)),
                               (_legendre_fraction, _legendre_fraction_allocating, x, (a, depth))):
        given = arr.copy()
        got = fn(arr, *args)
        assert got.tobytes() == ref(arr, *args).tobytes()
        assert arr.tobytes() == given.tobytes()  # the argument is left alone
        assert got.tobytes() == np.array([fn(v, *args) for v in arr.tolist()]).tobytes()


@pytest.mark.parametrize("points", [1, 0, -3])
def test_grid_builders_need_two_points(points):
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    for build in (lambda: bulk_grid([(m, 1.0)], points), lambda: linear_grid(0.0, 10.0, points)):
        with pytest.raises(ValidationError, match="curve_points must be at least 2"):
            build()


@pytest.mark.parametrize("points", [4.5, 1000.5, False, "10", math.nan])
def test_grid_builders_need_an_integer_point_count(points):
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    for build in (lambda: bulk_grid([(m, 1.0)], points), lambda: linear_grid(0.0, 1.0, points)):
        with pytest.raises(ValidationError, match="curve_points must be an integer"):
            build()


def test_grid_builders_refuse_a_point_count_numpy_cannot_index():
    # 2**60 float64 values raised numpy's "Maximum allowed size exceeded"
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    for build in (lambda: bulk_grid([(m, 1.0)], 2 ** 60), lambda: linear_grid(0.0, 1.0, 2 ** 60)):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"curve_points must be at most {2 ** 60 - 1}, got {2 ** 60}"


@pytest.mark.parametrize("x_min, x_max", [(2.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (math.nan, 1.0),
                                          (0.0, math.nan)])
def test_linear_grid_needs_an_ordered_nonnegative_range(x_min, x_max):
    with pytest.raises(ValidationError, match="need 0 <= x-min < x-max"):
        linear_grid(x_min, x_max, 10)


def test_linear_grid_starts_above_zero():
    np.testing.assert_array_equal(linear_grid(0.0, 10.0, 1000), np.linspace(0.01, 10.0, 1000))
    np.testing.assert_array_equal(linear_grid(0.1, 5.0, 50), np.linspace(0.1, 5.0, 50))


# ----------------------------------------------- theorem shape checks
def test_condition1_scale_over_dfr_baselines():
    for b in [BaselineSpec("exp_weibull", (0.9, 0.9)), BaselineSpec("gen_pareto", (1.0,))]:
        m = SemiParamModel("scale", b)
        v = check_theorem1_condition2(m)
        assert v.holds, (b, v)


def test_condition1_fails_for_increasing_hazard():
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 2.0)))
    v = check_theorem1_condition2(m)
    assert not v.holds and v.evidence == "scale: nonincreasing in theta; weibull shape 2 > 1"


def test_condition1_fails_for_location_kind():
    # location survival increases with theta, breaking the decreasing clause
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    v = check_theorem1_condition2(m)
    assert not v.holds
    assert v.evidence == "location: nondecreasing in theta, not nonincreasing"


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
        for kind in ("scale", "phr"):
            v = check_theorem1_condition2(SemiParamModel(kind, b))
            assert v.holds, (b, v)
        assert check_theorem2_condition2(SemiParamModel("location", b)).holds


def test_condition2_location_over_gp_holds():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    v = check_theorem2_condition2(m)
    assert v.holds, v
    assert v.evidence == "location: nondecreasing in theta; gen_pareto always DFR"


def test_condition2_fails_for_scale_and_phr():
    # survival decreases in theta for both kinds
    for kind in ("scale", "phr"):
        m = SemiParamModel(kind, BaselineSpec("exponential", (1.0,)))
        v = check_theorem2_condition2(m)
        assert not v.holds, (kind, v)


def test_mphrs_dfr_by_rule_up_to_alpha_1_and_probed_above():
    b = BaselineSpec("weibull", (2.0, 0.8))
    calls = []

    def grid(m):
        calls.append(m)
        return np.geomspace(1e-3, 50.0, 300)

    v = check_theorem1_condition2(SemiParamModel("mphrs", b, alpha=0.4, lam=1.3), grid)
    assert v.holds and v.evidence == "mphrs: nonincreasing in theta; weibull shape 0.8 <= 1"
    assert calls == []  # the rule decides; no grid is built
    # alpha > 1 divides the hazard by 1 + (alpha - 1) w, which falls in x: an
    # exponential baseline's flat hazard lam*rate/(1 + (alpha-1) e^(-lam*rate*x)) rises
    m = SemiParamModel("mphrs", BaselineSpec("exponential", (1.0,)), alpha=3.0, lam=1.0)
    v = check_theorem1_condition2(m, grid)
    assert calls == [m] and not v.holds
    assert v.evidence.startswith("mphrs: nonincreasing in theta; mphrs alpha 3 > 1, no rule")
    # a steep enough DFR baseline stays DFR: gen_pareto(1), lam 1, alpha 2 has
    # hazard 1/((1 + x)(1 + (1 + x)^-1)) = 1/(2 + x)
    m = SemiParamModel("mphrs", BaselineSpec("gen_pareto", (1.0,)), alpha=2.0, lam=1.0)
    assert check_theorem1_condition2(m, grid).holds


@pytest.mark.parametrize("tol, message", [
    (True, "tol must be a number, got True"),
    ("1e-9", "tol must be a number, got '1e-9'"),
    (math.nan, "tol must be nonnegative, got nan"),
    (-1.0, "tol must be nonnegative, got -1.0"),
], ids=["bool", "string", "nan", "negative"])
def test_survival_shape_refuses_a_malformed_tol(tol, message):
    # a NaN or negative tol read the probed mphrs hypothesis as false
    probed = SemiParamModel("mphrs", BaselineSpec("gen_pareto", (2.0,)), alpha=2.0, lam=1.0)
    assert check_theorem1_condition2(probed).holds
    ruled = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    for call in (lambda: survival_shape(probed, "nonincreasing", None, tol),
                 lambda: check_theorem1_condition2(probed, None, tol),
                 lambda: check_theorem1_condition2(ruled, None, tol),
                 lambda: check_theorem2_condition2(ruled, None, tol)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message


def test_mphrs_over_a_non_dfr_baseline_fails_by_rule_before_any_probe():
    # exp_weibull(0.341, 2.965) is not DFR (alpha beta = 1.01), and alpha > 1
    # multiplies its hazard by 1/(1 + (alpha - 1) w), which grows in x, so the
    # model is not DFR either; its hazard rises below q(0.001), where the
    # probe grid [0.00125, 444] does not look
    b = BaselineSpec("exp_weibull", (0.341, 2.965))
    m = SemiParamModel("mphrs", b, alpha=4.27, lam=0.634)
    calls = []
    v = check_theorem1_condition2(m, lambda mm: calls.append(mm) or default_x_grid(b))
    assert calls == [] and not v.holds
    assert v.evidence == ("mphrs: nonincreasing in theta; mphrs alpha 4.27 > 1 keeps a hazard rise "
                      "of the baseline: exp_weibull alpha 0.341 <= 1; alpha*beta 1.01107 > 1")
    # the probe alone would have certified it
    xs = default_x_grid(b)
    ls = log_sf(b, xs)
    h = m.lam * np.exp(log_pdf(b, xs) - ls) / (1.0 + (m.alpha - 1.0) * np.exp(m.lam * ls))
    worst = np.max(np.diff(h) / (1.0 + h[:-1] + h[1:]))
    assert f"{xs[0]:.3g} {xs[-1]:.3g}" == "0.00125 444"
    assert -2e-4 < worst < -1e-4


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
        with pytest.raises(ValidationError, match=f"{m.kind} theta must "):
            f(m, -np.geomspace(0.1, 2.0, 5), bad[:, None])


@pytest.mark.parametrize("kind, theta, message", [
    ("scale", -0.5, "scale theta must be positive and finite, got -0.5"),
    ("phr", 0.0, "phr theta must be positive and finite, got 0.0"),
    ("mphrs", np.inf, "mphrs theta must be positive and finite, got inf"),
    ("ls", [1.0, np.nan, -np.inf, -1.0, 0.0], "ls theta must be positive and finite, got nan"),
    ("location", [-3.0, np.inf], "location theta must be finite, got inf"),
], ids=["scale-negative", "phr-zero", "mphrs-inf", "ls-first-entry", "location-inf"])
def test_theta_outside_the_domain_is_refused_where_it_enters(kind, theta, message):
    # the survival kernel trusts a theta its SystemSpec checked; every public
    # entry that takes a theta of its own checks it, with one message
    m = SemiParamModel(kind, BaselineSpec("weibull", (1.0, 0.8)),
                       alpha=0.5 if kind == "mphrs" else None,
                       lam={"mphrs": 1.3, "ls": 0.2}.get(kind))
    calls = {"sp_survival": lambda: sp_survival(m, 1.0, theta),
             "sp_log_survival": lambda: sp_log_survival(m, [0.5, 1.0], theta),
             "sp_quantile": lambda: sp_quantile(m, 0.5, theta),
             "curve_grid": lambda: GridPolicy().curve_grid(m, np.atleast_1d(theta))}
    for name, call in calls.items():
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message, name


#: model -> (holds, rule) of the theorem-1 and theorem-2 condition-2 checks.
PINNED_CHECKS = {
    "location_gen_pareto": (
        SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,))),
        (False, "location: nondecreasing in theta, not nonincreasing"),
        (True, "location: nondecreasing in theta; gen_pareto always DFR")),
    # the former probe skipped the survival-1 region below lambda; the rule
    # is the baseline's
    "ls_weibull": (
        SemiParamModel("ls", BaselineSpec("weibull", (1.0, 0.8)), lam=1.5),
        (True, "ls: nonincreasing in theta; weibull shape 0.8 <= 1"),
        (False, "ls: nonincreasing in theta, not nondecreasing")),
    "mphrs_weibull": (
        SemiParamModel("mphrs", BaselineSpec("weibull", (2.0, 0.8)), alpha=0.4, lam=1.3),
        (True, "mphrs: nonincreasing in theta; weibull shape 0.8 <= 1"),
        (False, "mphrs: nonincreasing in theta, not nondecreasing")),
    "phr_gen_gamma": (
        SemiParamModel("phr", BaselineSpec("gen_gamma", (0.5, 0.5))),
        (True, "phr: nonincreasing in theta; gen_gamma p 0.5 <= 1; q 0.5 <= 1"),
        (False, "phr: nonincreasing in theta, not nondecreasing")),
    # the former probe certified theorem 1 here: on a grid of [0.01, 0.1] the
    # survival is 1 everywhere, so no window was left to test
    "location_no_window": (
        SemiParamModel("location", BaselineSpec("exponential", (1.0,))),
        (False, "location: nondecreasing in theta, not nonincreasing"),
        (True, "location: nondecreasing in theta; exponential always DFR")),
    "scale_exponential": (
        SemiParamModel("scale", BaselineSpec("exponential", (1.0,))),
        (True, "scale: nonincreasing in theta; exponential always DFR"),
        (False, "scale: nonincreasing in theta, not nondecreasing")),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
def test_condition2_verdicts_pinned(name):
    m, want1, want2 = PINNED_CHECKS[name]
    for check, (holds, rule) in ((check_theorem1_condition2, want1),
                                 (check_theorem2_condition2, want2)):
        assert check(m) == HypothesisCheck("survival_shape", holds, rule), check.__name__


def test_json_roundtrip():
    m = SemiParamModel("mphrs", BaselineSpec("gen_gamma", (0.5, 0.5)), alpha=0.5, lam=1.0)
    assert SemiParamModel.from_json(m.to_json()) == m
    m2 = SemiParamModel("scale", BaselineSpec("exponential", (2.0,)))
    assert SemiParamModel.from_json(m2.to_json()) == m2


def test_constructors_accept_numpy_scalars():
    b = BaselineSpec("weibull", (np.float64(1.5), np.int64(2)))
    assert b.params == (1.5, 2.0) and all(type(p) is float for p in b.params)
    exp = BaselineSpec("exponential", (1.0,))
    m = SemiParamModel("mphrs", exp, alpha=np.float64(2.0), lam=np.int64(3))
    assert (m.alpha, m.lam) == (2.0, 3)
    assert SemiParamModel("ls", exp, lam=np.int64(-2)).lam == -2


@pytest.mark.parametrize("make, message", [
    (lambda: BaselineSpec("weibull", (np.nan, 2.0)),
     "weibull parameter must be positive and finite, got nan"),
    (lambda: BaselineSpec("weibull", (np.float64(np.inf), 2.0)),
     "weibull parameter must be positive and finite, got inf"),
    (lambda: BaselineSpec("weibull", (1.0, 0)),
     "weibull parameter must be positive and finite, got 0"),
    (lambda: SemiParamModel("mphrs", BaselineSpec("exponential", (1.0,)), alpha=np.nan, lam=1.0),
     "mphrs alpha must be positive and finite, got nan"),
    (lambda: SemiParamModel("mphrs", BaselineSpec("exponential", (1.0,)),
                            alpha=np.float64(2.0), lam=np.inf),
     "mphrs lambda must be positive and finite, got inf"),
    (lambda: SemiParamModel("ls", BaselineSpec("exponential", (1.0,)), lam=np.nan),
     "ls lambda must be finite, got nan"),
], ids=["param-nan", "param-inf", "param-zero", "alpha-nan", "lambda-inf", "ls-lambda-nan"])
def test_constructors_refuse_nonfinite_values(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: SemiParamModel("frailty", BaselineSpec("exponential", (1.0,))),
     "unknown model kind 'frailty'"),
    (lambda: SemiParamModel("ls", BaselineSpec("exponential", (1.0,)), alpha=0.5, lam=1.0),
     "ls takes no fixed alpha, got 0.5"),
    (lambda: sp_survival(SemiParamModel("scale", BaselineSpec("exponential", (1.0,))),
                         [0.5, math.nan], 1.0), "x must not be NaN, got nan"),
    (lambda: sp_log_survival(SemiParamModel("scale", BaselineSpec("exponential", (1.0,))),
                             math.nan, 1.0), "x must not be NaN, got nan"),
    (lambda: BaselineSpec.from_json(["weibull", [1.0, 2.0]]),
     "baseline spec must carry 'family' and 'params'"),
    (lambda: BaselineSpec.from_json({"family": "weibull"}),
     "baseline spec must carry 'family' and 'params'"),
    (lambda: BaselineSpec.from_json({"family": "weibull", "params": 1.0}),
     "weibull takes 2 parameters ('scale', 'shape'), got 1.0"),
    (lambda: SemiParamModel.from_json("scale"), "model spec must carry 'kind' and 'baseline'"),
    (lambda: SemiParamModel.from_json({"kind": "scale"}),
     "model spec must carry 'kind' and 'baseline'"),
    (lambda: SemiParamModel.from_json({"kind": "mphrs", "fixed": [0.5, 1.0], "baseline": {
        "family": "exponential", "params": [1.0]}}), "model fixed must be an object"),
], ids=["unknown-kind", "ls-alpha", "nan-x", "nan-x-log", "baseline-list", "baseline-no-params",
        "baseline-params-number", "model-text", "model-no-baseline", "model-fixed-list"])
def test_model_refusals_keep_their_messages(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message
