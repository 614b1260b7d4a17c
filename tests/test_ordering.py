import numpy as np
import pytest

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    GridPolicy,
    InconsistencyError,
    Relation,
    SemiParamModel,
    SurvivalCurve,
    SystemSpec,
    ValidationError,
    compare_curves,
    curve,
    curves,
    default_grid,
    schur_condition_probe,
    verify_prop_ls,
    verify_prop_mphrs,
    verify_theorem1,
    verify_theorem2,
)
from failsafekit import ordering, systems
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair
from failsafekit.models import check_dpfr, survival_shape
from failsafekit.ordering import (ROUTES, ConditionReport, DominanceVerdict, _bracket_crossings,
                                  _grid_verdict, verify)

FAST = GridPolicy(curve_points=400)


def exp_curve(rate, xs):
    return SurvivalCurve(xs=tuple(xs), values=tuple(np.exp(-rate * xs)))


# -------------------------------------------------------- compare_curves
def test_identical_curves_tie():
    xs = np.linspace(0.1, 5.0, 50)
    c = exp_curve(1.0, xs)
    v = compare_curves(c, c)
    assert v.relation is Relation.TIES_WITHIN_TOL
    assert v.min_gap == 0.0 and v.max_gap == 0.0


def test_clear_dominance_both_directions():
    xs = np.linspace(0.1, 5.0, 50)
    slow, fast = exp_curve(0.5, xs), exp_curve(2.0, xs)
    assert compare_curves(slow, fast).relation is Relation.X_DOMINATES_Y
    assert compare_curves(fast, slow).relation is Relation.Y_DOMINATES_X


def test_crossing_detected_with_brackets():
    xs = np.linspace(0.1, 6.0, 200)
    # Weibull shape 0.5 vs shape 2 survivals cross at x=1
    c1 = SurvivalCurve(xs=tuple(xs), values=tuple(np.exp(-np.sqrt(xs))))
    c2 = SurvivalCurve(xs=tuple(xs), values=tuple(np.exp(-xs ** 2)))
    v = compare_curves(c1, c2)
    assert v.relation is Relation.CROSSING
    assert len(v.crossings) == 1
    lo, hi = v.crossings[0]
    assert lo < 1.0 < hi


def test_antisymmetry_on_random_curves():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.1, 4.0, 80)
    for _ in range(20):
        r1, r2 = rng.uniform(0.3, 3.0, 2)
        a, b = exp_curve(r1, xs), exp_curve(r2, xs)
        fwd = compare_curves(a, b)
        rev = compare_curves(b, a)
        mapping = {
            Relation.X_DOMINATES_Y: Relation.Y_DOMINATES_X,
            Relation.Y_DOMINATES_X: Relation.X_DOMINATES_Y,
            Relation.CROSSING: Relation.CROSSING,
            Relation.TIES_WITHIN_TOL: Relation.TIES_WITHIN_TOL,
        }
        assert rev.relation is mapping[fwd.relation]
        assert rev.min_gap == pytest.approx(-fwd.max_gap)


def test_grid_mismatch_rejected():
    xs = np.linspace(0.1, 5.0, 50)
    with pytest.raises(ValidationError):
        compare_curves(exp_curve(1.0, xs), exp_curve(1.0, xs + 0.01))


def test_demo_pair_dominates():
    sx, sy = gumbel_barnett_pair()
    xs = demo_grid()
    v = compare_curves(curve(sx, xs), curve(sy, xs))
    assert v.relation is Relation.X_DOMINATES_Y
    assert v.min_gap >= -1e-10


def test_clayton_pair_dominates_despite_near_tangency():
    # the strongly dependent pair's gap narrows towards x = 0 but the
    # parameters are componentwise ordered, which forces dominance for any
    # generator
    sx, sy = clayton_pair()
    xs = demo_grid()
    v = compare_curves(curve(sx, xs), curve(sy, xs))
    assert v.relation is Relation.X_DOMINATES_Y
    assert v.min_gap > 0.0
    # near the left edge of (0, 10] the gap shrinks to ~7e-5: close enough
    # to zero to be misread as a crossing on a plot, but strictly positive
    from failsafekit import survival_x2n
    edge_gap = survival_x2n(sx, 1e-3) - survival_x2n(sy, 1e-3)
    assert 0.0 < edge_gap < 1e-4
    assert np.all(np.sort(sx.theta) <= np.sort(sy.theta))  # the structural reason


@pytest.mark.parametrize("other", [
    np.linspace(0.1, 5.0, 50) * 1.01,  # same length, other points
    np.linspace(0.1, 5.0, 51),         # other length
])
def test_comparers_reject_different_grids(other):
    c = exp_curve(1.0, np.linspace(0.1, 5.0, 50))
    d = exp_curve(2.0, other)
    with pytest.raises(ValidationError, match="different grids"):
        compare_curves(c, d)
    with pytest.raises(ValidationError, match="different grids"):
        compare_curves(d, c)


def _compare_curves_reference(cx, cy, tol, crossing_gap):
    """compare_curves as it was written with a fallback branch, kept as the
    reference its one-branch-per-relation form must reproduce."""
    xs = cx.xs
    gap = cx.values - cy.values
    min_gap, max_gap = float(gap.min()), float(gap.max())
    if max_gap <= tol and min_gap >= -tol:
        relation = Relation.TIES_WITHIN_TOL
        crossings = ()
    elif min_gap >= -tol:
        relation = Relation.X_DOMINATES_Y
        crossings = ()
    elif max_gap <= tol:
        relation = Relation.Y_DOMINATES_X
        crossings = ()
    else:
        crossings = _bracket_crossings(xs, gap, crossing_gap)
        relation = Relation.CROSSING if crossings else (
            Relation.X_DOMINATES_Y if min_gap >= -crossing_gap else
            Relation.Y_DOMINATES_X if max_gap <= crossing_gap else
            Relation.TIES_WITHIN_TOL
        )
    return DominanceVerdict(relation, min_gap, max_gap, crossings, xs.size)


@pytest.mark.parametrize("tol, crossing_gap", [
    (GridPolicy.dominance_tol, GridPolicy.crossing_gap),
    (GridPolicy.crossing_gap, GridPolicy.dominance_tol),  # tolerances swapped
    (1e-9, 1e-9),
])
def test_compare_curves_matches_reference(tol, crossing_gap):
    # gap entries of magnitude 1e-11 to 1e-7 straddle both tolerances; the
    # base curve falls by 1e-3 a point, so adding a gap keeps it monotone
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(2000):
        m = int(rng.integers(2, 30))
        xs = np.linspace(0.1, 5.0, m)
        base = np.linspace(0.9, 0.9 - 1e-3 * (m - 1), m)
        lo, hi = np.sort(rng.uniform(-11.0, -7.0, 2))
        signs = np.where(rng.random(m) < rng.choice([0.0, 0.05, 0.5, 0.95, 1.0]), -1.0, 1.0)
        gap = signs * 10.0 ** rng.uniform(lo, hi, m)
        cx, cy = SurvivalCurve(xs, base + gap), SurvivalCurve(xs, base)
        got = compare_curves(cx, cy, GridPolicy(dominance_tol=tol, crossing_gap=crossing_gap))
        assert got == _compare_curves_reference(cx, cy, tol, crossing_gap)
        seen.add(got.relation)
    assert seen == set(Relation)


def _bracket_crossings_loop(xs, gap, thresh):
    """_bracket_crossings as a loop over consecutive points beyond thresh,
    kept as the reference of its vector form."""
    sig = np.where(gap > thresh, 1, np.where(gap < -thresh, -1, 0))
    idx = np.nonzero(sig)[0]
    out = []
    for a, b in zip(idx[:-1], idx[1:]):
        if sig[a] != sig[b]:
            out.append((float(xs[a]), float(xs[b])))
    return tuple(out)


def test_bracket_crossings_match_the_loop():
    # gaps mixing exact zeros, sub-threshold values of both signs and values
    # beyond the threshold, including none and one beyond it
    rng = np.random.default_rng(33)
    thresh = GridPolicy.crossing_gap
    for _ in range(3000):
        m = int(rng.integers(1, 60))
        xs = np.sort(rng.uniform(0.0, 10.0, m))
        scale = 10.0 ** rng.uniform(-12.0, -4.0, m)
        gap = rng.choice([-1.0, 0.0, 1.0], m, p=rng.dirichlet(np.ones(3))) * scale
        if rng.random() < 0.1:
            gap[rng.integers(0, m)] = thresh  # on the threshold is not beyond it
        got = _bracket_crossings(xs, gap, thresh)
        assert got == _bracket_crossings_loop(xs, gap, thresh)
        assert all(type(v) is float for pair in got for v in pair)


@pytest.mark.parametrize("tol, crossing_gap", [(-1e-10, 1e-8), (1e-10, -1e-8),
                                               (np.nan, 1e-8), (1e-10, np.nan)])
def test_compare_curves_rejects_negative_or_nan_tolerances(tol, crossing_gap):
    # the policy refuses them when it is built, so no comparison can use them
    c = exp_curve(1.0, np.linspace(0.1, 5.0, 50))
    with pytest.raises(ValidationError, match="nonnegative"):
        compare_curves(c, c, GridPolicy(dominance_tol=tol, crossing_gap=crossing_gap))


# ----------------------------------------------------- verifier: first
def test_verify_first_demo_passes_and_confirms():
    sx, sy = gumbel_barnett_pair()
    rep = verify_theorem1(sx, sy, FAST)
    assert rep.overall
    assert all(c.holds for c in rep.checks)
    assert rep.dominance.relation is Relation.X_DOMINATES_Y


def test_verify_rejects_log_convex_generator():
    sx, sy = clayton_pair()
    rep = verify_theorem1(sx, sy, FAST)
    assert not rep.overall
    assert not rep.check("generator_log_concave").holds
    assert rep.check("survival_shape").holds  # weibull shape 0.9 is DFR
    assert rep.check("p_larger").holds
    assert rep.dominance is None  # hypotheses failed: no claim made


def test_verify_identical_systems_tie():
    sx, _ = gumbel_barnett_pair()
    rep = verify_theorem1(sx, sx, FAST)
    assert rep.overall
    assert rep.dominance.relation is Relation.TIES_WITHIN_TOL


def test_verify_nonpositive_theta_fails_shape_and_preorder():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    rep = verify_theorem1(SystemSpec(2, m, (-0.5, 1.0), gen),
                          SystemSpec(2, m, (0.5, 1.0), gen), FAST)
    assert not rep.overall and rep.dominance is None
    # the shape check reads the model alone: location moves up in theta
    assert rep.check("survival_shape").evidence == (
        "location: nondecreasing in theta, not nonincreasing")
    assert rep.check("p_larger").evidence == "p_larger requires strictly positive entries"
    assert not rep.check("p_larger").holds
    assert rep.check("generator_log_concave").holds


def test_verify_nonpositive_theta_fails_only_the_preorder():
    # location over gen_pareto is DFR and nondecreasing in theta, whatever
    # theta's sign; only reciprocal majorization needs positive vectors
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    rep = verify_theorem2(SystemSpec(2, m, (-0.5, 1.0), gen),
                          SystemSpec(2, m, (0.5, 1.0), gen), FAST)
    assert not rep.overall and rep.dominance is None
    shape = rep.check("survival_shape")
    assert shape.holds
    assert shape.evidence == "location: nondecreasing in theta; gen_pareto always DFR"
    order = rep.check("reciprocal_majorize")
    assert not order.holds
    assert order.evidence == "reciprocal_majorize requires strictly positive entries"
    assert all(c.holds for c in rep.checks if c is not order)


def test_verify_systems_of_different_n_report_a_failed_hypothesis():
    # the preorders compare vectors of one length, so systems of 5 and 4
    # components fail shared_model and the preorder check, and no curve is drawn
    sx, sy = gumbel_barnett_pair()
    short = SystemSpec(4, sy.model, sy.theta[:4], sy.generator)
    for verifier, order in ((verify_theorem1, "p_larger"),
                            (verify_theorem2, "reciprocal_majorize")):
        rep = verifier(sx, short, FAST)
        assert not rep.overall and rep.dominance is None
        assert [c.name for c in rep.checks if not c.holds][0] == "shared_model"
        assert rep.check("shared_model").evidence == "scale/n=5 vs scale/n=4"
        assert not rep.check(order).holds
        assert rep.check(order).evidence == "length mismatch: 5 != 4"


def test_verify_mismatched_generator_reported_not_raised():
    sx, sy = gumbel_barnett_pair()
    sy2 = SystemSpec(sy.n, sy.model, sy.theta, GeneratorSpec("gumbel_barnett", 0.3))
    rep = verify_theorem1(sx, sy2, FAST)
    assert not rep.overall
    assert not rep.check("shared_generator").holds


def test_verify_first_inconsistency_counterexample():
    # hypotheses all hold (log-concave amh, DFR scale baseline, p-larger)
    # yet the curves cross: two weak components sink the fail-safe system.
    # the verifier must escalate rather than certify.
    m = SemiParamModel("scale", BaselineSpec("exp_weibull", (0.95, 0.99)))
    gen = GeneratorSpec("amh", -0.202)
    sx = SystemSpec(4, m, (1.408, 0.105, 0.106, 1.284), gen)
    sy = SystemSpec(4, m, (0.616, 0.245, 0.710, 0.326), gen)
    with pytest.raises(InconsistencyError) as exc:
        verify_theorem1(sx, sy, FAST)
    rep = exc.value.report
    assert rep.overall  # every hypothesis verified
    # on the bulk grid the X curve sits strictly below: dominance reversed
    assert rep.dominance.relation in (Relation.Y_DOMINATES_X, Relation.CROSSING)
    assert rep.dominance.min_gap < -0.1  # measured -0.128


def test_verify_first_counterexample_from_a_valid_model():
    # amh(-0.202) above is not 4-monotone (its fourth derivative is negative
    # near t = 0), so no 4-dimensional copula has that generator; amh is
    # 4-monotone for theta >= -0.1010, and this pair from the seeded 07a
    # sweep (seed 71, draw 307) is a valid model on which the claim fails
    m = SemiParamModel("scale", BaselineSpec("gen_gamma", (0.6756542170040485, 0.6771824743878045)))
    gen = GeneratorSpec("amh", -0.059197712937787306)
    sx = SystemSpec(4, m, (2.387575887836777, 0.11823813879259237,
                           0.19158892533540825, 1.0266837460946139), gen)
    sy = SystemSpec(4, m, (0.7228169735573664, 0.198873648489512,
                           0.2790330900151772, 1.9284721783568337), gen)
    policy = GridPolicy(curve_points=300)
    with pytest.raises(InconsistencyError) as exc:
        verify_theorem1(sx, sy, policy)
    rep = exc.value.report
    assert rep.overall
    assert rep.dominance.relation is Relation.Y_DOMINATES_X
    assert rep.dominance.min_gap == pytest.approx(-0.019482927408200068, rel=1e-9)


# ---------------------------------------------------- verifier: second
def test_verify_second_inconsistency_counterexample():
    # all stated hypotheses hold (clayton log-convex; location survival
    # increasing and log-convex in theta; reciprocal majorization), yet
    # the curves cross: near x=2.5 the Y marginals dominate componentwise
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    sx = SystemSpec(3, m, (1.0, 2.0, 4.0), gen)
    sy = SystemSpec(3, m, (1.5, 2.0, 3.0), gen)
    with pytest.raises(InconsistencyError) as exc:
        verify_theorem2(sx, sy, FAST)
    rep = exc.value.report
    assert rep.overall
    assert all(c.holds for c in rep.checks)
    assert rep.dominance.relation is Relation.CROSSING
    assert rep.dominance.min_gap < -0.02  # measured -0.029 at x=2.5


def test_verify_second_rejects_scale_kind():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    sx = SystemSpec(3, m, (1.0, 2.0, 4.0), gen)
    sy = SystemSpec(3, m, (1.5, 2.0, 3.0), gen)
    rep = verify_theorem2(sx, sy, FAST)
    assert not rep.overall
    assert not rep.check("survival_shape").holds  # decreasing in theta


def test_verify_second_identical_systems_tie():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    sx = SystemSpec(3, m, (1.0, 2.0, 4.0), gen)
    rep = verify_theorem2(sx, sx, FAST)
    assert rep.overall
    assert rep.dominance.relation is Relation.TIES_WITHIN_TOL


# ------------------------------------------------- proposition verifiers
def _mphrs_pair(b=BaselineSpec("gen_gamma", (0.5, 0.5)), alpha=0.5, lam=1.0):
    m = SemiParamModel("mphrs", b, alpha=alpha, lam=lam)
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    sx = SystemSpec(3, m, (0.3, 0.8, 1.5), gen)
    sy = SystemSpec(3, m, (0.5, 0.8, 1.0), gen)
    return sx, sy


def test_prop_mphrs_dpfr_fails_on_gen_gamma():
    # x*h(x) of gen_gamma(.5,.5) is 0.5*sqrt(x): strictly increasing, so this
    # baseline is not DPFR and the verifier honestly reports overall=False
    # (no baseline is: see test_prop_ls_dpfr_fails_with_its_proof_on_burr)
    sx, sy = _mphrs_pair()
    rep = verify_prop_mphrs(sx, sy, FAST)
    assert not rep.overall
    assert not rep.check("baseline_dpfr").holds
    assert rep.check("generator_log_concave").holds
    assert rep.check("p_larger").holds


def test_prop_mphrs_conclusion_also_fails_for_this_pair():
    # the honest reason the verifier must not certify: dominance itself is
    # violated (min gap measured around -7.6e-5)
    sx, sy = _mphrs_pair()
    xs = np.geomspace(1e-3, 60.0, 500)
    gap = np.asarray(curve(sx, xs).values) - np.asarray(curve(sy, xs).values)
    assert gap.min() < -1e-5


def test_prop_mphrs_alpha_above_1_fails_baseline_dpfr():
    # no baseline is DPFR, so alpha > 1 needs no check of its own
    sx, sy = _mphrs_pair(alpha=1.5)
    rep = verify_prop_mphrs(sx, sy, FAST)
    assert not rep.overall and rep.dominance is None
    assert [c.name for c in rep.checks if not c.holds] == ["baseline_dpfr"]


def test_prop_mphrs_wrong_kind_fails_baseline_dpfr():
    # either proposition on a scale model: its baseline is no more DPFR than any
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    s = SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("independence"))
    for verifier in (verify_prop_mphrs, verify_prop_ls):
        rep = verifier(s, s, FAST)
        assert not rep.overall and rep.dominance is None
        assert [c.name for c in rep.checks if not c.holds] == ["baseline_dpfr"]


def _ls_pair():
    m = SemiParamModel("ls", BaselineSpec("gen_gamma", (0.5, 0.5)), lam=1.0)
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    return SystemSpec(3, m, (0.3, 0.8, 1.5), gen), SystemSpec(3, m, (0.5, 0.8, 1.0), gen)


def _location_pair():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    s = SystemSpec(3, m, (1.0, 2.0, 4.0), GeneratorSpec("clayton", 2.0))
    return s, s


def _mphrs_probe_pair():
    # alpha > 1 over a DFR baseline: the one shape case decided on a grid
    return _mphrs_pair(BaselineSpec("weibull", (1.0, 0.8)), alpha=3.0)


#: One pair per ROUTES row; a row added without a pair fails below.
ROUTE_PAIRS = {"theorem1": _mphrs_probe_pair, "theorem2": _location_pair,
               "prop_mphrs": _mphrs_pair, "prop_ls": _ls_pair}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_verify_reports_the_shape_deciders_record(route):
    sx, sy = ROUTE_PAIRS[route]()
    sign = ROUTES[route].sign
    want = (check_dpfr(sx.model.baseline) if sign is None
            else survival_shape(sx.model, sign, FAST.shape_x_grid))
    assert verify(route, sx, sy, FAST).checks[3] == want


def test_prop_ls_dpfr_fails_and_exponential_example():
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    m = SemiParamModel("ls", b, lam=1.0)
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    sx = SystemSpec(3, m, (0.3, 0.8, 1.5), gen)
    sy = SystemSpec(3, m, (0.5, 0.8, 1.0), gen)
    rep = verify_prop_ls(sx, sy, FAST)
    assert not rep.overall
    assert not rep.check("baseline_dpfr").holds
    # weibull shape 2 also fails (x*h = 2x^2/scale^2 increasing)
    m2 = SemiParamModel("ls", BaselineSpec("weibull", (1.0, 2.0)), lam=1.0)
    sx2 = SystemSpec(2, m2, (0.5, 2.0), gen)
    sy2 = SystemSpec(2, m2, (1.0, 1.0), gen)
    rep2 = verify_prop_ls(sx2, sy2, FAST)
    assert not rep2.check("baseline_dpfr").holds


def test_prop_ls_dpfr_fails_with_its_proof_on_burr():
    # the former grid probe certified DPFR for burr(0.1486, 0.1756) on
    # x in [9.3e102, 9.3e114], a window left by its hi * 1e-12 floor where
    # x*h(x) = ck/(1 + x^-c) is flat to 5e-16; x*h rises from 0 below it, as
    # it must for every lifetime law
    m = SemiParamModel("ls", BaselineSpec("burr", (0.1486, 0.1756)), lam=0.5)
    gen = GeneratorSpec("independence")
    rep = verify_prop_ls(SystemSpec(3, m, (0.5, 1.0, 2.0), gen),
                         SystemSpec(3, m, (1.0, 1.5, 2.5), gen))
    assert not rep.overall and rep.dominance is None
    assert [c.name for c in rep.checks if not c.holds] == ["baseline_dpfr"]
    assert rep.check("baseline_dpfr").evidence == (
        "burr: no lifetime law with S(0) = 1 has x*h(x) nonincreasing on (0, inf); "
        "x*h >= c > 0 on (0, x0] makes the integral of h over (eps, x0) at least "
        "c log(x0/eps), which diverges as eps -> 0, so S(x0) = 0")


def test_theorem1_ls_below_lambda_is_not_a_certificate():
    # the former probe's shape grid [0.022, 0.650] lay below lambda, where
    # every survival is 1, and passed with "worst violation 0"; weibull
    # shape 2.609 has an increasing hazard
    m = SemiParamModel("ls", BaselineSpec("weibull", (0.310, 2.609)), lam=0.781)
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    rep = verify_theorem1(SystemSpec(3, m, (0.5, 1.0, 2.0), gen),
                          SystemSpec(3, m, (1.0, 1.5, 2.5), gen), FAST)
    assert not rep.overall and rep.dominance is None
    assert [c.name for c in rep.checks if not c.holds] == ["survival_shape"]
    assert rep.check("survival_shape").evidence == (
        "ls: nonincreasing in theta; weibull shape 2.609 > 1")


def test_verify_evidence_names_the_deciding_rules():
    sx, sy = gumbel_barnett_pair()
    rep = verify_theorem1(sx, sy, FAST)
    assert rep.check("survival_shape").evidence == (
        "scale: nonincreasing in theta; exp_weibull alpha 0.9 <= 1; alpha*beta 0.81 <= 1")
    assert rep.check("generator_log_concave").evidence == (
        "shape=log_concave: log psi = (1 - e^t)/theta is concave")


def test_prop_ls_mismatched_lambda_fails_shared_model():
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    sx = SystemSpec(2, SemiParamModel("ls", b, lam=1.0), (0.5, 1.0), gen)
    sy = SystemSpec(2, SemiParamModel("ls", b, lam=2.0), (0.5, 1.0), gen)
    rep = verify_prop_ls(sx, sy, FAST)
    assert not rep.overall and rep.dominance is None
    assert [c.name for c in rep.checks if not c.holds] == ["shared_model", "baseline_dpfr"]
    assert rep.check("shared_model").evidence == (
        "{'kind': 'ls', 'baseline': {'family': 'gen_gamma', 'params': [0.5, 0.5]}, "
        "'fixed': {'lambda': 1.0}} vs {'kind': 'ls', 'baseline': {'family': "
        "'gen_gamma', 'params': [0.5, 0.5]}, 'fixed': {'lambda': 2.0}}")


def test_verify_shared_model_evidence_names_both_models():
    gen = GeneratorSpec("clayton", 2.0)
    sx, sy = (SystemSpec(3, SemiParamModel("scale", BaselineSpec("weibull", (1.0, shape))),
                         (0.5, 1.0, 2.0), gen) for shape in (0.8, 0.7))
    rep = verify_theorem1(sx, sy, FAST)
    assert not rep.check("shared_model").holds
    assert rep.check("shared_model").evidence == (
        "{'kind': 'scale', 'baseline': {'family': 'weibull', 'params': [1.0, 0.8]}} vs "
        "{'kind': 'scale', 'baseline': {'family': 'weibull', 'params': [1.0, 0.7]}}")


def test_ls_survival_flat_below_location():
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    m = SemiParamModel("ls", b, lam=1.0)
    from failsafekit import sp_survival
    assert sp_survival(m, 0.5, 2.0) == 1.0
    assert sp_survival(m, 1.0, 2.0) == 1.0


# ------------------------------------- verdicts on multi-block grids
# A grid wider than one kernel block is evaluated in two passes; the verdict
# must equal the one from every point of the grid, field for field.
LOG_CONCAVE = (GeneratorSpec("gumbel_barnett", 0.5), GeneratorSpec("gumbel_hougaard", 2.0),
               GeneratorSpec("amh", -0.5))
DFR_BASELINES = (BaselineSpec("exp_weibull", (0.6, 0.45)), BaselineSpec("gen_pareto", (1.7,)),
                 BaselineSpec("burr", (0.7, 1.9)), BaselineSpec("gen_gamma", (0.9, 0.35)))
# theorem-2 pairs over location gen_pareto(1) under clayton(2), whose
# hypotheses hold: Y above X, and a crossing
T2_Y_ABOVE = ((1.56, 0.58, 0.26, 0.12, 0.37, 0.4, 0.12, 0.12, 2.99, 0.92, 0.22),
              (0.44, 2.75, 2.12, 1.77, 0.38, 0.53, 1.0, 0.12, 0.66, 0.25, 1.99))
T2_CROSSING = ((0.12, 1.01, 1.93, 0.22, 2.1, 1.94, 0.11, 1.11, 0.1, 0.55, 0.44, 0.2),
               (0.3, 1.55, 0.29, 0.17, 1.08, 0.46, 1.51, 0.22, 0.3, 1.52, 0.56, 0.56))


def _scale_pair(rng, baseline, gen, n):
    """X log-uniform in [0.1, 3] and Y = X with every entry scaled by >= 1:
    the theorem-1 hypotheses hold under a log-concave generator."""
    a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
    m = SemiParamModel("scale", baseline)
    return (SystemSpec(n, m, tuple(a.tolist()), gen),
            SystemSpec(n, m, tuple((a * rng.uniform(1.0, 2.0, n)).tolist()), gen))


def _verified(route, sx, sy, policy=GridPolicy()):
    """The dominance verify reports, or attaches to its InconsistencyError."""
    try:
        return verify(route, sx, sy, policy).dominance
    except InconsistencyError as exc:
        return exc.report.dominance


def _full_grid(sx, sy, policy=GridPolicy()):
    xs = policy.curve_grid(sx.model, sx.theta, sy.theta)
    return compare_curves(*curves((sx, sy), xs), policy)


@pytest.mark.parametrize("baseline", DFR_BASELINES, ids=lambda b: b.family)
def test_large_verdicts_equal_the_full_grid_over_each_dfr_baseline(baseline):
    rng = np.random.default_rng(list(map(ord, baseline.family)))
    for gen in LOG_CONCAVE:
        for _ in range(2):
            sx, sy = _scale_pair(rng, baseline, gen, int(rng.integers(20, 51)))
            assert systems._block_columns(sx.n, 2) < GridPolicy().curve_points
            got = _verified("theorem1", sx, sy)
            assert got is not None and got == _full_grid(sx, sy)
            # swapped, the preorder fails and verify draws no curve, so the
            # engine it calls is compared directly
            xs = GridPolicy().curve_grid(sx.model, sy.theta, sx.theta)
            swapped = _grid_verdict((sy, sx), xs, GridPolicy())
            assert swapped == _full_grid(sy, sx)
            assert swapped.relation is Relation.Y_DOMINATES_X


def test_large_verdict_of_identical_systems_ties_as_the_full_grid():
    sx, _ = _scale_pair(np.random.default_rng(8), DFR_BASELINES[2], LOG_CONCAVE[1], 30)
    got = _verified("theorem1", sx, sx)
    assert got == _full_grid(sx, sx)
    assert got.relation is Relation.TIES_WITHIN_TOL and got.min_gap == got.max_gap == 0.0


@pytest.mark.parametrize("thetas, relation", [(T2_Y_ABOVE, Relation.Y_DOMINATES_X),
                                              (T2_CROSSING, Relation.CROSSING)])
def test_large_inconsistent_verdicts_equal_the_full_grid(thetas, relation):
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    sx, sy = (SystemSpec(len(t), m, t, GeneratorSpec("clayton", 2.0)) for t in thetas)
    assert sx.n >= 9 and systems._block_columns(sx.n, 2) < GridPolicy().curve_points
    got = _verified("theorem2", sx, sy)
    assert got == _full_grid(sx, sy)
    assert got.relation is relation and bool(got.crossings) == (relation is Relation.CROSSING)


def test_small_system_on_a_fine_grid_equals_the_full_grid():
    policy = GridPolicy(curve_points=5000)
    sx, sy = _scale_pair(np.random.default_rng(5), DFR_BASELINES[0], LOG_CONCAVE[0], 5)
    assert systems._block_columns(5, 2) < policy.curve_points
    assert _verified("theorem1", sx, sy, policy) == _full_grid(sx, sy, policy)


def test_verdicts_equal_the_full_grid_at_one_block_and_just_past_it():
    n = 9
    sx, sy = _scale_pair(np.random.default_rng(9), DFR_BASELINES[3], LOG_CONCAVE[2], n)
    for points in (systems._block_columns(n, 2), systems._block_columns(n, 2) + 1):
        policy = GridPolicy(curve_points=points)
        assert _verified("theorem1", sx, sy, policy) == _full_grid(sx, sy, policy)


#: one DFR baseline per family, and one generator per family, with amh on
#: the side of 0 whose log-shape the route's generator hypothesis asks for
DFR_BY_FAMILY = {"exponential": (1.3,), "weibull": (1.2, 0.8), "gamma": (0.7, 1.5),
                 "exp_weibull": (0.6, 0.45), "burr": (0.7, 1.9), "gen_pareto": (1.7,),
                 "gen_gamma": (0.9, 0.35)}
GENERATOR_THETAS = {"independence": None, "clayton": 2.0, "gumbel": 1.5, "frank": 4.0,
                    "amh": 0.5, "gumbel_barnett": 0.5, "gumbel_hougaard": 2.0}
KIND_FIXED = {"scale": {}, "phr": {}, "location": {}, "mphrs": {"alpha": 0.6, "lam": 1.3},
              "ls": {"lam": 0.3}}


@pytest.mark.parametrize("kind", sorted(KIND_FIXED))
def test_one_block_verdicts_equal_the_full_grid_over_every_family(kind):
    # verify's one-block path builds no curve and copies no grid; its verdict
    # must equal compare_curves on the curves of the same grid, field for
    # field, for every generator and baseline family.  X's entries lie below
    # Y's, so X is p-larger (theorem 1) and reciprocally majorizes Y (theorem
    # 2); where the generator hypothesis fails, verify draws no curve and the
    # engine it calls is compared directly
    route = "theorem2" if kind == "location" else "theorem1"
    rng = np.random.default_rng(list(map(ord, kind)))
    policy, reached = GridPolicy(), 0
    for family, theta in GENERATOR_THETAS.items():
        if family == "amh" and route == "theorem1":
            theta = -theta
        gen = GeneratorSpec(family, theta)
        for baseline, params in DFR_BY_FAMILY.items():
            m = SemiParamModel(kind, BaselineSpec(baseline, params), **KIND_FIXED[kind])
            n = int(rng.integers(3, 6))
            a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
            sx = SystemSpec(n, m, tuple(a.tolist()), gen)
            sy = SystemSpec(n, m, tuple((a * rng.uniform(1.0, 2.0, n)).tolist()), gen)
            xs = policy.curve_grid(m, sx.theta, sy.theta)
            assert systems._block_columns(n, 2) >= xs.size
            want = compare_curves(*curves((sx, sy), xs), policy)
            got = _verified(route, sx, sy, policy)
            if got is None:
                got = _grid_verdict((sx, sy), xs, policy)
            else:
                reached += 1
            assert got == want, (family, baseline)
    # every baseline family under each generator family of the route's shape
    assert reached == len(DFR_BY_FAMILY) * (5 if route == "theorem2" else 4)


@pytest.mark.parametrize("n", [4, 30], ids=["one-block", "two-pass"])
@pytest.mark.parametrize("grid", [[0.5, 1.0, 1.0, 2.0], [0.5, 2.0, 1.0, 3.0], [0.5, np.nan, 1.0],
                                  [0.0, 1.0, 2.0]], ids=["tie", "unsorted", "nan", "zero"])
def test_verify_refuses_a_policy_grid_that_is_not_strictly_increasing(monkeypatch, n, grid):
    # the verdict checks the policy grid once, without a copy, on both paths
    sx, sy = _scale_pair(np.random.default_rng(n), DFR_BASELINES[1], LOG_CONCAVE[0], n)
    width = 2 * systems._block_columns(n, 2) if n == 30 else 0
    xs = np.concatenate([np.array(grid, dtype=float), np.geomspace(10.0, 20.0, width)])
    monkeypatch.setattr(GridPolicy, "curve_grid", lambda self, model, *thetas: xs.copy())
    assert (systems._block_columns(n, 2) < xs.size) == (n == 30)
    with pytest.raises(ValidationError) as err:
        verify("theorem1", sx, sy)
    assert str(err.value) == "xs must be a strictly increasing positive grid of length >= 2"


@pytest.mark.parametrize("n", [4, 30], ids=["one-block", "two-pass"])
@pytest.mark.parametrize("damage, message", [
    (lambda v: v + 0.01, "survival values leave [0, 1] or are NaN"),
    (lambda v: np.where(v < 0.5, np.nan, v), "survival values leave [0, 1] or are NaN"),
    (lambda v: v[:, ::-1].copy(), "survival values are not nonincreasing"),
], ids=["above-1", "nan", "rising"])
def test_verify_refuses_kernel_values_that_fail_the_curve_checks(monkeypatch, n, damage, message):
    # no SurvivalCurve is built on either path, so the verdict runs its
    # checks on the kernel's rows itself
    kernel = systems._survivals
    monkeypatch.setattr(ordering, "_survivals", lambda specs, x: damage(kernel(specs, x)))
    sx, sy = _scale_pair(np.random.default_rng(n), DFR_BASELINES[1], LOG_CONCAVE[0], n)
    with pytest.raises(ValidationError) as err:
        verify("theorem1", sx, sy)
    assert str(err.value) == message


def test_only_a_multi_block_grid_skips_points(monkeypatch):
    sizes = []
    kernel = systems._survivals

    def counting(specs, x):
        sizes.append(x.size)
        return kernel(specs, x)

    # curves calls the kernel of systems, the second pass the name ordering imported
    monkeypatch.setattr(systems, "_survivals", counting)
    monkeypatch.setattr(ordering, "_survivals", counting)
    rng = np.random.default_rng(4)
    small = _scale_pair(rng, DFR_BASELINES[1], LOG_CONCAVE[1], 4)
    assert verify("theorem1", *small).dominance.grid_size == 1000
    assert sizes == [1000]
    sizes.clear()
    large = _scale_pair(rng, DFR_BASELINES[1], LOG_CONCAVE[1], 40)
    dom = verify("theorem1", *large).dominance
    assert dom.relation is Relation.X_DOMINATES_Y and dom.grid_size == 1000
    assert len(sizes) == 2 and sum(sizes) < 1000


# ------------------------------------------------------------ Schur probe
def test_schur_probe_zero_at_symmetric_point():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    sysd = SystemSpec(3, m, (1.5, 1.5, 1.5), GeneratorSpec("clayton", 2.0))
    assert schur_condition_probe(sysd, xs=FAST.curve_grid(m, sysd.theta)) == 0.0


@pytest.mark.parametrize("pair", [gumbel_barnett_pair, clayton_pair])
def test_schur_probe_defaults_to_the_default_grid(pair):
    sx, _ = pair()
    assert schur_condition_probe(sx) == schur_condition_probe(sx, xs=default_grid(sx))


def test_schur_probe_negative_at_first_demo():
    # the proof inequality fails at the demo's own configuration: the
    # largest-parameter partial outweighs the smallest-parameter one near
    # the lifetime bulk (measured about -0.166 at pair (1,5))
    sx, _ = gumbel_barnett_pair()
    worst = schur_condition_probe(sx, xs=demo_grid(200))
    assert worst < -0.1


def test_schur_probe_negative_at_clayton_demo():
    sx, _ = clayton_pair()
    worst = schur_condition_probe(sx, xs=demo_grid(200))
    assert worst < -1e-3


def test_schur_probe_step_validation():
    sx, _ = gumbel_barnett_pair()
    with pytest.raises(ValidationError):
        schur_condition_probe(sx, step=1e-12, xs=demo_grid(50))


@pytest.mark.parametrize("step, message", [
    (True, "step must be a number, got True"),
    ("1e-5", "step must be a number, got '1e-5'"),
    (np.nan, "step must be finite and at least 1e-9, got nan"),
    (np.inf, "step must be finite and at least 1e-9, got inf"),
    (1e-12, "step must be finite and at least 1e-9, got 1e-12"),
], ids=["bool", "string", "nan", "inf", "below-minimum"])
def test_schur_probe_refuses_a_malformed_step(step, message):
    # NaN and inf failed later as a theta outside the scale domain
    sx, _ = gumbel_barnett_pair()
    with pytest.raises(ValidationError) as err:
        schur_condition_probe(sx, step=step, xs=demo_grid(50))
    assert str(err.value) == message


def test_report_json_shapes():
    sx, sy = gumbel_barnett_pair()
    rep = verify_theorem1(sx, sy, FAST)
    blob = rep.to_json()
    assert blob["overall"] is True
    assert blob["dominance"]["relation"] == "x_dominates_y"
    assert {c["name"] for c in blob["checks"]} == {
        "shared_generator", "shared_model", "generator_log_concave",
        "survival_shape", "p_larger"}


# ------------------------------------------------- bitwise verdict pins
# Verdicts pinned by float.hex, so a change to the survival kernel, the
# bulk grid, the marginals or the comparison that moves any bit shows here.
# Every audit baseline family (gen_gamma once with a = q/p below 1 and once
# above, so both its series and its fraction run element by element in the
# n = 4 bulk quantiles and as vectors on the grid) under each log-concave
# generator, at n = 4 and n = 30, and the README's theorem-2 crossing.
PIN_BASELINES = {
    "exp_weibull": BaselineSpec("exp_weibull", (0.6, 0.45)),
    "gen_pareto": BaselineSpec("gen_pareto", (1.7,)),
    "burr": BaselineSpec("burr", (0.7, 1.9)),
    "gen_gamma_a_lt_1": BaselineSpec("gen_gamma", (0.9, 0.35)),
    "gen_gamma_a_gt_1": BaselineSpec("gen_gamma", (0.4, 0.95)),
}
PIN_GENERATORS = {
    "gumbel_barnett": GeneratorSpec("gumbel_barnett", 0.5),
    "gumbel_hougaard": GeneratorSpec("gumbel_hougaard", 2.0),
    "amh": GeneratorSpec("amh", -0.5),
}
VERDICT_PINS = {
    ('exp_weibull', 'gumbel_barnett', 4): ('y_dominates_x', '-0x1.13451b6305c60p-3', '-0x0.00000000042d9p-1022', ()),
    ('exp_weibull', 'gumbel_barnett', 30): ('y_dominates_x', '-0x1.144c5e5791f80p-5', '0x0.0p+0', ()),
    ('exp_weibull', 'gumbel_hougaard', 4): ('x_dominates_y', '0x1.451c3dee3c7a3p-82', '0x1.8ea53e7bfb8a8p-5', ()),
    ('exp_weibull', 'gumbel_hougaard', 30): ('y_dominates_x', '-0x1.5622d9517b200p-8', '0x0.0p+0', ()),
    ('exp_weibull', 'amh', 4): ('x_dominates_y', '0x1.48d8b60974396p-42', '0x1.07f44eff18484p-4', ()),
    ('exp_weibull', 'amh', 30): ('y_dominates_x', '-0x1.ab7c330a8fdc0p-5', '-0x1.f0e90b2de5160p-725', ()),
    ('gen_pareto', 'gumbel_barnett', 4): ('x_dominates_y', '0x1.6948e0bbc02acp-283', '0x1.53de184548872p-3', ()),
    ('gen_pareto', 'gumbel_barnett', 30): ('x_dominates_y', '0x0.0p+0', '0x1.4224fe9ade0a8p-2', ()),
    ('gen_pareto', 'gumbel_hougaard', 4): ('x_dominates_y', '0x1.96fd2fc058017p-63', '0x1.4d7a69f81f77dp-2', ()),
    ('gen_pareto', 'gumbel_hougaard', 30): ('x_dominates_y', '0x0.0p+0', '0x1.4e4beccb6dcf0p-3', ()),
    ('gen_pareto', 'amh', 4): ('crossing', '-0x1.bc42540083000p-11', '0x1.98c00e6244760p-5', (('0x1.bda49de8c7fb0p-3', '0x1.c72bddfaa0a3cp-3'),)),
    ('gen_pareto', 'amh', 30): ('y_dominates_x', '-0x1.d7c77326cd300p-4', '-0x1.df4f1793aba85p-341', ()),
    ('burr', 'gumbel_barnett', 4): ('crossing', '-0x1.ac75d26178ef0p-15', '0x1.51794bebb5dd0p-5', (('0x1.bd77a292e8a28p+0', '0x1.c5d4bdd3ee15cp+0'),)),
    ('burr', 'gumbel_barnett', 30): ('x_dominates_y', '0x0.0p+0', '0x1.3705217a83b00p-7', ()),
    ('burr', 'gumbel_hougaard', 4): ('x_dominates_y', '0x1.6de3c4e8edb1dp-61', '0x1.fc83bee19b7d4p-3', ()),
    ('burr', 'gumbel_hougaard', 30): ('x_dominates_y', '0x0.0p+0', '0x1.44ed08564f580p-4', ()),
    ('burr', 'amh', 4): ('y_dominates_x', '-0x1.44e97bb479330p-5', '-0x1.44d6e35840420p-40', ()),
    ('burr', 'amh', 30): ('x_dominates_y', '0x1.a2b7cb90c51d9p-388', '0x1.630371d1ba0e0p-3', ()),
    ('gen_gamma_a_lt_1', 'gumbel_barnett', 4): ('x_dominates_y', '0x1.eede281de363fp-560', '0x1.966122ee23a1bp-2', ()),
    ('gen_gamma_a_lt_1', 'gumbel_barnett', 30): ('x_dominates_y', '0x0.0p+0', '0x1.14f12a71eaa00p-3', ()),
    ('gen_gamma_a_lt_1', 'gumbel_hougaard', 4): ('x_dominates_y', '0x1.473570f2d4facp-133', '0x1.bcf9ac2a42060p-5', ()),
    ('gen_gamma_a_lt_1', 'gumbel_hougaard', 30): ('y_dominates_x', '-0x1.ff4766824f1c0p-5', '0x0.0p+0', ()),
    ('gen_gamma_a_lt_1', 'amh', 4): ('y_dominates_x', '-0x1.db2883edf66f8p-5', '-0x1.2d36061e88b5cp-58', ()),
    ('gen_gamma_a_lt_1', 'amh', 30): ('x_dominates_y', '0x1.be58f3d37b792p-1012', '0x1.3757e69317cd0p-3', ()),
    ('gen_gamma_a_gt_1', 'gumbel_barnett', 4): ('x_dominates_y', '0x1.cacb566a30d2fp-475', '0x1.703a8133fdf9ep-2', ()),
    ('gen_gamma_a_gt_1', 'gumbel_barnett', 30): ('x_dominates_y', '0x0.0p+0', '0x1.9baf97c15bdc0p-5', ()),
    ('gen_gamma_a_gt_1', 'gumbel_hougaard', 4): ('x_dominates_y', '0x1.922b19fe64069p-74', '0x1.f28a45542d644p-2', ()),
    ('gen_gamma_a_gt_1', 'gumbel_hougaard', 30): ('y_dominates_x', '-0x1.234413a6c8fc0p-5', '0x0.0p+0', ()),
    ('gen_gamma_a_gt_1', 'amh', 4): ('y_dominates_x', '-0x1.5f669bc49c73dp-2', '-0x1.f950dae9ae1adp-40', ()),
    ('gen_gamma_a_gt_1', 'amh', 30): ('x_dominates_y', '0x1.e42b0b9d7dc9cp-757', '0x1.8773975bd76c0p-5', ()),
    'readme_t2': ('crossing', '-0x1.daf8b9d215c00p-6', '0x1.b850f4edd64c0p-6', (('0x1.a2200a7bf5cc0p+1', '0x1.a506f7b442ebap+1'),)),
}


def _pin(v):
    return (v.relation.value, v.min_gap.hex(), v.max_gap.hex(),
            tuple((a.hex(), b.hex()) for a, b in v.crossings))


def _pin_pair(base, gen, n):
    """Two scale systems with thetas log-uniform in [0.1, 3], seeded per case."""
    rng = np.random.default_rng([n, list(PIN_BASELINES).index(base),
                                 list(PIN_GENERATORS).index(gen)])
    m = SemiParamModel("scale", PIN_BASELINES[base])
    ta, tb = np.exp(rng.uniform(np.log(0.1), np.log(3.0), (2, n)))
    return (SystemSpec(n, m, tuple(ta.tolist()), PIN_GENERATORS[gen]),
            SystemSpec(n, m, tuple(tb.tolist()), PIN_GENERATORS[gen]))


@pytest.mark.parametrize("case", [k for k in VERDICT_PINS if k != "readme_t2"],
                         ids=lambda k: "-".join(map(str, k)))
def test_verdict_bits_pinned(case):
    # the verdict an audit op reaches once its hypotheses hold: both curves
    # on the policy grid, compared under the default tolerances
    sx, sy = _pin_pair(*case)
    xs = GridPolicy().curve_grid(sx.model, sx.theta, sy.theta)
    assert _pin(compare_curves(*curves((sx, sy), xs))) == VERDICT_PINS[case]


def test_readme_theorem2_crossing_bits_pinned():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    with pytest.raises(InconsistencyError) as exc:
        verify_theorem2(SystemSpec(3, m, (1.0, 2.0, 4.0), gen),
                        SystemSpec(3, m, (1.5, 2.0, 3.0), gen))
    assert _pin(exc.value.report.dominance) == VERDICT_PINS["readme_t2"]


def test_schur_probe_refuses_a_nonpositive_theta():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    for theta in ((-0.5, 1.0, 2.0), (0.0, 1.0, 2.0)):
        with pytest.raises(ValidationError) as err:
            schur_condition_probe(SystemSpec(3, m, theta, GeneratorSpec("clayton", 2.0)))
        assert str(err.value) == f"log-parameter probe theta must be positive and finite, got {theta[0]}"


def test_condition_report_refuses_an_unknown_check():
    report = ConditionReport("theorem1", (), False, None)
    with pytest.raises(KeyError) as err:
        report.check("condition_9")
    assert err.value.args == ("condition_9",)
