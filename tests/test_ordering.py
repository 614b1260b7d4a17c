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
    default_grid,
    schur_condition_probe,
    verify_prop_ls,
    verify_prop_mphrs,
    verify_theorem1,
    verify_theorem2,
)
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair
from failsafekit.ordering import DominanceVerdict, _bracket_crossings

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
    assert rep.check("p_larger").evidence == "p_larger needs positive thetas"
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
    assert order.evidence == "reciprocal_majorize needs positive thetas"
    assert all(c.holds for c in rep.checks if c is not order)


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
def _mphrs_pair(alpha=0.5, lam=1.0):
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
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


def test_prop_mphrs_alpha_validation():
    sx, sy = _mphrs_pair(alpha=1.5)
    with pytest.raises(ValidationError):
        verify_prop_mphrs(sx, sy, FAST)


def test_prop_mphrs_wrong_kind_rejected():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    s = SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("independence"))
    with pytest.raises(ValidationError):
        verify_prop_mphrs(s, s, FAST)


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


def test_prop_ls_mismatched_lambda_rejected():
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    sx = SystemSpec(2, SemiParamModel("ls", b, lam=1.0), (0.5, 1.0), gen)
    sy = SystemSpec(2, SemiParamModel("ls", b, lam=2.0), (0.5, 1.0), gen)
    with pytest.raises(ValidationError):
        verify_prop_ls(sx, sy, FAST)


def test_ls_survival_flat_below_location():
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    m = SemiParamModel("ls", b, lam=1.0)
    from failsafekit import sp_survival
    assert sp_survival(m, 0.5, 2.0) == 1.0
    assert sp_survival(m, 1.0, 2.0) == 1.0


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


def test_report_json_shapes():
    sx, sy = gumbel_barnett_pair()
    rep = verify_theorem1(sx, sy, FAST)
    blob = rep.to_json()
    assert blob["overall"] is True
    assert blob["dominance"]["relation"] == "x_dominates_y"
    assert {c["name"] for c in blob["checks"]} == {
        "shared_generator", "shared_model", "generator_log_concave",
        "survival_shape", "p_larger"}
