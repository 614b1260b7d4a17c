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
    schur_condition_probe,
    verify_prop_ls,
    verify_prop_mphrs,
    verify_theorem1,
    verify_theorem2,
)
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair

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
    assert rep.check("survival_shape").evidence == "nonpositive theta"
    assert not rep.check("p_larger").holds
    assert rep.check("generator_log_concave").holds


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
    # (a DPFR baseline passes: see test_prop_ls_certifies_dpfr_burr)
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


def test_prop_ls_certifies_dpfr_burr():
    # burr(c, k) with c k < 1 and small c keeps x*hazard decreasing over
    # its bulk, so every hypothesis holds and dominance is confirmed
    m = SemiParamModel("ls", BaselineSpec("burr", (0.1486, 0.1756)), lam=0.5)
    gen = GeneratorSpec("independence")
    rep = verify_prop_ls(SystemSpec(3, m, (0.5, 1.0, 2.0), gen),
                         SystemSpec(3, m, (1.0, 1.5, 2.5), gen))
    assert rep.overall and all(c.holds for c in rep.checks)
    assert rep.dominance.relation is Relation.X_DOMINATES_Y


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
