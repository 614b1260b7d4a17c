"""Proven results as controls for the audit engine.

Each control is a configuration whose conclusion is known to hold, so a
refutation there would be the engine's fault, not the theorem's: seeded
randomized draws with no violation tolerated beyond the verdict slack.
Control f is two-sided: a proven threshold, below which the engine must
refute.  Controls h and i are proven refutations: the encoded theorem-1
(h) and theorem-2 (i) rows pass every hypothesis on them, so the engine
must raise InconsistencyError, and a certificate there would be the
engine's fault.
"""

import math

import numpy as np
import pytest

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    GridPolicy,
    InconsistencyError,
    Preorder,
    Relation,
    SemiParamModel,
    SystemSpec,
    compare_curves,
    curves,
    holds,
    homogeneous_x2n,
    sp_survival,
    survival_x2n,
    verify_theorem1,
    verify_theorem2,
)
from failsafekit.generators import FAMILIES
from failsafekit.models import _KIND_MAP, inverse_log_sf

POLICY = GridPolicy()
DFR_AND_IFR_BASELINES = (
    BaselineSpec("exponential", (1.0,)),
    BaselineSpec("weibull", (1.0, 0.7)),
    BaselineSpec("weibull", (1.0, 2.0)),
    BaselineSpec("gamma", (2.0, 1.0)),
)


def _verdict(sx, sy):
    xs = POLICY.curve_grid(sx.model, sx.theta, sy.theta)
    return compare_curves(*curves((sx, sy), xs), POLICY)


def _more_even(rng, lam):
    """lam times a random doubly stochastic matrix, a mix of permutations
    (Birkhoff), so lam majorizes the result."""
    weights = rng.dirichlet(np.ones(3))
    return sum(w * lam[rng.permutation(lam.size)] for w in weights)


def test_a_majorized_hazards_under_independence():
    # Pledger & Proschan (1971); Proschan & Sethuraman (1976, J. Multivariate
    # Anal. 6:608): independent proportional hazards, lambda majorizing
    # lambda*, give X_{2:n} >=_st Y_{2:n}
    rng = np.random.default_rng(8)
    gen = GeneratorSpec("independence")
    for i in range(200):
        n = int(rng.integers(2, 8))
        lam = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        lam_star = _more_even(rng, lam)
        assert holds(Preorder.MAJORIZE, lam, lam_star)
        model = SemiParamModel("phr", DFR_AND_IFR_BASELINES[i % len(DFR_AND_IFR_BASELINES)])
        sx = SystemSpec(n, model, tuple(lam.tolist()), gen)
        sy = SystemSpec(n, model, tuple(lam_star.tolist()), gen)
        v = _verdict(sx, sy)
        assert v.relation in (Relation.X_DOMINATES_Y, Relation.TIES_WITHIN_TOL), (sx, sy, v)


#: One draw from each generator range the randomized audit uses.
AUDIT_GENERATORS = (
    lambda rng: GeneratorSpec("independence"),
    lambda rng: GeneratorSpec("clayton", float(rng.uniform(0.5, 6.0))),
    lambda rng: GeneratorSpec("gumbel", float(rng.uniform(1.1, 4.0))),
    lambda rng: GeneratorSpec("frank", float(rng.uniform(0.5, 8.0))),
    lambda rng: GeneratorSpec("amh", float(rng.uniform(0.0, 0.9))),
)


def test_b_componentwise_ordered_theta_couples():
    # coupling: one copula draw U gives both systems' lifetimes through
    # their quantile maps, and a componentwise larger theta moves every
    # lifetime one way (down for scale and phr, up for location), so the
    # second-smallest lifetime moves that way too, for every copula
    rng = np.random.default_rng(10)
    kinds = ("scale", "phr", "location")
    for i in range(600):
        n = int(rng.integers(2, 8))
        theta_x = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        theta_y = (theta_x * rng.uniform(1.0, 2.0, n))[rng.permutation(n)]
        kind = kinds[i % len(kinds)]
        model = SemiParamModel(kind, DFR_AND_IFR_BASELINES[i % len(DFR_AND_IFR_BASELINES)])
        gen = AUDIT_GENERATORS[i % len(AUDIT_GENERATORS)](rng)
        sx = SystemSpec(n, model, tuple(theta_x.tolist()), gen)
        sy = SystemSpec(n, model, tuple(theta_y.tolist()), gen)
        if _KIND_MAP[kind][1] == "nondecreasing":  # larger theta survives longer
            sx, sy = sy, sx
        v = _verdict(sx, sy)
        assert v.relation in (Relation.X_DOMINATES_Y, Relation.TIES_WITHIN_TOL), (sx, sy, v)


def test_c_permuted_theta_ties():
    # Archimedean copulas are exchangeable, so permuting theta changes no
    # survival; the sums run in component order, so the gaps are rounding
    rng = np.random.default_rng(9)
    for i in range(100):
        n = int(rng.integers(2, 8))
        theta = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        gen = GeneratorSpec("gumbel", float(rng.uniform(1.1, 4.0)))
        model = SemiParamModel("scale", DFR_AND_IFR_BASELINES[i % len(DFR_AND_IFR_BASELINES)])
        sx = SystemSpec(n, model, tuple(theta.tolist()), gen)
        sy = SystemSpec(n, model, tuple(theta[rng.permutation(n)].tolist()), gen)
        v = _verdict(sx, sy)
        assert v.relation is Relation.TIES_WITHIN_TOL, (sx, sy, v)


#: A parameter inside each generator family's range.
FAMILY_THETAS = {"independence": None, "clayton": 2.0, "gumbel": 2.0, "frank": 4.0,
                 "amh": 0.5, "gumbel_barnett": 0.3, "gumbel_hougaard": 1.5}


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("family", FAMILIES)
def test_e_equal_theta_is_the_homogeneous_closed_form(family, n):
    gen = GeneratorSpec(family, FAMILY_THETAS[family])
    for b in DFR_AND_IFR_BASELINES:
        model = SemiParamModel("scale", b)
        sysd = SystemSpec(n, model, (1.7,) * n, gen)
        xs = POLICY.curve_grid(model, sysd.theta)
        want = homogeneous_x2n(gen, sp_survival(model, xs, 1.7), n)
        np.testing.assert_allclose(survival_x2n(sysd, xs), want, rtol=0.0, atol=1e-13)


def test_f_paltanea_threshold_under_independence():
    # Paltanea (2008, J. Statist. Plann. Inference 138:1993): independent
    # exponential components with rates lambda, against n of rate mu, give
    # X_{2:n} >=_st Y_{2:n} iff mu >= mu* = sqrt(e2(lambda) / C(n, 2)), e2 the
    # second elementary symmetric sum; 1% either side of mu* decides the verdict
    rng = np.random.default_rng(12)
    gen = GeneratorSpec("independence")
    model = SemiParamModel("phr", BaselineSpec("exponential", (1.0,)))
    for _ in range(300):
        n = int(rng.integers(2, 9))
        lam = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        e2 = (lam.sum() ** 2 - (lam ** 2).sum()) / 2.0
        mu_star = math.sqrt(e2 / math.comb(n, 2))
        sx = SystemSpec(n, model, tuple(lam.tolist()), gen)
        above = _verdict(sx, SystemSpec(n, model, (mu_star * 1.01,) * n, gen))
        assert above.relation in (Relation.X_DOMINATES_Y, Relation.TIES_WITHIN_TOL), (sx, above)
        below = _verdict(sx, SystemSpec(n, model, (mu_star * 0.99,) * n, gen))
        assert below.relation in (Relation.CROSSING, Relation.Y_DOMINATES_X), (sx, below)


#: Under phr, u_i = exp(-theta_i H(x)) with H the baseline's cumulative
#: hazard, so every baseline is one increasing time change of exponential(1).
PHR_BASELINES = DFR_AND_IFR_BASELINES + (
    BaselineSpec("gen_pareto", (1.0,)),
    BaselineSpec("gen_pareto", (3.0,)),
    BaselineSpec("burr", (2.0, 1.0)),
    BaselineSpec("burr", (0.5, 0.5)),
)
#: Gaps at one cumulative hazard may differ by the rounding of the survival
#: kernel and of H(H^-1(h)) alone; the largest measured was 7.1e-15.
TIME_CHANGE_GAP_TOL = 1e-13


def test_g_phr_verdicts_do_not_depend_on_the_baseline():
    # a time change moves no relation: the bulk quantiles sit at one H for
    # every baseline, so each grid spans one cumulative-hazard range, and
    # the gaps at a shared H agree up to rounding
    rng = np.random.default_rng(11)
    h = np.geomspace(1e-4, 30.0, 200)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        lam_x = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        lam_y = (lam_x * rng.uniform(0.5, 2.0, n))[rng.permutation(n)]
        for draw in AUDIT_GENERATORS:
            gen = draw(rng)
            relations, gaps = set(), []
            for b in PHR_BASELINES:
                model = SemiParamModel("phr", b)
                pair = (SystemSpec(n, model, tuple(lam_x.tolist()), gen),
                        SystemSpec(n, model, tuple(lam_y.tolist()), gen))
                relations.add(_verdict(*pair).relation)
                cx, cy = curves(pair, inverse_log_sf(b, -h))
                gaps.append(cx.values - cy.values)
            assert len(relations) == 1, (lam_x, lam_y, gen, relations)
            spread = max(np.abs(g - gaps[0]).max() for g in gaps)
            assert spread <= TIME_CHANGE_GAP_TOL, (lam_x, lam_y, gen, spread)


@pytest.mark.parametrize("kind", ["phr", "scale"])
@pytest.mark.parametrize("theta, relation, min_gap", [
    ((1.0, 2.0, 3.0), Relation.CROSSING, -1.868e-2),
    ((0.5, 1.0, 4.0, 6.0), Relation.Y_DOMINATES_X, -0.1507),
], ids=["n3", "n4"])
def test_h_theorem1_row_fails_against_the_geometric_mean(kind, theta, relation, min_gap):
    # near x = 0, 1 - S_{2:n} = kappa e2(a) + o(|a|^2) with a_i = 1 - u_i(x)
    # and kappa = psi''(0) / psi'(0)^2, which is 1 under independence; over
    # exponential(1) both kinds give u_i = exp(-theta_i x), so a_i ~ theta_i x.
    # theta is p-larger than (g, ..., g) at its geometric mean g (the full
    # products are equal), yet e2(theta) > C(n, 2) g^2 by Maclaurin's
    # inequality, so F_X > F_Y near 0 and X does not dominate Y
    n = len(theta)
    g = math.prod(theta) ** (1.0 / n)
    gen = GeneratorSpec("independence")
    model = SemiParamModel(kind, BaselineSpec("exponential", (1.0,)))
    sx = SystemSpec(n, model, theta, gen)
    sy = SystemSpec(n, model, (g,) * n, gen)
    with pytest.raises(InconsistencyError) as exc:
        verify_theorem1(sx, sy)
    rep = exc.value.report
    assert rep.overall  # every hypothesis verified
    assert rep.dominance.relation is relation
    assert rep.dominance.min_gap == pytest.approx(min_gap, rel=1e-3)


#: The n-monotone range of each theorem-1 generator family at n = 3, 4, 5,
#: from ROADMAP direction 3's table: (the edge of the family's range, the
#: bound at n), so theta runs between the two (amh below 0).
N_MONOTONE_RANGES = {
    "gumbel_barnett": (0.0, {3: 0.3820, 4: 0.2227, 5: 0.1536}),
    "gumbel_hougaard": (1.0, {3: 1.4142, 4: 1.1073, 5: 1.0313}),
    "amh": (0.0, {3: -0.2679, 4: -0.1010, 5: -0.0431}),
}
#: The smallest |min gap| over the 400 draws below is 2.72e-4 (gumbel_hougaard,
#: scale over gen_pareto, n = 3); the pin sits below it.
CONTROL_H_MIN_GAP = -1e-4


def test_h_theorem1_row_fails_against_the_geometric_mean_on_a_seeded_draw():
    # the proof of the pinned cases above holds for every generator the row
    # admits (kappa > 0) and every heterogeneous theta at n >= 3: each
    # generator is drawn from 5-95% of its n-monotone range, so every draw
    # is a probability model, and each kind and baseline passes the rest
    rng = np.random.default_rng(131)
    families = ("independence",) + tuple(N_MONOTONE_RANGES)
    for i in range(400):
        n = int(rng.integers(3, 6))
        family = families[i % len(families)]
        if family == "independence":
            gen = GeneratorSpec(family)
        else:
            edge, bound = N_MONOTONE_RANGES[family]
            gen = GeneratorSpec(family, edge + float(rng.uniform(0.05, 0.95)) * (bound[n] - edge))
        base = (BaselineSpec("exponential", (1.0,)) if i // 8 % 2 == 0
                else BaselineSpec("gen_pareto", (float(rng.uniform(0.2, 3.0)),)))
        model = SemiParamModel(("scale", "phr")[i // 4 % 2], base)
        theta = tuple(np.exp(rng.uniform(math.log(0.2), math.log(5.0), n)).tolist())
        g = math.prod(theta) ** (1.0 / n)
        sx, sy = SystemSpec(n, model, theta, gen), SystemSpec(n, model, (g,) * n, gen)
        with pytest.raises(InconsistencyError) as exc:
            verify_theorem1(sx, sy)
        rep = exc.value.report
        assert rep.overall, (sx, sy)
        assert rep.dominance.min_gap < CONTROL_H_MIN_GAP, (sx, sy, rep.dominance)


#: The smallest |min gap| over the 200 draws below is 1.30e-2 (independence,
#: location over gen_pareto(1), n = 2); the pin sits below it.
CONTROL_I_MIN_GAP = -5e-3


def test_i_theorem2_row_fails_on_componentwise_ordered_theta():
    # coupling, as in control b: a location model gives X_i = a_i + Z_i and
    # Y_i = b_i + Z_i from one copula draw Z, so a <= b componentwise gives
    # X_{2:n} <= Y_{2:n} pathwise, for every copula.  Sorted, a is still below
    # b entry by entry, so 1/a is above 1/b and a reciprocally majorizes b.
    # Every generator drawn is completely monotone and log-convex, and
    # location over a DFR baseline meets the shape condition, so each draw is
    # a valid model on which the row claims X dominates Y, and Y does
    rng = np.random.default_rng(17)
    bases = (BaselineSpec("gen_pareto", (1.0,)), BaselineSpec("weibull", (1.0, 0.6)))
    for i in range(200):
        n = int(rng.integers(2, 8))
        a = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n))
        up = rng.uniform(1.0, 2.0, n)
        up[rng.random(n) < 1 / 3] = 1.0  # some entries stay equal
        up[rng.integers(n)] = rng.uniform(1.0, 2.0)  # and one moves, so a != b
        b = (a * up)[rng.permutation(n)]
        assert holds(Preorder.RECIPROCAL_MAJORIZE, a, b)
        gen = AUDIT_GENERATORS[i % len(AUDIT_GENERATORS)](rng)
        model = SemiParamModel("location", bases[i // 5 % 2])
        sx = SystemSpec(n, model, tuple(a.tolist()), gen)
        sy = SystemSpec(n, model, tuple(b.tolist()), gen)
        with pytest.raises(InconsistencyError) as exc:
            verify_theorem2(sx, sy)
        rep = exc.value.report
        assert rep.overall, (sx, sy)
        assert rep.dominance.relation is Relation.Y_DOMINATES_X, (sx, sy, rep.dominance)
        assert rep.dominance.min_gap < CONTROL_I_MIN_GAP, (sx, sy, rep.dominance)
