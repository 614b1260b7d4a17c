"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.

Five criteria (2, 7a, 7b, 8a, 9) assert claims that the numerical audit
refutes; they are implemented exactly as stated and fail with the measured
counterevidence.  The analysis lives in the repository notes, and the
deterministic counterexamples are pinned in tests/test_ordering.py.

Criterion 7a also fails by proof, on valid models, independence included.
With a_i = 1 - u_i(x) and kappa = psi''(0) / psi'(0)^2, near x = 0
1 - S_{2:n} = kappa e2(a) + o(|a|^2), and e2(a) ~ c^2 x^(2b) e2(theta^b)
under scale (e2(theta) under phr) for a baseline with F0(t) ~ c t^b.  A
heterogeneous theta at n >= 3 is p-larger than the homogeneous vector at
its geometric mean g, yet e2(theta^b) > C(n, 2) g^(2b) by Maclaurin's
inequality, so for kappa > 0 X fails to dominate near 0.  Control h in
tests/test_controls.py pins this under independence.

Criterion 7b fails by proof on every componentwise-ordered pair, for every
copula.  Let 0 < a <= b componentwise, a != b.  Sorted, a stays below b,
so a reciprocally majorizes b.  Under location one copula draw Z gives
X_i = a_i + Z_i <= b_i + Z_i = Y_i, so X_{2:n} <= Y_{2:n} pathwise and Y
dominates X.  Control i in tests/test_controls.py pins this.
"""

import os
import time

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
    classify_log_shape,
    compare_curves,
    curve,
    empirical_survival_x2n,
    holds,
    homogeneous_x2n,
    lower_bound_plarger,
    lower_bound_rm,
    sample_lifetimes,
    schur_condition_probe,
    survival_x2n,
    verify_theorem1,
    verify_theorem2,
)
from failsafekit.cli import load_dataset_csv
from failsafekit.demos import load_reference_manifest
from failsafekit.fitlab import (
    cvm_gof,
    mle_fit,
    pseudo_observations,
    rank_models,
)
from failsafekit.generators import LogShape
from failsafekit.mcsim import sample_copula
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair
from test_systems import brute_force_x2n

FAST = GridPolicy(curve_points=300)


def _line(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {num}: {tag} - {detail}"
    print(msg)
    if not ok:
        pytest.fail(msg, pytrace=False)


# ---------------------------------------------------------------------- 1
def test_criterion_01_first_demo_dominance():
    t0 = time.perf_counter()
    sx, sy = gumbel_barnett_pair()
    xs = demo_grid(1000)
    gap = survival_x2n(sx, xs) - survival_x2n(sy, xs)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(gap >= -1e-10)) and elapsed < 1.0
    _line("01", ok,
          f"min gap {gap.min():.3e} (need >= -1e-10), {elapsed:.2f}s (need < 1s)")


# ---------------------------------------------------------------------- 2
def test_criterion_02_clayton_demo_sign_change():
    sx, sy = clayton_pair()
    xs = demo_grid(1000)
    gap = survival_x2n(sx, xs) - survival_x2n(sy, xs)
    changes = bool(gap.min() < 0.0 < gap.max())
    _line("02", changes,
          f"gap stays one-signed: min {gap.min():.3e}, max {gap.max():.3e}; "
          "the parameter vectors are componentwise ordered, so a crossing is "
          "impossible for any generator")


# ---------------------------------------------------------------------- 3
def test_criterion_03_independence_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    baselines = [BaselineSpec("exponential", (1.0,)),
                 BaselineSpec("weibull", (1.5, 0.8)),
                 BaselineSpec("gen_pareto", (1.0,))]
    for _ in range(100):
        n = int(rng.integers(2, 7))
        b = baselines[rng.integers(0, len(baselines))]
        m = SemiParamModel("scale", b)
        thetas = tuple(rng.uniform(0.3, 3.0, n))
        sysd = SystemSpec(n, m, thetas, GeneratorSpec("independence"))
        from failsafekit.models import sp_survival
        for x in rng.uniform(0.05, 3.0, 3):
            margs = [sp_survival(m, float(x), t) for t in thetas]
            err = abs(survival_x2n(sysd, float(x)) - brute_force_x2n(margs))
            worst = max(worst, err)
    _line("03", worst <= 1e-12, f"max |formula - 2^n brute force| = {worst:.2e}")


# ---------------------------------------------------------------------- 4
def test_criterion_04_monte_carlo_oracle():
    t0 = time.perf_counter()
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    sysd = SystemSpec(3, m, (1.0, 2.0, 3.0), GeneratorSpec("clayton", 2.0))
    lifetimes = sample_lifetimes(sysd, 200_000, seed=404)
    xs = np.linspace(0.05, 2.0, 20)
    dev = np.max(np.abs(empirical_survival_x2n(lifetimes, xs) - survival_x2n(sysd, xs)))
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.009 and elapsed < 10.0
    _line("04", ok, f"max |empirical - analytic| = {dev:.4f} (need <= 0.009), "
                    f"{elapsed:.1f}s (need < 10s)")


# ---------------------------------------------------------------------- 5
def test_criterion_05_preorder_chain():
    rng = np.random.default_rng(55)
    chain_violations = 0
    log_disagreements = 0
    premise_counts = {"m": 0, "ws": 0, "p": 0}

    def mix(v):
        out = np.zeros_like(v)
        for w in rng.dirichlet(np.ones(3)):
            out += w * rng.permutation(v)
        return out

    for i in range(10_000):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 5.0, n)
        mode = i % 3
        if mode == 0:
            b, a = mix(a), a  # a majorizes b
        elif mode == 1:
            b = mix(a) * rng.uniform(1.0, 1.4)  # weak super only
            a = a * rng.uniform(0.7, 1.0, n)
        else:
            b = rng.uniform(0.1, 5.0, n)
        if holds(Preorder.MAJORIZE, a, b):
            premise_counts["m"] += 1
            if not (holds(Preorder.WEAK_SUPER, a, b)
                    and holds(Preorder.P_LARGER, a, b)
                    and holds(Preorder.RECIPROCAL_MAJORIZE, a, b)):
                chain_violations += 1
        if holds(Preorder.WEAK_SUPER, a, b):
            premise_counts["ws"] += 1
            if not (holds(Preorder.P_LARGER, a, b)
                    and holds(Preorder.RECIPROCAL_MAJORIZE, a, b)):
                chain_violations += 1
        if holds(Preorder.P_LARGER, a, b):
            premise_counts["p"] += 1
            if not holds(Preorder.RECIPROCAL_MAJORIZE, a, b):
                chain_violations += 1
        if holds(Preorder.P_LARGER, a, b) != holds(
                Preorder.WEAK_SUPER, np.log(a), np.log(b)):
            log_disagreements += 1
    ok = (chain_violations == 0 and log_disagreements == 0
          and min(premise_counts.values()) > 1000)
    _line("05", ok,
          f"chain violations {chain_violations}, log-equivalence disagreements "
          f"{log_disagreements}, premise counts {premise_counts} over 10^4 pairs")


# ---------------------------------------------------------------------- 6
def test_criterion_06_generator_catalog():
    concave = [("gumbel_barnett", (0.1, 0.5, 1.0)),
               ("gumbel_hougaard", (1.5, 2.5, 4.0)),
               ("amh", (-1.0, -0.5, -0.2))]
    convex = [("clayton", (0.5, 2.0, 10.0)),
              ("gumbel", (1.5, 2.0, 3.0)),
              ("frank", (1.0, 5.0, 10.0)),
              ("amh", (0.2, 0.5, 0.8))]
    wrong = []
    for family, thetas in concave:
        for th in thetas:
            rep = classify_log_shape(GeneratorSpec(family, th))
            if rep.shape is not LogShape.LOG_CONCAVE:
                wrong.append((family, th, rep.shape.value))
    for family, thetas in convex:
        for th in thetas:
            rep = classify_log_shape(GeneratorSpec(family, th))
            if rep.shape is not LogShape.LOG_CONVEX:
                wrong.append((family, th, rep.shape.value))
    _line("06", not wrong, f"misclassified: {wrong or 'none'} over 21 catalog entries")


# ---------------------------------------------------------------------- 7
def _random_log_concave_generator(rng):
    k = rng.integers(0, 3)
    if k == 0:
        return GeneratorSpec("gumbel_barnett", float(rng.uniform(0.05, 1.0)))
    if k == 1:
        return GeneratorSpec("gumbel_hougaard", float(rng.uniform(1.1, 4.0)))
    return GeneratorSpec("amh", float(rng.uniform(-1.0, -0.05)))


def _random_dfr_baseline(rng):
    k = rng.integers(0, 4)
    if k == 0:
        return BaselineSpec("exp_weibull", (float(rng.uniform(0.3, 1.0)),
                                            float(rng.uniform(0.3, 1.0))))
    if k == 1:
        return BaselineSpec("gen_pareto", (float(rng.uniform(0.1, 3.0)),))
    if k == 2:
        return BaselineSpec("burr", (float(rng.uniform(0.3, 1.0)),
                                     float(rng.uniform(0.3, 3.0))))
    return BaselineSpec("gen_gamma", (float(rng.uniform(0.3, 1.0)),
                                      float(rng.uniform(0.3, 1.0))))


def _rejection_pair(rng, n, kind):
    for _ in range(20_000):
        a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        b = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        if np.allclose(np.sort(a), np.sort(b)):
            continue
        if holds(kind, a, b):
            return tuple(a), tuple(b)
    raise AssertionError("rejection sampler starved")


def test_criterion_07a_theorem1_randomized_soundness():
    rng = np.random.default_rng(71)
    inconsistent = 0
    passing = 0
    first = None
    while passing < 500:
        gen = _random_log_concave_generator(rng)
        model = SemiParamModel("scale", _random_dfr_baseline(rng))
        n = int(rng.integers(3, 6))
        ta, tb = _rejection_pair(rng, n, Preorder.P_LARGER)
        sx = SystemSpec(n, model, ta, gen)
        sy = SystemSpec(n, model, tb, gen)
        try:
            rep = verify_theorem1(sx, sy, FAST)
        except InconsistencyError as exc:
            passing += 1
            inconsistent += 1
            if first is None:
                first = (gen.to_json(), model.baseline.to_json(), ta, tb,
                         exc.report.dominance.min_gap)
            continue
        if rep.overall:
            passing += 1
    _line("07a", inconsistent == 0,
          f"{inconsistent}/500 hypothesis-passing configurations violated "
          f"dominance; first counterexample: {first}")


def test_criterion_07b_theorem2_randomized_soundness():
    rng = np.random.default_rng(72)
    model = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gens = [lambda: GeneratorSpec("clayton", float(rng.uniform(0.5, 6.0))),
            lambda: GeneratorSpec("frank", float(rng.uniform(0.5, 8.0))),
            lambda: GeneratorSpec("gumbel", float(rng.uniform(1.1, 4.0)))]
    inconsistent = 0
    passing = 0
    first = None
    while passing < 500:
        gen = gens[rng.integers(0, 3)]()
        n = int(rng.integers(3, 6))
        ta, tb = _rejection_pair(rng, n, Preorder.RECIPROCAL_MAJORIZE)
        sx = SystemSpec(n, model, ta, gen)
        sy = SystemSpec(n, model, tb, gen)
        try:
            rep = verify_theorem2(sx, sy, FAST)
        except InconsistencyError as exc:
            passing += 1
            inconsistent += 1
            if first is None:
                first = (gen.to_json(), ta, tb, exc.report.dominance.min_gap)
            continue
        if rep.overall:
            passing += 1
    _line("07b", inconsistent == 0,
          f"{inconsistent}/500 hypothesis-passing configurations violated "
          f"dominance; first counterexample: {first}")


# ---------------------------------------------------------------------- 8
def test_criterion_08a_plarger_bound_on_first_demo():
    sx, _ = gumbel_barnett_pair()
    xs = demo_grid(1000)
    excess = lower_bound_plarger(sx, xs) - survival_x2n(sx, xs)
    ok = bool(np.all(excess <= 1e-12))
    _line("08a", ok,
          f"geometric-mean bound exceeds the survival at "
          f"{int(np.sum(excess > 0))}/1000 grid points, worst by {excess.max():.3e}")


def test_criterion_08b_homogeneous_equality():
    m = SemiParamModel("scale", BaselineSpec("exp_weibull", (0.9, 0.9)))
    sysd = SystemSpec(5, m, (0.4,) * 5, GeneratorSpec("gumbel_barnett", 0.2))
    xs = demo_grid(400)
    exact = survival_x2n(sysd, xs)
    dev = max(np.max(np.abs(lower_bound_plarger(sysd, xs) - exact)),
              np.max(np.abs(lower_bound_rm(sysd, xs) - exact)))
    _line("08b", dev <= 1e-12, f"homogeneous bound deviation {dev:.2e} (need <= 1e-12)")


def test_criterion_08c_rm_bound_on_second_theorem_configuration():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    sysd = SystemSpec(3, m, (1.0, 2.0, 4.0), GeneratorSpec("clayton", 2.0))
    xs = np.linspace(1.0001, 60.0, 1000)
    margin = survival_x2n(sysd, xs) - lower_bound_rm(sysd, xs)
    _line("08c", bool(np.all(margin >= -1e-12)),
          f"harmonic-mean bound margin min {margin.min():.2e} (need >= -1e-12)")


# ---------------------------------------------------------------------- 9
def test_criterion_09_schur_probe_at_first_demo():
    sx, _ = gumbel_barnett_pair()
    worst = schur_condition_probe(sx, xs=demo_grid(500))
    _line("09", worst >= -1e-6,
          f"min over pairs of (a_p-a_q)(dS/da_p-dS/da_q) = {worst:.3f} "
          "(need >= -1e-6); the proof inequality fails at the demo's own "
          "configuration")


# --------------------------------------------------------------------- 10
def test_criterion_10a_weibull_aic_recovery():
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        data = 67.7 * rng.weibull(5.0, size=108)
        fits = [mle_fit(f, data) for f in ("exponential", "gamma", "weibull", "burr")]
        if rank_models(fits).best.family == "weibull":
            wins += 1
    _line("10a", wins >= 90, f"weibull attained the lowest AIC in {wins}/100 runs "
                             "(need >= 90)")


def test_criterion_10b_cvm_level_study():
    rejections = 0
    trials = 200
    for trial in range(trials):
        u = sample_copula(GeneratorSpec("clayton", 1.0), 2, 64,
                          seed=31_000 + trial).uniforms
        ps = pseudo_observations(u)
        res = cvm_gof("clayton", ps, boot_n=100, seed=61_000 + trial)
        if res.p_value <= 0.05:
            rejections += 1
    rate = rejections / trials
    _line("10b", 0.02 <= rate <= 0.09,
          f"rejection rate at nominal 0.05 = {rate:.3f} over {trials} trials "
          "(need within [0.02, 0.09])")


# --------------------------------------------------------------------- 11
CABLE_ENV = "CABLE_STRENGTH_CSV"


def test_criterion_11_cable_dataset_reproduction():
    path = os.environ.get(CABLE_ENV)
    if not path:
        print("ACCEPTANCE 11: SKIP - cable dataset not supplied "
              f"(set {CABLE_ENV} to the CSV path)")
        pytest.skip(f"{CABLE_ENV} not set; criterion reported as skipped, not failed")
    manifest = load_reference_manifest()
    ds = load_dataset_csv(path)
    fits = [mle_fit(f, ds.pooled()) for f in ("exponential", "gamma", "weibull", "burr")]
    ranking = rank_models(fits)
    order_ok = [r.family for r in ranking.entries] == manifest["marginal_aic_order"]
    ps = pseudo_observations(ds.matrix())
    gofs = {fam: cvm_gof(fam, ps, boot_n=200, seed=1100 + i)
            for i, fam in enumerate(("clayton", "gumbel", "frank"))}
    best = min(gofs.items(), key=lambda kv: kv[1].statistic)[0]
    tol = manifest["tolerances"]
    details = {fam: (abs(g.theta - manifest["copulas"][fam]["theta"]) <= tol["theta"],
                     abs(g.p_value - manifest["copulas"][fam]["p_value"]) <= tol["p_value"])
               for fam, g in gofs.items()}
    ok = order_ok and best == manifest["preferred_copula"] and all(
        all(flags) for flags in details.values())
    _line("11", ok, f"AIC order ok={order_ok}, preferred={best}, "
                    f"theta/p within tolerance: {details}")
