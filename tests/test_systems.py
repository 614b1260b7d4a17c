import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    SemiParamModel,
    SurvivalCurve,
    SystemSpec,
    ValidationError,
    curve,
    default_grid,
    homogeneous_x2n,
    lower_bound_plarger,
    lower_bound_rm,
    survival_x2n,
    systems,
)
from failsafekit.cli import load_system, write_curve_csv
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair
from failsafekit.generators import FAMILIES, PHI_CAP, SURVIVAL_FLOOR, phi, psi
from failsafekit.gridpolicy import GridPolicy
from failsafekit.models import sp_quantile, sp_survival


# ---------------------------------------------------------------- oracle
def brute_force_x2n(margs):
    """P(at most one failure) by enumerating all 2^n alive/dead patterns
    of independent components with survival probabilities margs."""
    n = len(margs)
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        if sum(pattern) >= n - 1:  # 1 = alive
            p = 1.0
            for alive, u in zip(pattern, margs):
                p *= u if alive else (1.0 - u)
            total += p
    return total


def scale_exp_system(gen, thetas):
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    return SystemSpec(len(thetas), m, tuple(thetas), gen)


# -------------------------------------------------------------- formula
def test_survival_at_zero_is_one():
    sysd = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.0, 2.0, 3.0))
    assert survival_x2n(sysd, 0.0) == pytest.approx(1.0)


def test_independence_two_components_inclusion_exclusion():
    # survivals 0.5, 0.5 at x = log 2 under unit-rate exponentials
    sysd = scale_exp_system(GeneratorSpec("independence"), (1.0, 1.0))
    x = np.log(2.0)
    assert survival_x2n(sysd, x) == pytest.approx(0.75, rel=1e-12)


def test_independence_matches_brute_force():
    rng = np.random.default_rng(404)
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    for _ in range(100):
        n = int(rng.integers(2, 7))
        thetas = tuple(rng.uniform(0.3, 3.0, n))
        sysd = SystemSpec(n, m, thetas, GeneratorSpec("independence"))
        x = float(rng.uniform(0.05, 2.0))
        margs = [np.exp(-t * x) for t in thetas]
        assert abs(survival_x2n(sysd, x) - brute_force_x2n(margs)) <= 1e-12


def test_clayton_three_component_value():
    # frozen from a 50-digit recomputation of psi(sum phi(u_j != i)) terms
    # for u = (e^-0.5, e^-1, e^-1.5), clayton theta=2
    sysd = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.0, 2.0, 3.0))
    assert survival_x2n(sysd, 0.5) == pytest.approx(0.36320189582193133, rel=1e-13)


def test_theta_permutation_symmetry():
    rng = np.random.default_rng(7)
    gen = GeneratorSpec("gumbel", 2.0)
    thetas = (0.4, 1.1, 2.2, 3.3)
    xs = np.geomspace(0.05, 4.0, 50)
    base = survival_x2n(scale_exp_system(gen, thetas), xs)
    for _ in range(5):
        perm = tuple(rng.permutation(thetas))
        assert_allclose(survival_x2n(scale_exp_system(gen, perm), xs), base, atol=1e-14)


def test_homogeneous_closed_form_matches_general():
    for gen in (GeneratorSpec("clayton", 3.0), GeneratorSpec("gumbel_barnett", 0.4)):
        sysd = scale_exp_system(gen, (1.3,) * 4)
        xs = np.geomspace(0.01, 6.0, 80)
        margs = np.exp(-1.3 * xs)
        assert_allclose(survival_x2n(sysd, xs),
                        homogeneous_x2n(gen, margs, 4), atol=1e-14)


def test_underflowed_components_give_zero():
    sysd = scale_exp_system(GeneratorSpec("clayton", 1.0), (1.0, 1.0, 1.0))
    assert survival_x2n(sysd, 800.0) == 0.0


# ------------------------------------------------- leave-one-out sums
#: survival_x2n and the reference below add the phi values in different
#: orders; 1000x under the dominance tolerance
LOO_TOL = 1e-13
FAMILY_THETAS = {"independence": None, "clayton": 2.0, "gumbel": 2.0, "frank": 4.0,
                 "amh": 0.5, "gumbel_barnett": 0.3, "gumbel_hougaard": 1.5}


def direct_loo_x2n(sysd, xs):
    """survival_x2n with each leave-one-out sum taken directly over the
    other columns, one np.delete copy per component."""
    gen, n = sysd.generator, sysd.n
    margs = sp_survival(sysd.model, xs, np.asarray(sysd.theta)[:, None]).T  # a column per component
    s = phi(gen, np.clip(margs, SURVIVAL_FLOOR, 1.0))
    loo = np.stack([np.sum(np.delete(s, i, axis=1), axis=1) for i in range(n)], axis=1)
    vals = psi(gen, loo).sum(axis=1) - (n - 1) * psi(gen, np.sum(s, axis=1))
    return np.where(np.all(margs <= SURVIVAL_FLOOR, axis=1), 0.0, vals)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 5, 20, 50])
def test_survival_matches_direct_leave_one_out_sums(family, n):
    rng = np.random.default_rng(n)
    m = SemiParamModel("scale", BaselineSpec("gen_gamma", (1.5, 2.0)))
    sysd = SystemSpec(n, m, tuple(rng.uniform(0.5, 3.0, n)),
                      GeneratorSpec(family, FAMILY_THETAS[family]))
    xs = default_grid(sysd)
    vals = survival_x2n(sysd, xs)
    assert_allclose(vals, direct_loo_x2n(sysd, xs), rtol=0, atol=LOO_TOL)
    # a scalar x takes the same path as one grid point of the array
    for i in (0, 250, 500, 999):
        assert survival_x2n(sysd, float(xs[i])) == vals[i]


@pytest.mark.parametrize("family", FAMILIES)
def test_homogeneous_scalar_equals_the_same_point_in_a_batch(family):
    gen = GeneratorSpec(family, FAMILY_THETAS[family])
    us = np.random.default_rng(5).uniform(1e-6, 1.0, 400)
    for n in (2, 3, 5):
        batch = homogeneous_x2n(gen, us, n)
        for u, want in zip(us.tolist(), batch.tolist()):
            assert homogeneous_x2n(gen, u, n) == want, (n, u)


def test_nan_marginal_survival_is_refused(monkeypatch):
    # the kernel checks the marginal matrix once and then trusts it, so a
    # NaN marginal must be refused there, not passed on to phi and psi
    sysd = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.0, 2.0, 3.0))
    monkeypatch.setattr(systems, "_sp_survival",
                        lambda model, x, theta: np.where(x == 1.0, np.nan, np.exp(-theta * x)))
    assert np.all(np.isfinite(survival_x2n(sysd, np.array([0.5, 2.0]))))
    with pytest.raises(ValidationError, match=r"scale model over exponential\(1.0,\) gave a NaN"):
        survival_x2n(sysd, np.array([0.5, 1.0, 2.0]))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_floored_component_keeps_the_others_digits(position):
    # one survival underflows to SURVIVAL_FLOOR, so its phi sits at PHI_CAP
    # and dominates the row total; the term that leaves it out is the other
    # two components' series survival and must keep all its digits
    gen = GeneratorSpec("clayton", 2.0)
    thetas = [1.0, 2.0]
    thetas.insert(position, 1000.0)
    sysd = scale_exp_system(gen, thetas)
    assert phi(gen, SURVIVAL_FLOOR) == PHI_CAP
    got = survival_x2n(sysd, np.array([1.0]))
    assert_allclose(got, direct_loo_x2n(sysd, [1.0]), rtol=0, atol=LOO_TOL)
    others = psi(gen, phi(gen, np.exp(-1.0)) + phi(gen, np.exp(-2.0)))
    assert got[0] == pytest.approx(others, rel=1e-15)


# ---------------------------------------------------------------- curve
def test_curve_monotone_and_deterministic():
    sx, _ = gumbel_barnett_pair()
    xs = demo_grid()
    c1 = curve(sx, xs)
    c2 = curve(sx, xs)
    assert c1.values.tobytes() == c2.values.tobytes()
    vals = c1.values
    assert vals[0] > 0.99
    assert np.all(np.diff(vals) <= 1e-10)


def test_grid_refinement_shares_values():
    sx, _ = clayton_pair()
    coarse = np.linspace(0.01, 10.0, 1000)
    fine = np.linspace(0.005, 10.0, 2000)
    c1 = dict(zip(curve(sx, coarse).xs, curve(sx, coarse).values))
    c2 = dict(zip(curve(sx, fine).xs, curve(sx, fine).values))
    shared = set(c1) & set(c2)
    assert shared
    for x in shared:
        assert c1[x] == c2[x]


def test_curve_rejects_unsorted_grid():
    sx, _ = gumbel_barnett_pair()
    with pytest.raises(ValidationError):
        curve(sx, np.array([1.0, 0.5, 2.0]))


BAD_GRIDS = {
    "2-d": np.array([[0.5, 1.0], [1.5, 2.0]]),
    "1-point": np.array([1.0]),
    "zero": np.array([0.0, 0.5, 1.0]),
    "negative": np.array([-1.0, 0.5, 1.0]),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_curve_and_survival_curve_reject_bad_grids(name):
    sx, _ = gumbel_barnett_pair()
    xs = BAD_GRIDS[name]
    with pytest.raises(ValidationError):
        curve(sx, xs)
    with pytest.raises(ValidationError):
        SurvivalCurve(xs, np.full(xs.shape, 0.5))


def test_curve_arrays_are_read_only_copies():
    sx, _ = gumbel_barnett_pair()
    xs = demo_grid(50)
    c = curve(sx, xs)
    assert c.xs.dtype == np.float64 and c.values.dtype == np.float64
    for arr in (c.xs, c.values):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    xs[0] = 0.5  # the caller's grid stays writeable and is not shared
    assert c.xs[0] == demo_grid(50)[0]


def test_default_grid_spans_component_bulk():
    sysd = scale_exp_system(GeneratorSpec("independence"), (1.0, 4.0))
    xs = default_grid(sysd, 500)
    assert xs.size == 500
    assert xs[0] < 0.001 and xs[-1] > 6.0  # q(0.999) of the slowest component


@pytest.mark.parametrize("points", [1, 0, -3])
def test_grid_policy_needs_two_curve_points(points):
    with pytest.raises(ValidationError, match="curve_points must be at least 2"):
        GridPolicy(curve_points=points)


def _per_theta_curve_grid(policy, model, *theta_vectors):
    """Reference: the grid rule with two scalar quantile calls per theta."""
    los, his = [], []
    for thetas in theta_vectors:
        for th in thetas:
            los.append(sp_quantile(model, policy.q_lo, float(th)))
            his.append(sp_quantile(model, policy.q_hi, float(th)))
    lo, hi = min(los), max(his)
    return np.geomspace(max(lo, hi * 1e-9), hi, policy.curve_points)


@pytest.mark.parametrize("model, tx, ty", [
    (SemiParamModel("scale", BaselineSpec("gen_pareto", (2.0,))),
     (0.5, 1.0, 2.0), (0.1, 1.0, 2.0)),
    (SemiParamModel("phr", BaselineSpec("burr", (2.0, 0.7))),
     (0.152, 0.9, 3.1), (0.4, 0.6, 5.0)),
    (SemiParamModel("location", BaselineSpec("weibull", (1.0, 0.8))),
     (-0.4, 0.3, 2.5), (-1.2, 0.0, 0.7)),
    (SemiParamModel("mphrs", BaselineSpec("exp_weibull", (0.9, 0.9)), alpha=0.6, lam=1.7),
     (0.2, 1.1, 4.0), (0.3, 0.9, 7.5)),
    (SemiParamModel("ls", BaselineSpec("gamma", (2.0, 1.5)), lam=-0.3),
     (0.7, 1.3, 2.2), (0.05, 1.0, 9.0)),
])
def test_curve_grid_batched_quantiles_match_per_theta_loop(model, tx, ty):
    for points in (20, 300, 1000):
        policy = GridPolicy(curve_points=points)
        got = policy.curve_grid(model, tx, ty)
        want = _per_theta_curve_grid(policy, model, tx, ty)
        assert got.tobytes() == want.tobytes()


def test_survival_curve_validation():
    with pytest.raises(ValidationError):
        SurvivalCurve(xs=(1.0, 2.0), values=(0.2, 0.4))  # increasing values
    with pytest.raises(ValidationError):
        SurvivalCurve(xs=(2.0, 1.0), values=(0.4, 0.2))  # unsorted grid


@pytest.mark.parametrize("values", [(np.nan, 0.5, 0.4), (0.6, np.nan, 0.4), (0.6, 0.5, np.nan)])
def test_survival_curve_refuses_nan(values):
    # NaN passes every ordering comparison as False, so a bounds check
    # written as "reject what lies outside" would let it through
    with pytest.raises(ValidationError, match="NaN"):
        SurvivalCurve(xs=(1.0, 2.0, 3.0), values=values)


# --------------------------------------------------------------- bounds
def test_homogeneous_bounds_equal_exact():
    sysd = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.5,) * 4)
    xs = np.geomspace(0.01, 4.0, 60)
    exact = survival_x2n(sysd, xs)
    assert_allclose(lower_bound_plarger(sysd, xs), exact, atol=1e-12)
    assert_allclose(lower_bound_rm(sysd, xs), exact, atol=1e-12)


def test_bound_reference_parameters():
    sysd = scale_exp_system(GeneratorSpec("independence"), (1.0, 4.0))
    # geometric mean 2, harmonic mean 1.6: check through the closed form
    xs = np.array([0.7])
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    assert lower_bound_plarger(sysd, xs)[0] == pytest.approx(
        homogeneous_x2n(GeneratorSpec("independence"), np.exp(-2.0 * 0.7), 2))
    assert lower_bound_rm(sysd, xs)[0] == pytest.approx(
        homogeneous_x2n(GeneratorSpec("independence"), np.exp(-1.6 * 0.7), 2))


def test_rm_bound_holds_for_location_gp_clayton():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    sysd = SystemSpec(3, m, (1.0, 2.0, 4.0), GeneratorSpec("clayton", 2.0))
    xs = np.linspace(1.0001, 60.0, 800)
    exact = survival_x2n(sysd, xs)
    bound = lower_bound_rm(sysd, xs)
    assert np.all(exact - bound >= -1e-12)


def test_plarger_bound_fails_on_heterogeneous_demo():
    # the geometric-mean homogeneous value is NOT a lower bound here: the
    # heterogeneous system has three weaker-than-mean components, so its
    # two-failure probability overtakes the homogeneous one at moderate x
    sx, _ = gumbel_barnett_pair()
    xs = demo_grid()
    excess = lower_bound_plarger(sx, xs) - survival_x2n(sx, xs)
    assert excess.max() > 0.05  # measured ~0.059
    assert np.mean(excess > 0.0) > 0.5


def test_bounds_reject_nonpositive_theta():
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    sysd = SystemSpec(2, m, (-1.0, 2.0), GeneratorSpec("independence"))
    with pytest.raises(ValidationError):
        lower_bound_plarger(sysd, 1.0)
    with pytest.raises(ValidationError):
        lower_bound_rm(sysd, 1.0)


# ------------------------------------------------------------- plumbing
def test_system_json_roundtrip(tmp_path):
    sx, _ = gumbel_barnett_pair()
    path = tmp_path / "sys.json"
    import json
    path.write_text(json.dumps(sx.to_json()))
    assert load_system(str(path)) == sx


def test_system_validation():
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    with pytest.raises(ValidationError):
        SystemSpec(1, m, (1.0,), GeneratorSpec("independence"))
    with pytest.raises(ValidationError):
        SystemSpec(3, m, (1.0, 2.0), GeneratorSpec("independence"))
    with pytest.raises(ValidationError):
        SystemSpec(2, m, (1.0, -2.0), GeneratorSpec("independence"))


def test_curve_csv_full_precision(tmp_path):
    path = str(tmp_path / "curve.csv")
    xs = np.array([0.1, 0.2, 0.3])
    vals = np.array([1.0 / 3.0, 0.2123456789012345, 0.1])
    write_curve_csv(path, xs, {"survival": vals})
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "x,survival"
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    assert parsed == list(vals)  # 17 significant digits round-trip exactly
