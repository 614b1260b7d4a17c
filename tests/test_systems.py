import itertools
import json
import re
import tracemalloc
from decimal import Decimal, localcontext

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
    curves,
    default_grid,
    empirical_survival_x2n,
    homogeneous_x2n,
    lower_bound_plarger,
    lower_bound_rm,
    schur_condition_probe,
    survival_x2n,
    systems,
    verify_theorem1,
)
from failsafekit.cli import load_system, write_curve_csv
from failsafekit.demos import clayton_pair, demo_grid, gumbel_barnett_pair
from failsafekit.generators import FAMILIES, _phi, phi, psi
from failsafekit.gridpolicy import GridPolicy
from failsafekit import models
from failsafekit.models import (BASELINE_FAMILIES, BULK_Q_HI, BULK_Q_LO, sp_quantile,
                                sp_survival)


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


def test_mphrs_system_at_zero_is_one_without_a_clip():
    # alpha = 0.1 at w = 1: alpha / (1 - (1 - alpha)) rounds to 1 + 2e-16, and
    # gumbel's phi of that is NaN; the kernel clips no marginal, so the map
    # itself must stay in [0, 1].  pytest raises a RuntimeWarning as an error
    m = SemiParamModel("mphrs", BaselineSpec("weibull", (1.0, 2.0)), alpha=0.1, lam=1.3)
    sysd = SystemSpec(3, m, (0.5, 0.7, 0.9), GeneratorSpec("gumbel", 1.7))
    assert survival_x2n(sysd, np.array([0.0, 1e-300])).tolist() == [1.0, 1.0]
    assert survival_x2n(sysd, 0.0) == survival_x2n(sysd, 1e-300) == 1.0


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
    # every marginal is exp(-800) = 0, so every phi is +inf and psi(+inf) = 0
    for family in FAMILIES:
        sysd = scale_exp_system(GeneratorSpec(family, FAMILY_THETAS[family]), (1.0, 1.0, 1.0))
        assert survival_x2n(sysd, 800.0) == 0.0, family
        assert survival_x2n(sysd, np.array([0.5, 800.0]))[1] == 0.0, family


# ------------------------------------------------- leave-one-out sums
#: survival_x2n and the reference below add the phi values in different
#: orders; 1000x under the dominance tolerance
LOO_TOL = 1e-13
FAMILY_THETAS = {"independence": None, "clayton": 2.0, "gumbel": 2.0, "frank": 4.0,
                 "amh": 0.5, "gumbel_barnett": 0.3, "gumbel_hougaard": 1.5}


def direct_loo_x2n(sysd, xs):
    """survival_x2n with each leave-one-out sum taken directly over the
    other columns, one np.delete copy per component; a dead component
    (u = 0) has phi = +inf, which psi maps to 0."""
    gen, n = sysd.generator, sysd.n
    margs = sp_survival(sysd.model, xs, np.asarray(sysd.theta)[:, None]).T  # a column per component
    with np.errstate(all="ignore"):  # as in the kernel, whose errstate phi runs under
        s = _phi(gen.family, gen.theta, margs)
    loo = np.stack([np.sum(np.delete(s, i, axis=1), axis=1) for i in range(n)], axis=1)
    return psi(gen, loo).sum(axis=1) - (n - 1) * psi(gen, np.sum(s, axis=1))


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
    # NaN marginal must be refused there, not passed on to phi and psi, on
    # every path into it: survival_x2n, and verify's one-block (n = 3) and
    # two-pass (n = 30) verdicts
    message = "scale model over exponential(1.0,) gave a NaN marginal survival"
    sysd = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.0, 2.0, 3.0))
    monkeypatch.setattr(systems, "_sp_survival",
                        lambda model, x, theta: np.where(x == 1.0, np.nan, np.exp(-theta * x)))
    assert np.all(np.isfinite(survival_x2n(sysd, np.array([0.5, 2.0]))))
    with pytest.raises(ValidationError) as err:
        survival_x2n(sysd, np.array([0.5, 1.0, 2.0]))
    assert str(err.value) == message
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    for n in (3, 30):
        # a theorem-1 pair whose hypotheses hold; its policy grid reaches past x = 2
        rng = np.random.default_rng(n)
        a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        sx = scale_exp_system(gen, a.tolist())
        sy = scale_exp_system(gen, (a * rng.uniform(1.0, 2.0, n)).tolist())
        assert (systems._block_columns(n, 2) < GridPolicy().curve_points) == (n == 30)
        monkeypatch.setattr(systems, "_sp_survival", models._sp_survival)
        assert verify_theorem1(sx, sy).overall
        monkeypatch.setattr(systems, "_sp_survival",
                            lambda model, x, theta: np.where(x > 2.0, np.nan, np.exp(-theta * x)))
        with pytest.raises(ValidationError) as err:
            verify_theorem1(sx, sy)
        assert str(err.value) == message, n


@pytest.mark.parametrize("position", [0, 1, 2])
def test_floored_component_keeps_the_others_digits(position):
    # one survival underflows to 0, so its phi is +inf and every term that
    # holds it is psi(+inf) = 0; the term that leaves it out is the other
    # two components' series survival, exactly
    thetas = [1.0, 2.0]
    thetas.insert(position, 1000.0)
    for family in FAMILIES:
        gen = GeneratorSpec(family, FAMILY_THETAS[family])
        sysd = scale_exp_system(gen, thetas)
        got = survival_x2n(sysd, np.array([1.0]))
        assert_allclose(got, direct_loo_x2n(sysd, [1.0]), rtol=0, atol=LOO_TOL)
        others = psi(gen, phi(gen, np.exp(-1.0)) + phi(gen, np.exp(-2.0)))
        assert 0.0 < got[0] == others, family


def test_overflowed_phi_reads_the_tail_not_a_plateau():
    # clayton(2) has psi(1e300) = 7.1e-151, so a phi capped at 1e300 read a
    # plateau of 9.14e-151 and 6.84e-151 over this tail; the 2000-digit
    # values fall from 5.64e-151 at x = 9.3 to 1.6e-276 at x = 12.6
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 2.0)))
    sysd = SystemSpec(4, m, (1.0, 1.5, 2.0, 2.5), GeneratorSpec("clayton", 2.0))
    assert survival_x2n(sysd, 9.3) == pytest.approx(5.64262307776017e-151, rel=1e-9)
    assert survival_x2n(sysd, 12.6) <= 1e-270


@pytest.mark.parametrize("gen_theta, bound", [(35.0, 1e-9), (50.0, 6e-7)])
def test_large_theta_clayton_tail_against_a_decimal_reference(gen_theta, bound):
    # phi overflows in the upper tail at these thetas; a reference that sums
    # each leave-one-out set directly needs no cancellation, so 60 and 120
    # digits agree (and equal a 3000-digit reference to the double)
    thetas = (0.4, 0.9, 1.3, 2.2)
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 1.5)))
    xs = np.geomspace(0.05, 8.0, 120)
    got = survival_x2n(SystemSpec(4, m, thetas, GeneratorSpec("clayton", gen_theta)), xs)

    def reference(x, digits):
        with localcontext(prec=digits):
            g, one = Decimal(gen_theta), Decimal(1)
            # phi(u) = (u^-g - 1)/g at u = exp(-(theta x)^1.5); psi = (1 + g t)^(-1/g)
            s = [((g * (Decimal(t) * Decimal(x)) ** Decimal(1.5)).exp() - one) / g
                 for t in thetas]
            psi_ = [(-(one + g * sum(s[:i] + s[i + 1:])).ln() / g).exp() for i in range(4)]
            return float(sum(psi_) - 3 * (-(one + g * sum(s)).ln() / g).exp())

    want = np.array([reference(x, 60) for x in xs])
    assert_allclose(want, [reference(x, 120) for x in xs], rtol=1e-15, atol=0)
    assert np.abs(got - want).max() <= bound


# ------------------------------------------------ the kernel over k systems
BASELINE_PARAMS = {"exponential": (1.3,), "weibull": (1.2, 0.7), "exp_weibull": (0.8, 1.5),
                   "burr": (1.5, 0.8), "gen_pareto": (0.7,), "gen_gamma": (0.6, 0.5),
                   "gamma": (0.7, 1.3)}
KIND_NUISANCES = {"scale": {}, "phr": {}, "location": {}, "mphrs": {"alpha": 0.4, "lam": 1.7},
                  "ls": {"lam": 0.3}}


def unblocked(monkeypatch, fn, *args):
    """fn(*args) with the whole grid in one block of the survival kernel."""
    with monkeypatch.context() as m:
        m.setattr(systems, "_BLOCK_BYTES", 1 << 62)
        return fn(*args)


@pytest.mark.parametrize("kind", KIND_NUISANCES)
@pytest.mark.parametrize("family", BASELINE_FAMILIES)
def test_curves_equal_per_system_survival_bit_for_bit(family, kind):
    model = SemiParamModel(kind, BaselineSpec(family, BASELINE_PARAMS[family]),
                           **KIND_NUISANCES[kind])
    for gen_family in FAMILIES:
        gen = GeneratorSpec(gen_family, FAMILY_THETAS[gen_family])
        sx = SystemSpec(4, model, (0.5, 1.0, 2.0, 3.0), gen)
        sy = SystemSpec(4, model, (0.7, 1.1, 1.5, 2.5), gen)
        xs = GridPolicy().curve_grid(model, sx.theta, sy.theta)
        for sysd, c in zip((sx, sy), curves((sx, sy), xs)):
            assert c.values.tobytes() == survival_x2n(sysd, xs).tobytes(), gen_family
            assert c.xs.tobytes() == xs.tobytes()


@pytest.mark.parametrize("n", [2, 3, 17, 60])
def test_block_edges_change_no_value(n, monkeypatch):
    rng = np.random.default_rng(n)
    model = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    gen = GeneratorSpec("gumbel_hougaard", 1.5)
    pair = tuple(SystemSpec(n, model, tuple(rng.uniform(0.5, 3.0, n)), gen) for _ in range(2))
    block = systems._block_columns(n, 2)
    for size in (1, block - 1, block, block + 1):
        xs = np.geomspace(0.01, 10.0, size)
        vals = systems._survivals(pair, xs)
        assert vals.tobytes() == unblocked(monkeypatch, systems._survivals, pair, xs).tobytes()
        # one system's blocks are twice as wide, and a scalar is a block of its own
        for sysd, row in zip(pair, vals):
            assert survival_x2n(sysd, xs).tobytes() == row.tobytes()
        for i in {0, block - 2, block - 1, size - 1}:
            if 0 <= i < size:
                assert survival_x2n(pair[1], float(xs[i])) == vals[1, i]


def test_gamma_small_blocks_take_the_scalar_path_to_the_same_bits(monkeypatch):
    # the last block of a block + 1 grid holds one column, 2 x 2 points of
    # Legendre's fraction: _small_or_vector evaluates those in Python floats,
    # the same points in one whole-grid block in numpy
    sizes = []

    def record(fn, xs, *args):
        sizes.append(xs.size)
        return small_or_vector(fn, xs, *args)

    small_or_vector = models._small_or_vector
    monkeypatch.setattr(models, "_small_or_vector", record)
    model = SemiParamModel("scale", BaselineSpec("gamma", (0.7, 1.3)))
    gen = GeneratorSpec("clayton", 2.0)
    pair = (SystemSpec(2, model, (0.5, 2.0), gen), SystemSpec(2, model, (0.8, 1.5), gen))
    xs = np.geomspace(0.01, 10.0, systems._block_columns(2, 2) + 1)
    vals = systems._survivals(pair, xs)
    assert min(sizes) <= 16
    sizes.clear()
    assert vals.tobytes() == unblocked(monkeypatch, systems._survivals, pair, xs).tobytes()
    assert min(sizes) > 16


def test_curves_refuse_systems_that_do_not_share_the_kernel():
    sx, sy = gumbel_barnett_pair()
    xs = demo_grid(50)
    other_gen = SystemSpec(sy.n, sy.model, sy.theta, GeneratorSpec("clayton", 2.0))
    other_model = SystemSpec(sy.n, SemiParamModel("phr", sy.model.baseline), sy.theta,
                             sy.generator)
    other_n = SystemSpec(sy.n + 1, sy.model, sy.theta + (1.0,), sy.generator)
    for other in (other_gen, other_model, other_n):
        with pytest.raises(ValidationError, match="one model, generator and n"):
            curves((sx, other), xs)
    with pytest.raises(ValidationError, match="at least one system"):
        curves((), xs)
    assert curves((sx,), xs)[0].values.tobytes() == curve(sx, xs).values.tobytes()


def test_verdict_memory_is_bounded_at_large_n():
    # n = 50 over gen_gamma: the blocked pass of both systems peaks at about
    # 2.5 MB, most of it the incomplete gamma's temporaries on one block; the
    # same pass over the whole grid in one block peaks at 6.8 MB
    rng = np.random.default_rng(4)
    model = SemiParamModel("scale", BaselineSpec("gen_gamma", (0.5, 0.4)))
    gen = GeneratorSpec("gumbel_hougaard", 2.0)
    ta = np.exp(rng.uniform(np.log(0.1), np.log(3.0), 50))
    sx = SystemSpec(50, model, tuple(ta), gen)
    sy = SystemSpec(50, model, tuple(ta * rng.uniform(1.0, 2.0, 50)), gen)
    verify_theorem1(sx, sy)  # plan and cache the incomplete gamma first
    tracemalloc.start()
    try:
        report = verify_theorem1(sx, sy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall and report.dominance is not None
    assert peak < 4e6


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


X_RULE = "x must be a nonnegative number or 1-d array, with no NaN"
GRID_RULE = "xs must be a strictly increasing positive grid of length >= 2"

# name -> (grid, the rule that curve reports): curve is curves of one system,
# which refuses what breaks the lifetime rule first and its grid check the
# rest; SurvivalCurve reports the grid rule for all four
BAD_GRIDS = {
    "2-d": (np.array([[0.5, 1.0], [1.5, 2.0]]), X_RULE),
    "1-point": (np.array([1.0]), GRID_RULE),
    "zero": (np.array([0.0, 0.5, 1.0]), GRID_RULE),
    "negative": (np.array([-1.0, 0.5, 1.0]), X_RULE),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_curve_and_survival_curve_reject_bad_grids(name):
    sx, _ = gumbel_barnett_pair()
    xs, rule = BAD_GRIDS[name]
    with pytest.raises(ValidationError, match=re.escape(rule)):
        curve(sx, xs)
    with pytest.raises(ValidationError, match=re.escape(GRID_RULE)):
        SurvivalCurve(xs, np.full(xs.shape, 0.5))


# every entry point that takes a lifetime argument, on the 5-component demo
LIFETIME_ENTRIES = {
    "survival_x2n": survival_x2n,
    "empirical_survival_x2n": lambda sysd, x: empirical_survival_x2n(np.ones((10, sysd.n)), x),
    "lower_bound_plarger": lower_bound_plarger,
    "lower_bound_rm": lower_bound_rm,
    "schur_condition_probe": lambda sysd, x: schur_condition_probe(sysd, xs=x),
}
# name -> (x, the message every entry gives)
BAD_LIFETIMES = {
    "nan": (np.nan, X_RULE + ", got nan"),
    "negative": (-1.0, X_RULE + ", got -1.0"),
    "2-d": (np.ones((2, 3)), X_RULE + ", got a 2-d array"),
    "n-by-1": (np.ones((5, 1)), X_RULE + ", got a 2-d array"),  # one row per component, not a grid
    "text": ("a", "x must be a number, got 'a'"),
    "ragged": ([1.0, [2.0, 3.0]], "x must be a number, got [2.0, 3.0]"),
}


@pytest.mark.parametrize("bad", sorted(BAD_LIFETIMES))
@pytest.mark.parametrize("entry", sorted(LIFETIME_ENTRIES))
def test_every_lifetime_entry_refuses_bad_x_alike(entry, bad):
    sx, _ = gumbel_barnett_pair()
    assert sx.n == 5
    x, message = BAD_LIFETIMES[bad]
    with pytest.raises(ValidationError) as err:
        LIFETIME_ENTRIES[entry](sx, x)
    assert str(err.value) == message


BAD_GRIDS_ANY_RULE = {name: xs for name, (xs, _) in BAD_GRIDS.items()} | {
    "unsorted": np.array([1.0, 0.5, 2.0]),
    "tied": np.array([0.5, 1.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS_ANY_RULE))
def test_curve_and_curves_refuse_a_bad_grid_before_the_kernel_runs(name, monkeypatch):
    xs = BAD_GRIDS_ANY_RULE[name]

    def kernel(*args):
        raise AssertionError("the kernel ran on a bad grid")

    monkeypatch.setattr(systems, "_survivals", kernel)
    sx, sy = gumbel_barnett_pair()
    for call in (lambda: curve(sx, xs), lambda: curves((sx, sy), xs)):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("n", [5, 60])  # one kernel block, and several
def test_curve_values_equal_survival_x2n_bit_for_bit(n):
    model = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.8)))
    sysd = SystemSpec(n, model, tuple(0.5 + 0.05 * i for i in range(n)),
                      GeneratorSpec("gumbel_hougaard", 1.5))
    xs = GridPolicy().curve_grid(model, sysd.theta)
    assert (systems._block_columns(n, 1) < xs.size) == (n == 60)
    c = curve(sysd, xs)
    assert c.values.tobytes() == survival_x2n(sysd, xs).tobytes()
    assert c.xs.tobytes() == xs.tobytes()


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


def test_grid_policy_refuses_a_point_count_numpy_cannot_index():
    with pytest.raises(ValidationError) as err:
        GridPolicy(curve_points=2 ** 60)
    assert str(err.value) == f"curve_points must be at most {2 ** 60 - 1}, got {2 ** 60}"


@pytest.mark.parametrize("points", [1000.5, True, "1000", None, np.nan])
def test_grid_policy_needs_an_integer_point_count(points):
    # 1000.5 once built a 1001-point grid whose last step was half the others
    with pytest.raises(ValidationError, match="curve_points must be an integer"):
        GridPolicy(curve_points=points)


def test_grid_policy_takes_an_integral_float_point_count_as_its_int():
    policy = GridPolicy(curve_points=300.0)
    assert type(policy.curve_points) is int and policy == GridPolicy(curve_points=300)


@pytest.mark.parametrize("field, value", [("dominance_tol", "1e-10"), ("crossing_gap", None),
                                          ("dominance_tol", True), ("crossing_gap", [1e-8])])
def test_grid_policy_needs_numeric_tolerances(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be a number"):
        GridPolicy(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("dominance_tol", np.nan, "dominance_tol must be nonnegative, got nan"),
    ("dominance_tol", -1e-10, "dominance_tol must be nonnegative, got -1e-10"),
    ("crossing_gap", np.nan, "crossing_gap must be nonnegative, got nan"),
    ("crossing_gap", -1, "crossing_gap must be nonnegative, got -1"),
], ids=["dominance-nan", "dominance-negative", "crossing-nan", "crossing-negative"])
def test_grid_policy_needs_nonnegative_tolerances(field, value, message):
    with pytest.raises(ValidationError) as err:
        GridPolicy(**{field: value})
    assert str(err.value) == message


def _per_theta_curve_grid(policy, model, *theta_vectors):
    """Reference: the grid rule with two scalar quantile calls per theta."""
    los, his = [], []
    for thetas in theta_vectors:
        for th in thetas:
            los.append(sp_quantile(model, BULK_Q_LO, float(th)))
            his.append(sp_quantile(model, BULK_Q_HI, float(th)))
    lo, hi = min(los), max(his)
    return np.geomspace(lo if lo > 0.0 else hi * 1e-9, hi, policy.curve_points)


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


# name -> (grid, values, the message SurvivalCurve gives, the message curves
# gives with its kernel's values replaced): curves refuses what breaks the
# lifetime rule before its grid check, and checks values as SurvivalCurve
BAD_CURVES = {
    "repeated point": ((1.0, 1.0, 2.0), (0.6, 0.5, 0.4), GRID_RULE, GRID_RULE),
    "decreasing grid": ((1.0, 3.0, 2.0), (0.6, 0.5, 0.4), GRID_RULE, GRID_RULE),
    "nan in grid": ((1.0, np.nan, 2.0), (0.6, 0.5, 0.4), GRID_RULE, X_RULE),
    "2-d grid": (((0.5, 1.0), (1.5, 2.0)), ((0.6, 0.5), (0.4, 0.3)), GRID_RULE, X_RULE),
    "text grid": (("a", "b"), (1.0, 0.5), "curve grid point must be a number, got 'a'",
                  "x must be a number, got 'a'"),
    "none in grid": ((1.0, None), (1.0, 0.5), "curve grid point must be a number, got None",
                     "x must be a number, got None"),
    "text value": ((1.0, 2.0), ("a", "b"), "curve survival value must be a number, got 'a'", None),
    "none value": ((1.0, 2.0), (None, 0.5), "curve survival value must be a number, got None",
                   None),
    "short values": ((1.0, 2.0, 3.0), (0.6, 0.5), "one survival value per grid point", None),
    "nan value": ((1.0, 2.0, 3.0), (0.6, np.nan, 0.4), "leave [0, 1] or are NaN", None),
    "above one": ((1.0, 2.0, 3.0), (1.0 + 2e-10, 0.5, 0.4), "leave [0, 1] or are NaN", None),
    "below zero": ((1.0, 2.0, 3.0), (0.6, 0.5, -2e-10), "leave [0, 1] or are NaN", None),
    "rising": ((1.0, 2.0, 3.0), (0.6, 0.5, 0.5 + 2e-10), "are not nonincreasing", None),
}


@pytest.mark.parametrize("name", sorted(BAD_CURVES))
def test_survival_curve_and_curves_refuse_bad_curves_alike(name, monkeypatch):
    xs, values, rule, curves_rule = BAD_CURVES[name]
    with pytest.raises(ValidationError, match=re.escape(rule)):
        SurvivalCurve(xs, values)
    monkeypatch.setattr(systems, "_survivals", lambda systems_, x: np.array([values, values]))
    with pytest.raises(ValidationError, match=re.escape(curves_rule or rule)):
        curves(gumbel_barnett_pair(), xs)


def test_survival_curves_accept_values_within_the_clamp_tolerance(monkeypatch):
    xs, values = (1.0, 2.0, 3.0), (1.0 + 5e-11, 1.0 + 5e-11 + 5e-11, -5e-11)
    assert SurvivalCurve(xs, values).values.tolist() == list(values)
    monkeypatch.setattr(systems, "_survivals", lambda systems_, x: np.array([values]))
    assert curves(gumbel_barnett_pair()[:1], xs)[0].values.tolist() == list(values)


def test_curves_are_read_only_copies_of_the_callers_grid():
    sx, sy = gumbel_barnett_pair()
    xs = demo_grid(50)
    cx, cy = curves((sx, sy), xs)
    for arr in (cx.xs, cx.values, cy.values):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    xs[0] = 0.5  # the caller's grid stays writeable and is not shared
    assert cx.xs[0] == demo_grid(50)[0]
    # a public construction keeps its own copy
    assert SurvivalCurve(cx.xs, cx.values).xs is not cx.xs


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


def test_system_accepts_numpy_scalars():
    exp = BaselineSpec("exponential", (1.0,))
    loc = SemiParamModel("location", exp)
    for theta in (np.array([-3.0, 1.0]), (np.int64(-3), np.float32(1.0))):
        s = SystemSpec(np.int64(2), loc, theta, GeneratorSpec("independence"))
        assert (s.n, s.theta) == (2, (-3.0, 1.0))
        assert type(s.n) is int and all(type(t) is float for t in s.theta)


@pytest.mark.parametrize("gen_theta, alpha, lam", [
    (np.int64(3), np.int32(1), np.int64(2)),
    (np.float64(3.5), np.float32(0.5), np.float16(2.0)),
], ids=["numpy-int", "numpy-float"])
def test_numpy_scalar_spec_fields_survive_json(gen_theta, alpha, lam):
    m = SemiParamModel("mphrs", BaselineSpec("weibull", (1.0, 1.5)), alpha, lam)
    s = SystemSpec(2, m, (np.float32(0.5), np.int64(2)), GeneratorSpec("clayton", gen_theta))
    back = SystemSpec.from_json(json.loads(json.dumps(s.to_json())))
    assert back == s
    assert (back.generator.theta, back.model.alpha, back.model.lam) == (gen_theta, alpha, lam)
    # a Python int stays an int, so a CLI spec's echo keeps its "3"
    assert GeneratorSpec("clayton", 3).to_json() == {"family": "clayton", "theta": 3}


@pytest.mark.parametrize("kind, theta, message", [
    ("scale", (np.nan, 1.0), "scale theta must be positive and finite, got nan"),
    ("scale", (np.float64(-np.inf), 1.0), "scale theta must be positive and finite, got -inf"),
    ("scale", (0.0, 1.0), "scale theta must be positive and finite, got 0.0"),
    # an entry is shown as the caller gave it, as a BaselineSpec parameter is
    ("phr", (1.0, -2), "phr theta must be positive and finite, got -2"),
    ("location", (-3.0, np.inf), "location theta must be finite, got inf"),
], ids=["nan", "-inf", "zero", "negative", "location-inf"])
def test_system_refuses_theta_outside_the_domain(kind, theta, message):
    m = SemiParamModel(kind, BaselineSpec("exponential", (1.0,)))
    with pytest.raises(ValidationError) as err:
        SystemSpec(2, m, theta, GeneratorSpec("independence"))
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda m, g: SystemSpec(2, "scale", (1.0, 1.0), g),
     "system model must be a SemiParamModel, got 'scale'"),
    (lambda m, g: SystemSpec(2, m, (1.0, 1.0), "clayton"),
     "system generator must be a GeneratorSpec, got 'clayton'"),
    (lambda m, g: SemiParamModel("scale", "weibull"),
     "model baseline must be a BaselineSpec, got 'weibull'"),
    (lambda m, g: SystemSpec(2, m, 5, g), "system theta must be 2 numbers, got 5"),
    (lambda m, g: BaselineSpec("weibull", 5),
     "weibull takes 2 parameters ('scale', 'shape'), got 5"),
    # a long sequence is shown by its first six entries, not echoed whole
    (lambda m, g: SystemSpec(2, m, [1.0] * 10**5, g),
     "system theta must be 2 numbers, got [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]"),
    (lambda m, g: BaselineSpec("weibull", tuple(range(1, 10**5))),
     "weibull takes 2 parameters ('scale', 'shape'), got (1, 2, 3, 4, 5, 6, ...)"),
], ids=["model-text", "generator-text", "baseline-text", "theta-number", "params-number",
        "theta-long", "params-long"])
def test_spec_constructors_refuse_a_field_of_the_wrong_type(build, message):
    model = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 2.0)))
    with pytest.raises(ValidationError) as err:
        build(model, GeneratorSpec("clayton", 2.0))
    assert str(err.value) == message


@pytest.mark.parametrize("obj, message", [
    ([], "system spec must be an object"),
    ({"n": 2, "model": {}, "theta": [1.0, 2.0]}, "system spec missing 'generator'"),
    ({"n": 2, "generator": {"family": "independence"}, "model": {"kind": "scale", "baseline": {
        "family": "exponential", "params": [1.0]}}, "theta": 1.0},
     "system theta must be 2 numbers, got 1.0"),
], ids=["list", "no-generator", "theta-number"])
def test_system_from_json_refuses_a_malformed_object(obj, message):
    with pytest.raises(ValidationError) as err:
        SystemSpec.from_json(obj)
    assert str(err.value) == message


def test_homogeneous_x2n_refuses_a_nan_u():
    with pytest.raises(ValidationError) as err:
        homogeneous_x2n(GeneratorSpec("clayton", 2.0), [0.5, np.nan], 3)
    assert str(err.value) == "u must lie in [0, 1], got nan"


@pytest.mark.parametrize("u", [1.5, -0.2])
def test_homogeneous_x2n_refuses_a_u_outside_0_1(u):
    # the closed form clipped these to 1 and 0
    with pytest.raises(ValidationError) as err:
        homogeneous_x2n(GeneratorSpec("clayton", 2.0), u, 3)
    assert str(err.value) == f"u must lie in [0, 1], got {u}"


@pytest.mark.parametrize("n, message", [
    (1, "system n must be at least 2, got 1"),
    (0, "system n must be at least 2, got 0"),
    (2.5, "system n must be an integer, got 2.5"),
    (True, "system n must be an integer, got True"),
    ("3", "system n must be an integer, got '3'"),
    (np.nan, "system n must be an integer, got nan"),
], ids=["1", "0", "2.5", "bool", "string", "nan"])
def test_homogeneous_x2n_refuses_the_n_a_system_refuses(n, message):
    # n = 0 evaluated to NaN with a RuntimeWarning, the others to a number
    with pytest.raises(ValidationError) as err:
        homogeneous_x2n(GeneratorSpec("clayton", 2.0), 0.5, n)
    with pytest.raises(ValidationError) as spec_err:
        SystemSpec(n, SemiParamModel("scale", BaselineSpec("exponential", (1.0,))),
                   (1.0, 2.0), GeneratorSpec("clayton", 2.0))
    assert str(err.value) == str(spec_err.value) == message


def test_homogeneous_x2n_takes_an_integral_float_n():
    gen = GeneratorSpec("clayton", 2.0)
    assert homogeneous_x2n(gen, 0.5, 3.0) == homogeneous_x2n(gen, 0.5, 3)


@pytest.mark.parametrize("xs, columns, message", [
    ([1.0, 2.0], {"a": [0.9, 0.5], "b": [0.9]},
     "curve columns need one number per point of a 1-d grid"),
    # numpy's ValueError once escaped here
    (["a", "b"], {"s": [0.5, 0.4]}, "curve x must be a number, got 'a'"),
    ([1.0, 2.0], {"s": [0.5, None]}, "curve s entry must be a number, got None"),
    # once written as 2 rows whose x was a quoted list
    ([[1.0, 2.0], [3.0, 4.0]], {"s": [0.9, 0.8, 0.7, 0.6]},
     "curve columns need one number per point of a 1-d grid"),
], ids=["column-lengths", "text-grid", "None-entry", "2-d-grid"])
def test_write_curve_csv_refuses_a_malformed_curve(tmp_path, xs, columns, message):
    path = tmp_path / "curve.csv"
    with pytest.raises(ValidationError) as err:
        write_curve_csv(str(path), xs, columns)
    assert str(err.value) == message
    assert not path.exists()
