import re
import time

import numpy as np
import pytest

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    LogShape,
    SemiParamModel,
    SystemSpec,
    UnsupportedGeneratorError,
    ValidationError,
    classify_log_shape,
    empirical_survival_x2n,
    sample_copula,
    sample_lifetimes,
    second_smallest,
    sp_survival,
    survival_x2n,
)
from failsafekit import mcsim
from failsafekit.fitlab import _twice_ranks
from failsafekit.generators import is_independence
from failsafekit.mcsim import (
    THETA_MAX,
    _draw_times,
    _philox_keys,
    _sample_log_series,
    _sample_positive_stable,
)
from test_systems import scale_exp_system

N_BIG = 100_000


# ------------------------------------------------------------- uniforms
def test_reproducible_batches():
    g = GeneratorSpec("clayton", 2.0)
    a = sample_copula(g, 3, 5000, seed=123).uniforms
    b = sample_copula(g, 3, 5000, seed=123).uniforms
    assert np.array_equal(a, b)
    c = sample_copula(g, 3, 5000, seed=124).uniforms
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_sample_copula_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValidationError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        sample_copula(GeneratorSpec("clayton", 2.0), 2, 10, seed=seed)
    assert sample_copula(GeneratorSpec("clayton", 2.0), 2, 10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("seed", [2.9, 1.0, "5", True, None])
def test_sample_copula_refuses_a_seed_that_is_not_an_integer(seed):
    # a seed is an integer: int() would truncate 2.9 to 2 and read "5" and True
    message = f"seed must be an integer, got {seed!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        sample_copula(GeneratorSpec("clayton", 2.0), 2, 3, seed=seed)
    for ok in (np.int64(3), np.uint64(2 ** 64 - 1)):
        assert sample_copula(GeneratorSpec("clayton", 2.0), 2, 3, seed=ok).seed == int(ok)


@pytest.mark.parametrize("g", [GeneratorSpec("gumbel", 1.0), GeneratorSpec("amh", 0.0)])
def test_independence_reductions_sample_as_independence(g):
    # gumbel(1) and amh(0) are the independence copula: one predicate says
    # so to the sampler and to the log-shape table
    assert is_independence(g)
    want = sample_copula(GeneratorSpec("independence"), 3, 500, seed=9).uniforms
    assert sample_copula(g, 3, 500, seed=9).uniforms.tobytes() == want.tobytes()
    assert classify_log_shape(g).shape is LogShape.BOTH


#: The refusal of each generator that no frailty sampler takes.
REFUSALS = {
    ("gumbel_barnett", 0.5): "gumbel_barnett is not completely monotone: no frailty sampler exists",
    ("gumbel_hougaard", 2.0): "gumbel_hougaard is not completely monotone: no frailty sampler exists",
    ("amh", -0.5): "amh with negative dependence has no positive frailty",
    ("frank", 800.0): "frank sampling needs theta <= 700",
    ("clayton", 100.0): "clayton sampling needs theta <= 50",
    ("gumbel", 100.0): "gumbel sampling needs theta <= 50",
}


@pytest.mark.parametrize("family,theta", list(REFUSALS))
def test_unsupported_families_raise(monkeypatch, family, theta):
    # refused before a key is derived or a generator made, so a refused
    # batch of millions of rows costs no time and no memory
    def no_draw(seeds):
        raise AssertionError("seeded a generator before refusing")

    monkeypatch.setattr(mcsim, "_philox_keys", no_draw)
    with pytest.raises(UnsupportedGeneratorError) as err:
        sample_copula(GeneratorSpec(family, theta), 5, 3_000_000, seed=0)
    assert str(err.value) == f"{REFUSALS[family, theta]}; use the analytic survival path instead"


@pytest.mark.parametrize("family,theta", [
    ("clayton", 1.5), ("gumbel", 1.0), ("gumbel", 1.7), ("frank", 4.0), ("frank", 600.0),
    *THETA_MAX.items(),
])
def test_bootstrap_ranks_equal_sample_copula_ranks_per_seed(family, theta):
    # psi is decreasing, so the CvM bootstrap ranks a block of draws E / V
    # negated instead of their uniforms: the twice-ranks equal those of each
    # seed's sample_copula batch
    g = GeneratorSpec(family, theta)
    seeds = np.random.SeedSequence(4).generate_state(7, dtype=np.uint64)
    block = _twice_ranks(-_draw_times(g, 3, 13, seeds))
    for twice, s in zip(block, seeds):
        u = sample_copula(g, 3, 13, int(s)).uniforms
        assert np.array_equal(twice, _twice_ranks(u[None])[0])


@pytest.mark.parametrize("seeds", [
    [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1],
    np.random.default_rng(53).integers(0, 2 ** 64, 2000, dtype=np.uint64, endpoint=False),
], ids=["edges", "random"])
def test_philox_keys_equal_numpy_philox_keys(seeds):
    # one uint32 pass over every seed hashes as numpy's SeedSequence does, the
    # high word of a seed below 2**32 as the pool's filler
    want = np.array([np.random.Philox(int(s)).state["state"]["key"] for s in seeds])
    assert np.array_equal(_philox_keys(np.asarray(seeds, dtype=np.uint64)), want)


def _philox_draw(g, n, count, seed):
    """One seed's E / V as drawn from its own Philox(seed) generator."""
    rng = np.random.Generator(np.random.Philox(int(seed)))
    e = rng.exponential(size=(count, n))
    if is_independence(g):
        return e
    if g.family == "clayton":
        v = rng.gamma(shape=1.0 / g.theta, scale=g.theta, size=count)
    elif g.family == "gumbel":
        v = _sample_positive_stable(1.0 / g.theta, count, rng)
    elif g.family == "frank":
        v = _sample_log_series(-g.theta, count, rng)
    else:
        v = 1.0 + np.floor(np.log(rng.random(count)) / np.log(g.theta))
    with np.errstate(divide="ignore", over="ignore"):
        return e / v[:, None]


@pytest.mark.parametrize("family,theta", [
    ("independence", None), ("clayton", 1.5), ("gumbel", 1.7), ("frank", 4.0), ("amh", 0.6),
    *THETA_MAX.items(),
])
def test_a_block_draw_equals_per_seed_philox_draws(family, theta):
    # one generator keyed seed by seed draws what a Philox(seed) generator per
    # seed draws, bit for bit; the bootstrap and sample_copula both draw so
    g = GeneratorSpec(family, theta)
    seeds = np.concatenate([np.random.SeedSequence(5).generate_state(40, dtype=np.uint64),
                            np.array([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1], np.uint64)])
    want = np.stack([_philox_draw(g, 3, 17, s) for s in seeds])
    assert _draw_times(g, 3, 17, seeds).tobytes() == want.tobytes()
    assert _draw_times(g, 3, 17, seeds[:1]).tobytes() == want[:1].tobytes()


@pytest.mark.parametrize("n, count, message", [
    (0, 10, "n must be at least 1, got 0"),
    (3, 0, "count must be at least 1, got 0"),
    (-1, 5, "n must be at least 1, got -1"),
], ids=["0-10", "3-0", "-1-5"])
def test_sample_copula_refuses_no_components_or_no_rows(n, count, message):
    with pytest.raises(ValidationError) as err:
        sample_copula(GeneratorSpec("clayton", 2.0), n, count, seed=1)
    assert str(err.value) == message


#: Malformed counts with the message tail each draws; every count is at least 1.
_BAD_COUNTS = {"fraction": (5.5, "must be an integer, got 5.5"),
               "bool": (True, "must be an integer, got True"),
               "string": ("5", "must be an integer, got '5'"),
               "nan": (np.nan, "must be an integer, got nan"),
               "below-minimum": (0, "must be at least 1, got 0"),
               # past numpy's largest float64 array: numpy's ValueError
               "beyond-numpy": (2 ** 60, f"must be at most {2 ** 60 - 1}, got {2 ** 60}")}


@pytest.mark.parametrize("case", sorted(_BAD_COUNTS))
@pytest.mark.parametrize("arg", ["n", "count"])
def test_sample_copula_refuses_a_malformed_count(arg, case):
    # all but the minimum raised a bare TypeError from numpy
    value, tail = _BAD_COUNTS[case]
    counts = {"n": 3, "count": 5, arg: value}
    with pytest.raises(ValidationError) as err:
        sample_copula(GeneratorSpec("clayton", 2.0), counts["n"], counts["count"], seed=1)
    assert str(err.value) == f"{arg} {tail}"


def test_sample_copula_refuses_a_draw_numpy_cannot_index():
    # each count fits, but a (2**59, 2) exponential draw raised "array is too big"
    with pytest.raises(ValidationError) as err:
        sample_copula(GeneratorSpec("clayton", 2.0), 2, 2 ** 59, seed=1)
    assert str(err.value) == f"count x n must be at most {2 ** 60 - 1}, got {2 ** 60}"


@pytest.mark.parametrize("case", sorted(_BAD_COUNTS))
def test_sample_lifetimes_refuses_a_malformed_count(case):
    value, tail = _BAD_COUNTS[case]
    sys_ = scale_exp_system(GeneratorSpec("clayton", 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValidationError) as err:
        sample_lifetimes(sys_, value, 1)
    assert str(err.value) == f"count {tail}"


def test_sample_copula_takes_integral_float_counts_as_their_ints():
    g = GeneratorSpec("clayton", 2.0)
    want = sample_copula(g, 3, 5, seed=1).uniforms
    assert sample_copula(g, 3.0, 5.0, seed=1).uniforms.tobytes() == want.tobytes()
    assert sample_copula(g, np.int64(3), np.int32(5), seed=1).uniforms.tobytes() == want.tobytes()


LIFETIMES_RULE = "lifetimes must be a numeric matrix with >= 2 columns and no NaN"


@pytest.mark.parametrize("lifetimes, message", [
    (np.ones((4, 1)), LIFETIMES_RULE),
    (np.ones(4), LIFETIMES_RULE),
    ("ab", "lifetime must be a number, got 'ab'"),
    ([[1.0, "a"], [2.0, 3.0]], "lifetime must be a number, got 'a'"),
    ([[1.0, 2.0], [3.0]], "lifetime must be a number, got [1.0, 2.0]"),  # a ragged row
    (np.array([[np.nan, 1.0], [1.0, 2.0]]), LIFETIMES_RULE),
], ids=["one-column", "1-d", "text", "text-entry", "ragged", "nan"])
def test_second_smallest_needs_two_columns(lifetimes, message):
    with pytest.raises(ValidationError) as err:
        second_smallest(lifetimes)
    assert str(err.value) == message
    # empirical_survival_x2n takes its lifetimes through second_smallest
    with pytest.raises(ValidationError) as err:
        empirical_survival_x2n(lifetimes, 1.0)
    assert str(err.value) == message


def test_second_smallest_reads_an_infinite_lifetime_as_never_failing():
    lt = np.array([[np.inf, 1.0, np.inf], [1.0, 2.0, 3.0]])
    assert second_smallest(lt).tolist() == [np.inf, 2.0]
    assert empirical_survival_x2n(lt, 1.5) == 1.0


def test_positive_stable_laplace_transform():
    rng = np.random.Generator(np.random.Philox(11))
    for alpha in (0.4, 0.5, 0.75):
        v = _sample_positive_stable(alpha, 200_000, rng)
        for t in (0.5, 1.0, 3.0):
            emp = np.mean(np.exp(-t * v))
            assert emp == pytest.approx(np.exp(-(t ** alpha)), abs=0.004), (alpha, t)


def test_log_series_pmf():
    rng = np.random.Generator(np.random.Philox(12))
    p = 0.8
    v = _sample_log_series(np.log1p(-p), 400_000, rng)
    norm = -1.0 / np.log1p(-p)
    for k in range(1, 7):
        want = norm * p ** k / k
        assert np.mean(v == k) == pytest.approx(want, abs=0.004), k


# ------------------------------------------------------------ lifetimes
def test_lifetime_marginal_mean():
    # scale-exponential with theta=2 is exponential(2): mean 1/2
    sysd = scale_exp_system(GeneratorSpec("independence"), (2.0, 2.0))
    lt = sample_lifetimes(sysd, N_BIG, seed=21)
    se = 0.5 / np.sqrt(N_BIG)
    assert abs(lt[:, 0].mean() - 0.5) < 3 * se


def test_lifetime_independence_uncorrelated():
    sysd = scale_exp_system(GeneratorSpec("independence"), (1.0, 1.0))
    lt = sample_lifetimes(sysd, N_BIG, seed=23)
    corr = np.corrcoef(lt[:, 0], lt[:, 1])[0, 1]
    assert abs(corr) < 0.01


def test_lifetime_reproducibility():
    sysd = scale_exp_system(GeneratorSpec("clayton", 1.0), (1.0, 3.0))
    a = sample_lifetimes(sysd, 2000, seed=9)
    b = sample_lifetimes(sysd, 2000, seed=9)
    assert np.array_equal(a, b)


def test_inversion_resolution():
    # sampled lifetimes match the exponential quantile of the same uniforms
    sysd = scale_exp_system(GeneratorSpec("independence"), (2.0,  0.5))
    lt = sample_lifetimes(sysd, 5000, seed=31)
    u = sample_copula(sysd.generator, 2, 5000, seed=31).uniforms
    exact = -np.log(u) / np.array([2.0, 0.5])[None, :]
    assert np.max(np.abs(lt - exact)) < 1e-9


def test_heavy_tail_inversion_is_fast_and_exact():
    # burr(1, 0.5) draws lifetimes above 5e5, where one float ulp exceeds
    # an absolute x-resolution of 1e-10
    m = SemiParamModel("scale", BaselineSpec("burr", (1.0, 0.5)))
    sysd = SystemSpec(3, m, (0.5, 1.0, 2.0), GeneratorSpec("gumbel", 1.5))
    start = time.perf_counter()
    lt = sample_lifetimes(sysd, 20_000, seed=41)
    assert time.perf_counter() - start < 1.0
    u = sample_copula(sysd.generator, 3, 20_000, seed=41).uniforms
    for j, theta in enumerate(sysd.theta):
        assert np.all(np.abs(sp_survival(m, lt[:, j], theta) - u[:, j]) <= 1e-10 * u[:, j]), j


def test_location_atom_at_zero():
    # theta = -0.5 leaves mass 1 - F(0.5) below 0; it must land on 0 exactly
    m = SemiParamModel("location", BaselineSpec("weibull", (1.0, 0.8)))
    sysd = SystemSpec(3, m, (-0.5, 0.2, 1.0), GeneratorSpec("clayton", 2.0))
    count = 20_000
    lt = sample_lifetimes(sysd, count, seed=42)
    assert np.all(lt >= 0.0)
    dkw = np.sqrt(np.log(2.0 / 1e-3) / (2.0 * count))
    atom = 1.0 - sp_survival(m, 0.0, -0.5)
    assert abs(np.mean(lt[:, 0] == 0.0) - atom) <= dkw
    assert np.all(lt[:, 1] >= 0.2) and np.all(lt[:, 2] >= 1.0)


# --------------------------------------------------- empirical survival
def test_empirical_survival_trivial_points():
    lt = np.array([[1.0, 2.0, 3.0], [0.5, 4.0, 5.0]])
    assert empirical_survival_x2n(lt, 0.0) == 1.0
    assert empirical_survival_x2n(lt, 99.0) == 0.0
    # row-wise second-smallest values are 2.0 and 4.0
    assert empirical_survival_x2n(lt, 3.0) == pytest.approx(0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_empirical_survival_equals_the_broadcast_count_bitwise(seed):
    # survivors are counted from one sort; the fractions equal the mean of
    # the count x points comparison matrix, with +inf lifetimes, ties and
    # grid points equal to sample values
    rng = np.random.default_rng(seed)
    lt = np.round(rng.exponential(size=(999, 4)), 1)
    lt[rng.random(lt.shape) < 0.1] = np.inf
    lt[:5, 1:] = np.inf
    second = np.partition(lt, 1, axis=1)[:, 1]
    xs = np.concatenate([[0.0, 0.05, np.inf], rng.choice(second[np.isfinite(second)], 20),
                         rng.uniform(0.0, 3.0, 20)])
    want = np.mean(second[:, None] > xs[None, :], axis=0)
    assert empirical_survival_x2n(lt, xs).tobytes() == want.tobytes()
    assert [empirical_survival_x2n(lt, x) for x in xs.tolist()] == want.tolist()


def test_second_smallest_matches_full_sort():
    rng = np.random.default_rng(17)
    arr = rng.uniform(0.0, 10.0, size=(500, 6))
    assert np.array_equal(second_smallest(arr), np.sort(arr, axis=1)[:, 1])


def test_empty_matrix_rejected():
    with pytest.raises(ValidationError):
        empirical_survival_x2n(np.empty((0, 3)), 1.0)


# --------------------------------------------------- analytic agreement
@pytest.mark.parametrize("gen", [
    GeneratorSpec("independence"),
    GeneratorSpec("clayton", 2.0),
    GeneratorSpec("gumbel", 1.6),
    GeneratorSpec("frank", 4.0),
    GeneratorSpec("amh", 0.5),
], ids=lambda g: g.family)
def test_empirical_matches_analytic_for_all_supported_families(gen):
    count = 200_000
    m = SemiParamModel("scale", BaselineSpec("weibull", (1.5, 0.9)))
    sysd = SystemSpec(3, m, (0.6, 1.0, 1.9), gen)
    lt = sample_lifetimes(sysd, count, seed=77)
    xs = np.linspace(0.05, 4.0, 20)
    emp = empirical_survival_x2n(lt, xs)
    ana = survival_x2n(sysd, xs)
    assert np.max(np.abs(emp - ana)) <= 4.0 / np.sqrt(count), gen
