"""One rule for every numeric argument: ``errors.real_array`` (and
``real_number`` for scalars).  Every public entry that takes numbers
refuses a malformed value with a ValidationError from that rule, and reads
the same numbers alike whatever container holds them.  Every public
evaluator reads its points through ``errors.point_array``, which refuses
NaN and a point outside its domain, and returns through
``errors.evaluate``, which holds the one np.errstate and returns a float
for a scalar point."""

import array
import math
import re
import warnings

import numpy as np
import pytest

from failsafekit import (
    BaselineSpec,
    GeneratorSpec,
    Preorder,
    SemiParamModel,
    SurvivalCurve,
    SystemSpec,
    ValidationError,
    classify,
    curve,
    curves,
    empirical_survival_x2n,
    holds,
    homogeneous_x2n,
    lower_bound_plarger,
    lower_bound_rm,
    phi,
    psi,
    schur_condition_probe,
    second_smallest,
    sp_quantile,
    sp_survival,
    survival_x2n,
)
from failsafekit.fitlab import (
    LifetimeDataset,
    cvm_gof,
    fit_copula,
    fixed_shape_weibull_scale,
    frank_tau,
    mle_fit,
    pseudo_observations,
    tau_to_theta,
)
from failsafekit.generators import FAMILIES, log_psi
from failsafekit.models import (
    _FAMILIES,
    _KINDS,
    BASELINE_FAMILIES,
    hazard,
    inverse_log_sf,
    linear_grid,
    log_pdf,
    log_sf,
    pdf,
    quantile,
    sf,
    sp_inverse_log_survival,
    sp_log_survival,
)

G = GeneratorSpec("clayton", 2.0)
B = BaselineSpec("weibull", (1.0, 2.0))
M = SemiParamModel("scale", B)
SYS = SystemSpec(3, M, (1.0, 2.0, 4.0), G)
# every value below is exact in float32, so a float32 array holds the same numbers
X = [1.0, 2.0, 3.0]
THETA = [1.0, 2.0, 4.0]
LIFETIMES = [[1.0, 2.0, 3.0], [0.5, 4.0, 1.5], [2.0, 0.25, 3.0], [1.5, 1.0, 0.75]]
DATA = [1.0, 2.0, 3.0, 4.0, 5.5]
# mean Kendall tau 1/3: clayton theta 1, inside the bootstrap's sampler range
PSEUDO = [[0.125, 0.25], [0.375, 0.125], [0.625, 0.75], [0.875, 0.625]]

# name -> (call of the one numeric argument, a valid vector, a valid scalar or None)
ENTRIES = {
    "psi": (lambda v: psi(G, v), X, 2.0),
    "log_psi": (lambda v: log_psi(G, v), X, 2.0),
    "phi": (lambda v: phi(G, v), [0.25, 0.5, 1.0], 1.0),
    "log_sf": (lambda v: log_sf(B, v), X, 2.0),
    "sf": (lambda v: sf(B, v), X, 2.0),
    "log_pdf": (lambda v: log_pdf(B, v), X, 2.0),
    "pdf": (lambda v: pdf(B, v), X, 2.0),
    "hazard": (lambda v: hazard(B, v), X, 2.0),
    "inverse_log_sf": (lambda v: inverse_log_sf(B, v), [-0.5, -1.0, -2.0], -1.0),
    "quantile": (lambda v: quantile(B, v), [0.25, 0.5, 0.75], 0.5),
    "sp_survival x": (lambda v: sp_survival(M, v, 2.0), X, 2.0),
    "sp_survival theta": (lambda v: sp_survival(M, 1.0, v), THETA, 2.0),
    "sp_log_survival x": (lambda v: sp_log_survival(M, v, 2.0), X, 2.0),
    "sp_log_survival theta": (lambda v: sp_log_survival(M, 1.0, v), THETA, 2.0),
    "sp_inverse_log_survival ls": (lambda v: sp_inverse_log_survival(M, v, 2.0),
                                   [-0.5, -1.0, -2.0], -1.0),
    "sp_inverse_log_survival theta": (lambda v: sp_inverse_log_survival(M, -1.0, v), THETA, 2.0),
    "sp_quantile prob": (lambda v: sp_quantile(M, v, 2.0), [0.25, 0.5, 0.75], 0.5),
    "sp_quantile theta": (lambda v: sp_quantile(M, 0.5, v), THETA, 2.0),
    "theta_in_domain": (M.theta_in_domain, THETA, 2.0),
    "BaselineSpec": (lambda v: BaselineSpec("weibull", v), [1.0, 2.0], None),
    "SystemSpec": (lambda v: SystemSpec(3, M, v, G), THETA, None),
    "survival_x2n": (lambda v: survival_x2n(SYS, v), X, 2.0),
    "curve": (lambda v: curve(SYS, v), X, None),
    "curves": (lambda v: curves((SYS, SYS), v), X, None),
    "SurvivalCurve xs": (lambda v: SurvivalCurve(v, [1.0, 0.5, 0.25]), X, None),
    "SurvivalCurve values": (lambda v: SurvivalCurve(X, v), [1.0, 0.5, 0.25], None),
    "homogeneous_x2n": (lambda v: homogeneous_x2n(G, v, 3), [0.25, 0.5, 1.0], 1.0),
    "lower_bound_plarger": (lambda v: lower_bound_plarger(SYS, v), X, 2.0),
    "lower_bound_rm": (lambda v: lower_bound_rm(SYS, v), X, 2.0),
    "schur_condition_probe": (lambda v: schur_condition_probe(SYS, xs=v), X, None),
    "empirical_survival_x2n x": (lambda v: empirical_survival_x2n(LIFETIMES, v), X, 2.0),
    "empirical_survival_x2n lifetimes": (lambda v: empirical_survival_x2n(v, 1.0), LIFETIMES,
                                         None),
    "second_smallest": (second_smallest, LIFETIMES, None),
    "holds a": (lambda v: holds(Preorder.P_LARGER, v, [1.5, 2.0, 3.0]), THETA, None),
    "holds b": (lambda v: holds(Preorder.P_LARGER, [1.5, 2.0, 3.0], v), THETA, None),
    "classify a": (lambda v: classify(v, [1.5, 2.0, 3.0]), THETA, None),
    "classify b": (lambda v: classify([1.5, 2.0, 3.0], v), THETA, None),
    "mle_fit": (lambda v: mle_fit("weibull", v), DATA, None),
    "fixed_shape_weibull_scale": (lambda v: fixed_shape_weibull_scale(v, 2.0), DATA, None),
    "LifetimeDataset": (lambda v: LifetimeDataset({"w1": v}), DATA, None),
    "pseudo_observations": (pseudo_observations, LIFETIMES, None),
    "fit_copula": (lambda v: fit_copula("clayton", v), PSEUDO, None),
    "cvm_gof": (lambda v: cvm_gof("clayton", v, boot_n=100, seed=1), PSEUDO, None),
}


def _with_last(base, entry):
    """base with its last entry, at the deepest level, replaced by entry."""
    if isinstance(base[-1], list):
        return base[:-1] + [_with_last(base[-1], entry)]
    return base[:-1] + [entry]


def _ragged(base):
    """base with one row shorter than the others (a 1-d base becomes two rows)."""
    if isinstance(base[-1], list):
        return base[:-1] + [base[-1][:-1]]
    return [base, base[:-1]]


# name -> the malformed value made from a valid one
BAD = {
    "text": lambda base: "ab",
    "numeric text": lambda base: "2",
    "text entry": lambda base: _with_last(base, "a"),
    "bool": lambda base: True,
    "bool entry": lambda base: _with_last(base, True),
    "numpy bool entry": lambda base: _with_last(base, np.True_),
    "None entry": lambda base: _with_last(base, None),
    "ragged rows": _ragged,
    "arrays of unequal shape": lambda base: [np.ones((2, 3)), np.ones((2, 4))],
    "set": lambda base: set(np.ravel(base).tolist()),
    "dict": lambda base: {"a": 1.0},
    "generator": lambda base: (v for v in base),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_numeric_entry_refuses_a_malformed_value(entry, bad):
    call, base, _ = ENTRIES[entry]
    with pytest.raises(ValidationError) as err:
        call(BAD[bad](base))
    # the number rule refused it, not a shape or domain rule further on
    assert re.search(r"must be a number, got ", str(err.value)), str(err.value)


def _canon(obj):
    """obj as nested tuples that compare equal only if every float has the same bits."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((repr(k), _canon(v)) for k, v in obj.items())
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _canon(vars(obj)))
    return repr(obj)


def _tuples(arr: np.ndarray):
    """arr as nested tuples of np.float64."""
    return arr[()] if arr.ndim == 0 else tuple(_tuples(row) for row in arr)


class _ArrayLike:
    """An object that numpy reads through ``__array__``, as a pandas Series."""

    def __init__(self, arr):
        self.arr = arr

    def __array__(self, dtype=None, copy=None):
        return self.arr


def _forms(value) -> dict:
    """The containers a caller may hold value in, each with the same numbers."""
    arr = np.array(value, dtype=float)
    forms = {"list": arr.tolist(), "tuple of np.float64": _tuples(arr), "float64 array": arr,
             "float32 array": arr.astype(np.float32), "__array__ object": _ArrayLike(arr)}
    if np.array_equal(arr, np.round(arr)):
        forms["int"] = arr.astype(int).tolist()
    return forms


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_numeric_entry_reads_each_container_alike(entry):
    call, base, scalar = ENTRIES[entry]
    for value in (base,) if scalar is None else (base, scalar):
        got = {name: _canon(call(form)) for name, form in _forms(value).items()}
        want = got.pop("float64 array")
        assert all(v == want for v in got.values()), (value, sorted(got))


def test_a_float64_array_comes_back_uncopied():
    from failsafekit.errors import real_array

    xs = np.linspace(0.5, 2.0, 7)
    assert real_array(xs, "x") is xs


@pytest.mark.parametrize("value, want", [
    (range(1, 4), [1.0, 2.0, 3.0]),
    (array.array("d", [0.5, 2.0]), [0.5, 2.0]),
    (_ArrayLike(np.array([[1, 2], [3, 4]])), [[1.0, 2.0], [3.0, 4.0]]),
    ([[1, 2], [3.0, np.float64(4.0)]], [[1.0, 2.0], [3.0, 4.0]]),
    ([[1.0, 10**400], [-10**400, 2]], [[1.0, math.inf], [-math.inf, 2.0]]),
    ([np.float32(0.5), np.int64(3)], [0.5, 3.0]),
], ids=["range", "buffer", "__array__", "nested ints and floats", "huge ints",
        "numpy scalars"])
def test_real_array_reads_other_array_likes_and_mixed_number_types(value, want):
    from failsafekit.errors import real_array

    got = real_array(value, "x")
    assert got.dtype == np.float64 and got.tolist() == want


@pytest.mark.parametrize("value", [_ArrayLike(np.array([1.0, True], dtype=object)),
                                   _ArrayLike(np.array(["1.0"])), _ArrayLike(np.array([True]))],
                         ids=["bool entry", "text", "bool array"])
def test_real_array_holds_array_likes_to_the_number_rule(value):
    from failsafekit.errors import real_array

    with pytest.raises(ValidationError, match="x must be a number, got "):
        real_array(value, "x")


@pytest.mark.parametrize("call, message", [
    (lambda: linear_grid("a", 1.0, 10), "x-min must be a number, got 'a'"),
    (lambda: linear_grid(True, 5.0, 3), "x-min must be a number, got True"),
    (lambda: linear_grid(0.0, "b", 3), "x-max must be a number, got 'b'"),
    (lambda: frank_tau("a"), "frank theta must be a number, got 'a'"),
    (lambda: frank_tau(math.nan), "frank theta must be positive, got nan"),
    (lambda: tau_to_theta("clayton", "a"), "clayton tau must be a number, got 'a'"),
    (lambda: tau_to_theta("clayton", True), "clayton tau must be a number, got True"),
], ids=["grid-text", "grid-bool", "grid-max-text", "frank-text", "frank-nan", "tau-text",
        "tau-bool"])
def test_scalar_arguments_follow_the_number_rule(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda: second_smallest([[1.0] * 10**4, [1.0]]),
    lambda: homogeneous_x2n(GeneratorSpec("clayton", 2.0), 0.5, [3] * 10**4),
], ids=["real_number", "whole_number"])
def test_a_long_refused_value_is_shown_cut_short(call):
    # the whole row was once echoed: 50 031 characters for the first
    with pytest.raises(ValidationError) as err:
        call()
    assert re.search(r"must be (a number|an integer), got \[", str(err.value)), str(err.value)
    assert len(str(err.value)) < 200, len(str(err.value))


def test_scalar_arguments_still_take_numpy_numbers():
    want = linear_grid(0.5, 2.0, 4)
    assert linear_grid(np.float32(0.5), np.int64(2), 4).tobytes() == want.tobytes()
    assert frank_tau(np.float64(2.0)) == frank_tau(2.0)
    assert tau_to_theta("clayton", np.float64(0.25)) == tau_to_theta("clayton", 0.25)


#: The entries that evaluate at points: each one with a valid scalar but
#: theta_in_domain, which tests a theta and refuses none.
POINT_ENTRIES = sorted(name for name, (_, _, scalar) in ENTRIES.items()
                       if scalar is not None and name != "theta_in_domain")


@pytest.mark.parametrize("inside", [False, True], ids=["alone", "inside the vector"])
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_every_point_argument_refuses_nan(entry, inside):
    # log_sf, sf, log_pdf, pdf and hazard read NaN as a point (log_pdf as
    # -inf, off the support), and both inverses returned NaN
    call, base, _ = ENTRIES[entry]
    with pytest.raises(ValidationError, match="nan"):
        call(_with_last(base, math.nan) if inside else math.nan)


@pytest.mark.parametrize("ls", [0.5, [-1.0, 0.5], math.inf], ids=["alone", "inside", "inf"])
@pytest.mark.parametrize("entry", ["inverse_log_sf", "sp_inverse_log_survival ls"])
def test_both_inverses_refuse_a_log_survival_above_0(entry, ls):
    # inverse_log_sf(exponential(1), 0.5) was -0.5, a negative lifetime, and
    # NaN over weibull(1, 1.5)
    with pytest.raises(ValidationError) as err:
        ENTRIES[entry][0](ls)
    assert str(err.value) == f"ls must be at most 0, got {np.max(ls)}"


@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_a_scalar_point_returns_the_float_of_the_same_point_in_a_batch(entry):
    call, _, scalar = ENTRIES[entry]
    got, batch = call(scalar), call([scalar])
    assert type(got) is float
    assert type(batch) is np.ndarray and batch.shape == (1,)
    assert got.hex() == float(batch[0]).hex()


# the ends of each point domain: x real (a lifetime at least 0), ls <= 0, a
# probability in (0, 1), t >= 0, u in (0, 1] for phi and [0, 1] for homogeneous_x2n
X_ENDS = [0.0, 1e-300, 1e300, math.inf]
LS_ENDS = [0.0, -math.inf]
PROB_ENDS = [1e-300, 1.0 - 1e-16]


def _meet_without_a_warning(doors):
    """Call each door at every end of its domain, alone and as one vector."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, ends in doors:
            call(ends)
            for v in ends:
                call(v)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("family", BASELINE_FAMILIES)
def test_every_model_door_meets_the_ends_of_its_domain_without_a_warning(family, kind):
    b = BaselineSpec(family, (1.5,) * len(_FAMILIES[family].names))
    m = SemiParamModel(kind, b, **{"mphrs": {"alpha": 2.0, "lam": 1.5}, "ls": {"lam": -0.5}}.get(kind, {}))
    sysd = SystemSpec(2, m, (1.5, 2.0), G)
    doors = [(lambda v, f=f: f(b, v), X_ENDS) for f in (log_sf, sf, log_pdf, pdf, hazard)]
    doors += [(lambda v: inverse_log_sf(b, v), LS_ENDS), (lambda v: quantile(b, v), PROB_ENDS),
              (lambda v: sp_survival(m, v, 2.0), X_ENDS), (lambda v: sp_log_survival(m, v, 2.0), X_ENDS),
              (lambda v: sp_inverse_log_survival(m, v, 2.0), LS_ENDS),
              (lambda v: sp_quantile(m, v, 2.0), PROB_ENDS), (lambda v: survival_x2n(sysd, v), X_ENDS),
              (lambda v: lower_bound_plarger(sysd, v), X_ENDS), (lambda v: lower_bound_rm(sysd, v), X_ENDS)]
    _meet_without_a_warning(doors)
    # x = +inf is off the support: weibull, exp_weibull, burr, gen_gamma and gamma read NaN there
    assert (log_pdf(b, math.inf), pdf(b, math.inf)) == (-math.inf, 0.0)
    assert log_pdf(b, X_ENDS)[-1] == -math.inf and pdf(b, X_ENDS)[-1] == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_every_generator_door_meets_the_ends_of_its_domain_without_a_warning(family):
    g = GeneratorSpec(family, None if family == "independence"
                      else 0.5 if family in ("amh", "gumbel_barnett") else 1.5)
    _meet_without_a_warning([(lambda v: psi(g, v), [0.0, math.inf]),
                             (lambda v: log_psi(g, v), [0.0, math.inf]), (lambda v: phi(g, v), [1.0]),
                             (lambda v: homogeneous_x2n(g, v, 3), [0.0, 1.0])])
