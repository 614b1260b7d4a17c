import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from failsafekit import (
    GeneratorSpec,
    LogShape,
    ValidationError,
    classify_log_shape,
    homogeneous_x2n,
    is_log_concave,
    is_log_convex,
    log_psi,
    phi,
    psi,
)
from failsafekit import generators
from failsafekit.generators import FAMILIES

ALL_SPECS = [
    GeneratorSpec("independence"),
    GeneratorSpec("clayton", 1.0),
    GeneratorSpec("clayton", 10.0),
    GeneratorSpec("gumbel", 2.0),
    GeneratorSpec("frank", 5.0),
    GeneratorSpec("amh", -0.7),
    GeneratorSpec("amh", 0.6),
    GeneratorSpec("gumbel_barnett", 0.2),
    GeneratorSpec("gumbel_hougaard", 2.5),
]


# ------------------------------------------------------------------ psi
def test_psi_clayton_closed_form():
    assert psi(GeneratorSpec("clayton", 1.0), 1.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_psi_at_zero_is_one(g):
    assert psi(g, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_psi_gumbel_barnett_value():
    # exp((1/0.2)(1 - e)) = exp(5 - 5e), frozen from a 30-digit evaluation
    got = psi(GeneratorSpec("gumbel_barnett", 0.2), 1.0)
    assert got == pytest.approx(math.exp(5.0 * (1.0 - math.e)), rel=1e-15)
    assert got == pytest.approx(1.85694233605070517e-04, rel=1e-12)


@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_psi_monotone_nonincreasing(g):
    ts = np.geomspace(1e-8, 50.0, 300)
    vals = psi(g, ts)
    assert np.all(np.diff(vals) <= 1e-15)


def test_psi_rejects_negative_t():
    g = GeneratorSpec("clayton", 1.0)
    for fn in (psi, log_psi):
        for t in (-0.5, np.array([0.5, -0.5]), np.nan):
            with pytest.raises(ValidationError, match="t must be nonnegative"):
                fn(g, t)


# ------------------------------------------------------------------ phi
@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_phi_at_one_is_zero(g):
    assert phi(g, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_phi_clayton_inverse_of_psi_example():
    assert phi(GeneratorSpec("clayton", 1.0), 0.5) == pytest.approx(1.0, rel=1e-15)


def test_phi_rejects_u_outside_unit_interval():
    g = GeneratorSpec("clayton", 1.0)
    for u in (0.0, -0.5, 1.5, np.nan, np.array([0.5, np.nan]), np.array([0.5, 0.0])):
        with pytest.raises(ValidationError, match=r"u must lie in \(0, 1\]"):
            phi(g, u)


#: family -> thetas at both ends of its range and inside it
EDGE_THETAS = {
    "independence": [None],
    "clayton": [5e-324, 2.0, 1.7e308],
    "gumbel": [1.0, 2.0, 1.7e308],
    "frank": [5e-324, 4.0, 1.7e308],
    "amh": [-1.0, 0.5, 1.0 - 2.0 ** -53],
    "gumbel_barnett": [5e-324, 0.3, 1.0],
    "gumbel_hougaard": [1.0 + 2.0 ** -52, 1.5, 1.7e308],
}


@pytest.mark.parametrize("family, theta", [(f, th) for f in FAMILIES for th in EDGE_THETAS[f]])
def test_ieee_limits_carry_a_dead_component(family, theta):
    # the survival kernel relies on these: u = 0 gives phi = +inf, and a sum
    # that holds it gives psi = 0, for a scalar and a column theta alike.
    # The private kernels run under their caller's np.errstate, as there
    g = GeneratorSpec(family, theta)
    with np.errstate(all="ignore"):
        for th in (g.theta, np.full((2, 1), g.theta) if g.theta is not None else None):
            assert np.all(generators._phi(family, th, np.zeros((2, 3))) == np.inf)
            assert np.all(generators._psi(family, th, np.full((2, 3), np.inf)) == 0.0)
    # the public functions hold that errstate themselves, so a dead component
    # passes them with no floating-point warning (pytest raises RuntimeWarning)
    assert psi(g, np.inf) == 0.0 and log_psi(g, np.inf) == -np.inf
    assert homogeneous_x2n(g, 0.0, 3) == 0.0


def _frank_phi_both_branches(th, u):
    """frank's phi with both branches evaluated everywhere, then selected."""
    with np.errstate(all="ignore"):
        near = -np.log(np.expm1(-th * u) / np.expm1(-th))
        far = np.log1p(-np.exp(-th)) - np.log1p(-np.exp(-th * u))
        return np.where(th * u < math.log(2.0), near, far)


def test_frank_phi_near_zero_theta_is_silent():
    # a refit theta of rounding residue above 0: the far branch would be
    # log1p(-1) - log1p(-1) and warn, though the near branch is selected.
    # phi holds the errstate its kernel runs under, whatever the caller's;
    # the column form is the private kernel's, under its caller's errstate
    us = np.concatenate([np.geomspace(1e-300, 1.0, 300), np.linspace(1e-3, 1.0, 300)])
    thetas = np.array([1.7e-17, 1e-9, 0.01, 0.5, math.log(2.0), 1.0, 5.0, 40.0, 500.0, 800.0])
    with np.errstate(all="raise"):
        got = [phi(GeneratorSpec("frank", th), us) for th in thetas]
    with np.errstate(all="ignore"):
        column = generators._phi("frank", thetas[:, None], us)
    want = _frank_phi_both_branches(thetas[:, None], us)
    finite = np.isfinite(want)
    assert finite.mean() > 0.9
    for out in (np.array(got), column):
        np.testing.assert_array_equal(out[finite], want[finite])


#: family -> a theta interval inside its range, for random generators
THETA_RANGES = {
    "clayton": (0.05, 10.0),
    "gumbel": (1.0, 8.0),
    "frank": (0.1, 500.0),
    "amh": (-1.0, 0.95),
    "gumbel_barnett": (0.05, 1.0),
    "gumbel_hougaard": (1.05, 6.0),
}


def test_phi_roundtrip_random():
    rng = np.random.default_rng(2023)
    count = 0
    for family, (lo, hi) in THETA_RANGES.items():
        for _ in range(170):
            g = GeneratorSpec(family, float(rng.uniform(lo, hi)))
            u = float(rng.uniform(1e-6, 1.0))
            assert abs(psi(g, phi(g, u)) - u) <= 1e-12 * u, (family, g.theta, u)
            count += 1
    assert count >= 1000


def test_phi_rejects_out_of_range():
    g = GeneratorSpec("frank", 2.0)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ValidationError):
            phi(g, bad)


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_calls_equal_the_same_point_in_a_batch(family):
    # numpy's ** on a 0-d value can round differently from its array loop,
    # so a scalar is evaluated as a 1-element array
    rng = np.random.default_rng(22)
    for _ in range(40):
        g = (GeneratorSpec(family) if family == "independence"
             else GeneratorSpec(family, float(rng.uniform(*THETA_RANGES[family]))))
        ts, us = rng.uniform(0.0, 20.0, 25), rng.uniform(1e-6, 1.0, 25)
        for fn, xs in ((psi, ts), (log_psi, ts), (phi, us)):
            batch = fn(g, xs)
            for x, want in zip(xs.tolist(), batch.tolist()):
                got = fn(g, x)
                assert type(got) is float and got == want, (fn.__name__, g, x)


@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_copula_boundary_and_bounds(g):
    # psi(sum phi(u)), the composition the system survival and the copula
    # fits evaluate, has uniform margins and stays below min(u)
    def copula(u):
        return psi(g, float(np.sum(phi(g, np.asarray(u)))))

    rng = np.random.default_rng(31)
    for _ in range(25):
        u = float(rng.uniform(0.05, 0.99))
        assert copula([u, 1.0, 1.0]) == pytest.approx(u, rel=1e-12)
        us = rng.uniform(0.05, 1.0, 4)
        assert 0.0 <= copula(us) <= np.min(us) + 1e-12
    assert copula([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert copula([1e-280, 0.5]) <= 1e-12


# ------------------------------------------------------- classification
TABLE_LOG_CONCAVE = [
    ("gumbel_barnett", 0.1), ("gumbel_barnett", 0.5), ("gumbel_barnett", 1.0),
    ("gumbel_hougaard", 1.5), ("gumbel_hougaard", 3.0),
    ("amh", -1.0), ("amh", -0.5),
]
TABLE_LOG_CONVEX = [
    ("clayton", 0.5), ("clayton", 2.0), ("clayton", 10.0),
    ("gumbel", 1.0), ("gumbel", 2.0),
    ("frank", 1.0), ("frank", 5.0),
    ("amh", 0.2), ("amh", 0.8),
]


@pytest.mark.parametrize("family,theta", TABLE_LOG_CONCAVE)
def test_catalog_log_concave(family, theta):
    rep = classify_log_shape(GeneratorSpec(family, theta))
    assert is_log_concave(rep), rep


@pytest.mark.parametrize("family,theta", TABLE_LOG_CONVEX)
def test_catalog_log_convex(family, theta):
    rep = classify_log_shape(GeneratorSpec(family, theta))
    assert is_log_convex(rep), rep


def test_strict_shapes_are_exclusive():
    assert classify_log_shape(GeneratorSpec("gumbel_barnett", 0.2)).shape is LogShape.LOG_CONCAVE
    assert classify_log_shape(GeneratorSpec("clayton", 10.0)).shape is LogShape.LOG_CONVEX


def test_independence_is_linear_in_log():
    rep = classify_log_shape(GeneratorSpec("independence"))
    assert rep.shape is LogShape.BOTH
    assert rep.to_json() == {"shape": "both", "rule": "log psi = -t is linear"}
    assert classify_log_shape(GeneratorSpec("amh", 0.0)).shape is LogShape.BOTH


def test_frank_near_independence_is_log_convex():
    # the former curvature grid read frank(0.05) as neither (curvature in
    # [-4.1e-3, 6.0e-2]); frank is completely monotone for every theta > 0
    rep = classify_log_shape(GeneratorSpec("frank", 0.05))
    assert rep.shape is LogShape.LOG_CONVEX and "completely monotone" in rep.rule
    # the closed form agrees: d2/dt2 log psi >= 0 by divided differences
    ts = np.linspace(0.01, 20.0, 2001)
    lp = log_psi(GeneratorSpec("frank", 0.05), ts)
    assert np.all(np.diff(lp, 2) >= -1e-15)


def test_amh_shape_follows_the_sign_of_theta():
    assert classify_log_shape(GeneratorSpec("amh", 0.3)).shape is LogShape.LOG_CONVEX
    rep = classify_log_shape(GeneratorSpec("amh", -0.3))
    assert rep.shape is LogShape.LOG_CONCAVE and "< 0 for theta < 0" in rep.rule


def test_gumbel_at_one_reduces_to_independence():
    assert classify_log_shape(GeneratorSpec("gumbel", 1.0)).shape is LogShape.BOTH


@pytest.mark.parametrize(
    "family,theta",
    [
        ("independence", None),
        ("clayton", 0.05), ("clayton", 50.0),
        ("gumbel", 1.0), ("gumbel", 20.0),
        ("frank", 0.1), ("frank", 500.0),
        ("amh", -1.0), ("amh", 0.99),
        ("gumbel_barnett", 0.05), ("gumbel_barnett", 1.0),
        ("gumbel_hougaard", 1.01), ("gumbel_hougaard", 10.0),
    ],
)
def test_catalog_range_ends_are_generators(family, theta):
    # what the catalog ranges guarantee, checked at both ends of the range
    # callers reach: psi(0) = 1, psi nonincreasing, psi decays
    g = GeneratorSpec(family, theta)
    vals = psi(g, np.geomspace(1e-6, 50.0, 24))
    assert abs(psi(g, 0.0) - 1.0) <= 1e-12
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] < 0.999


@pytest.mark.parametrize("theta", [15.0, 40.0, 500.0])
def test_frank_exact_near_zero(theta):
    # log(1 + (e^-theta - 1) e^-t) cancels near t = 0 once theta is large;
    # psi must stay accurate there (reference: decimal at 60 digits, which
    # 120 digits confirm)
    g = GeneratorSpec("frank", theta)
    ts = np.concatenate([[0.0], np.geomspace(1e-10, 60.0, 80)])
    assert psi(g, 0.0) == 1.0

    def reference(t, digits):
        with localcontext(prec=digits):
            th, tt = Decimal(theta), Decimal(t)
            return -(1 - (-tt).exp() + (-th - tt).exp()).ln() / th

    for t, v in zip(ts[1:].tolist(), psi(g, ts[1:])):
        want = reference(t, 60)
        assert abs(want - reference(t, 120)) <= Decimal("1e-20") * abs(want), t
        assert abs(v - float(want)) <= 1e-14 * abs(float(want)), (t, v)


# ------------------------------------------------------------ validity
@pytest.mark.parametrize(
    "family,theta",
    [
        ("clayton", 0.0), ("clayton", -1.0),
        ("gumbel", 0.9),
        ("frank", 0.0), ("frank", -2.0),
        ("amh", -1.5), ("amh", 1.0),
        ("gumbel_barnett", 0.0), ("gumbel_barnett", 1.2),
        ("gumbel_hougaard", 1.0), ("gumbel_hougaard", 0.5),
        ("independence", 0.3),
        ("nonsense", 1.0),
    ],
)
def test_out_of_range_parameters_rejected(family, theta):
    with pytest.raises(ValidationError):
        GeneratorSpec(family, theta)


def test_json_roundtrip():
    g = GeneratorSpec("frank", 2.5)
    assert GeneratorSpec.from_json(g.to_json()) == g
    gi = GeneratorSpec("independence")
    assert GeneratorSpec.from_json(gi.to_json()) == gi


def test_log_psi_no_underflow():
    # psi underflows to 0 here, but log psi stays finite and exact
    g = GeneratorSpec("gumbel_barnett", 0.2)
    lp = log_psi(g, 50.0)
    assert np.isfinite(lp) and lp < -1e20
    assert psi(g, 50.0) == 0.0


# --------------------------------------------------------- theta columns
_COLUMN_THETAS = {
    # clayton 1 and gumbel 2 are exponents (-1; 2 and 1/2) at which numpy's
    # scalar ** takes another operation than pow; gumbel 1 is exponent 1
    "clayton": [1.0, 2.0, 0.5, 1e-3, 49.0],
    "gumbel": [1.0, 2.0, 1.5, 3.7, 50.0],
    "frank": [0.01, 0.7, 4.0, 30.0, 300.0],
}


@pytest.mark.parametrize("family", sorted(_COLUMN_THETAS))
def test_theta_column_equals_scalar_theta_bitwise(family):
    rng = np.random.default_rng(len(family))
    lo = 1.0 if family == "gumbel" else 0.01
    th = np.array(_COLUMN_THETAS[family] + list(rng.uniform(lo, 20.0, 15)))
    u = np.concatenate([rng.random((th.size, 300)), np.ones((th.size, 1)),
                        np.full((th.size, 1), 1e-300)], axis=1)
    t = np.concatenate([rng.exponential(size=(th.size, 300)) * rng.choice([1e-3, 1.0, 30.0], (th.size, 300)),
                        np.zeros((th.size, 1))], axis=1)
    if family == "frank":  # both far branches are taken
        assert (th[:, None] * u >= math.log(2.0)).any()
        assert (np.expm1(-th[:, None]) * np.exp(-t) <= -0.5).any()
    for fn, x in ((generators._phi, u), (generators._psi, t), (generators._log_psi, t)):
        with np.errstate(all="ignore"):  # the kernels' callers hold it
            column = fn(family, th[:, None], x)
            scalar = np.stack([fn(family, float(v), row) for v, row in zip(th, x)])
        assert column.tobytes() == scalar.tobytes(), fn.__name__


def test_generator_accepts_numpy_scalars():
    assert GeneratorSpec("clayton", np.int64(3)).theta == 3
    assert GeneratorSpec("amh", np.float64(-0.5)).theta == -0.5


@pytest.mark.parametrize("family, theta, message", [
    ("clayton", np.nan, "clayton theta must lie in (0, inf), got nan"),
    ("clayton", np.float64(np.inf), "clayton theta must lie in (0, inf), got inf"),
    ("clayton", None, "clayton theta must be a number, got None"),
    ("clayton", -2.0, "clayton theta must lie in (0, inf), got -2.0"),
    ("amh", np.float64(1.5), "amh theta must lie in [-1, 1), got 1.5"),
], ids=["nan", "inf", "none", "negative", "amh-above"])
def test_generator_refusals_keep_their_messages(family, theta, message):
    with pytest.raises(ValidationError) as err:
        GeneratorSpec(family, theta)
    assert str(err.value) == message


@pytest.mark.parametrize("obj", [None, [], {"theta": 2.0}], ids=["none", "list", "no-family"])
def test_generator_from_json_refuses_a_malformed_object(obj):
    with pytest.raises(ValidationError) as err:
        GeneratorSpec.from_json(obj)
    assert str(err.value) == "generator spec must be an object with a 'family'"
