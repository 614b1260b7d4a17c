import math

import numpy as np
import pytest

from failsafekit import (
    GeneratorSpec,
    LogShape,
    ValidationError,
    classify_log_shape,
    is_log_concave,
    is_log_convex,
    log_psi,
    phi,
    psi,
)
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
    # psi must stay accurate there (reference: 50-digit mpmath)
    mp = pytest.importorskip("mpmath")
    g = GeneratorSpec("frank", theta)
    ts = np.concatenate([[0.0], np.geomspace(1e-10, 60.0, 80)])
    assert psi(g, 0.0) == 1.0
    with mp.workdps(50):
        th = mp.mpf(theta)
        for t, v in zip(ts, psi(g, ts)):
            tt = mp.mpf(float(t))
            want = -mp.log(-mp.expm1(-tt) + mp.exp(-th - tt)) / th
            assert abs(v - want) <= 1e-14 * abs(want), (t, v)


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
