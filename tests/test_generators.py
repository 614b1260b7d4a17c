import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from failsafekit import (
    GeneratorSpec,
    LogShape,
    ValidationError,
    classify_log_shape,
    copula_eval,
    is_log_concave,
    is_log_convex,
    log_psi,
    phi,
    psi,
    psi_prime,
)

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
    with pytest.raises(ValidationError):
        psi(GeneratorSpec("clayton", 1.0), -0.5)


# ------------------------------------------------------------------ phi
@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_phi_at_one_is_zero(g):
    assert phi(g, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_phi_clayton_inverse_of_psi_example():
    assert phi(GeneratorSpec("clayton", 1.0), 0.5) == pytest.approx(1.0, rel=1e-15)


def test_phi_roundtrip_random():
    rng = np.random.default_rng(2023)
    ranges = {
        "clayton": (0.05, 10.0),
        "gumbel": (1.0, 8.0),
        "frank": (0.1, 500.0),
        "amh": (-1.0, 0.95),
        "gumbel_barnett": (0.05, 1.0),
        "gumbel_hougaard": (1.05, 6.0),
    }
    count = 0
    for family, (lo, hi) in ranges.items():
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


# ------------------------------------------------------------ psi_prime
def test_psi_prime_independence():
    assert psi_prime(GeneratorSpec("independence"), 1.0) == pytest.approx(-math.exp(-1.0))


def test_psi_prime_clayton():
    assert psi_prime(GeneratorSpec("clayton", 1.0), 1.0) == pytest.approx(-0.25, abs=1e-15)


@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_psi_prime_nonpositive_and_matches_finite_differences(g):
    ts = np.geomspace(0.05, 20.0, 40)
    d = psi_prime(g, ts)
    assert np.all(d <= 0.0)
    h = 1e-6 * ts
    fd = (psi(g, ts + h) - psi(g, ts - h)) / (2.0 * h)
    mask = np.abs(d) > 1e-280  # skip fully underflowed tails
    assert_allclose(d[mask], fd[mask], rtol=1e-6)


# ---------------------------------------------------------- copula_eval
def test_copula_independence_is_product():
    assert copula_eval(GeneratorSpec("independence"), [0.3, 0.5]) == pytest.approx(0.15)


def test_copula_clayton_example():
    got = copula_eval(GeneratorSpec("clayton", 1.0), [0.5, 0.5])
    assert got == pytest.approx(1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("g", ALL_SPECS, ids=lambda g: f"{g.family}-{g.theta}")
def test_copula_boundary_and_bounds(g):
    rng = np.random.default_rng(31)
    for _ in range(25):
        u = float(rng.uniform(0.05, 0.99))
        assert copula_eval(g, [u, 1.0, 1.0]) == pytest.approx(u, rel=1e-12)
        us = rng.uniform(0.05, 1.0, 4)
        c = copula_eval(g, us)
        assert 0.0 <= c <= np.min(us) + 1e-12
    assert copula_eval(g, [1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert copula_eval(g, [1e-280, 0.5]) <= 1e-12


def test_copula_rejects_empty_and_out_of_range():
    g = GeneratorSpec("independence")
    with pytest.raises(ValidationError):
        copula_eval(g, [])
    with pytest.raises(ValidationError):
        copula_eval(g, [0.5, 1.2])


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
    assert abs(rep.min_curvature) <= 1e-9 and abs(rep.max_curvature) <= 1e-9


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
    # psi and psi' must stay accurate there (reference: 50-digit mpmath)
    mp = pytest.importorskip("mpmath")
    g = GeneratorSpec("frank", theta)
    ts = np.concatenate([[0.0], np.geomspace(1e-10, 60.0, 80)])
    assert psi(g, 0.0) == 1.0
    got, got_d = psi(g, ts), psi_prime(g, ts)
    with mp.workdps(50):
        th = mp.mpf(theta)
        for t, v, d in zip(ts, got, got_d):
            tt = mp.mpf(float(t))
            base = -mp.expm1(-tt) + mp.exp(-th - tt)
            want = -mp.log(base) / th
            want_d = mp.expm1(-th) * mp.exp(-tt) / (th * base)
            assert abs(v - want) <= 1e-14 * abs(want), (t, v)
            assert abs(d - want_d) <= 1e-14 * abs(want_d), (t, d)


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
