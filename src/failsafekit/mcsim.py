"""Monte-Carlo oracle: frailty sampling of Archimedean dependence,
closed-form lifetime inversion through the log-survival of the
semi-parametric families, and empirical order-statistic survival.

Sampling uses numpy's Philox counter-based generator, so batches are
reproducible from a 64-bit seed alone (cross-language ports can match
statistically, not bitwise).  Frailty representations: U_i = psi(E_i / V)
with E_i unit exponentials and V the family's positive factor:

    independence  V = 1
    clayton       V ~ Gamma(1/theta, scale=theta)
    gumbel        V ~ positive stable, index 1/theta (Kanter's method)
    frank         V ~ logarithmic series, p = 1 - e^-theta (Kemp's method)
    amh           V ~ Geometric(1-theta) on {1, 2, ...}, theta in [0, 1)

Generators without such a representation (gumbel_barnett,
gumbel_hougaard, amh with theta < 0) raise UnsupportedGeneratorError:
a declared limitation, never a silent approximation.  So do clayton,
gumbel and frank above THETA_MAX, where the frailty leaves float64.
Clayton's Gamma(1/theta) frailty and gumbel's positive-stable one of
index 1/theta are powers of order theta of O(1) random factors, so a
row's V underflows or overflows with probability about exp(-708/theta):
7e-7 at theta = 50 (the Gamma(1/theta) cdf at the smallest normal
double; gumbel's measured rate is lower), 8e-4 at 100 and 3e-2 at 200.
Such a row degenerates, so both stop at 50.  Frank's logarithmic-series
frailty outgrows float64 above 700.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGeneratorError, ValidationError
from .generators import GeneratorSpec, psi
from .models import _log1mexp, sp_inverse_log_survival
from .systems import SystemSpec

#: Largest theta each frailty sampler takes (see the module docstring).
THETA_MAX = {"clayton": 50.0, "gumbel": 50.0, "frank": 700.0}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True)
class SampleBatch:
    """count x n dependent uniforms with the seed and generator that made them."""

    uniforms: np.ndarray
    seed: int
    generator: GeneratorSpec


def _sample_positive_stable(alpha: float, count: int, rng) -> np.ndarray:
    """Kanter's construction: Laplace transform exp(-t^alpha), 0 < alpha < 1."""
    w = rng.uniform(0.0, np.pi, size=count)
    e = rng.exponential(size=count)
    return (
        np.sin(alpha * w)
        * (np.sin((1.0 - alpha) * w) / e) ** ((1.0 - alpha) / alpha)
        / np.sin(w) ** (1.0 / alpha)
    )


def _sample_log_series(r: float, count: int, rng) -> np.ndarray:
    """Kemp's sampler for P(V=k) = -p^k / (k log(1-p)), k = 1, 2, ...

    The parameter is r = log(1 - p) < 0, so p near 1 (frank's
    p = 1 - e^-theta) keeps its precision.
    """
    p = -np.expm1(r)
    v = rng.random(count)
    u = rng.random(count)
    out = np.ones(count)
    big = v < p
    q = -np.expm1(u[big] * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(1.0 + np.log(v[big]) / _log1mexp(u[big] * r))
    out[big] = np.where(v[big] < q * q, k, np.where(v[big] <= q, 2.0, 1.0))
    return out


def sample_copula(g: GeneratorSpec, n: int, count: int, seed: int) -> SampleBatch:
    """Draw count rows of n dependent uniforms with copula generator g."""
    if n < 1 or count < 1:
        raise ValidationError("n and count must be positive")
    limit = THETA_MAX.get(g.family)
    if limit is not None and g.theta > limit:
        raise UnsupportedGeneratorError(
            f"{g.family} sampling needs theta <= {limit:g}; "
            "use the analytic survival path instead"
        )
    rng = _rng(seed)
    e = rng.exponential(size=(count, n))
    v = None  # no frailty: independent uniforms
    if g.family == "clayton":
        v = rng.gamma(shape=1.0 / g.theta, scale=g.theta, size=count)
    elif g.family == "gumbel":
        if g.theta != 1.0:
            v = _sample_positive_stable(1.0 / g.theta, count, rng)
    elif g.family == "frank":
        v = _sample_log_series(-g.theta, count, rng)
    elif g.family == "amh":
        if g.theta < 0.0:
            raise UnsupportedGeneratorError(
                "amh with negative dependence has no positive frailty; "
                "use the analytic survival path instead"
            )
        if g.theta != 0.0:
            v = 1.0 + np.floor(np.log(rng.random(count)) / np.log(g.theta))
    elif g.family != "independence":
        raise UnsupportedGeneratorError(
            f"{g.family} is not completely monotone: no frailty sampler exists; "
            "use the analytic survival path instead"
        )
    u = np.exp(-e) if v is None else psi(g, e / v[:, None])
    # keep uniforms strictly inside (0, 1) for downstream inversion
    u = np.clip(u, 1e-15, 1.0 - 1e-16)
    return SampleBatch(uniforms=u, seed=int(seed), generator=g)


def sample_lifetimes(sys: SystemSpec, count: int, seed: int) -> np.ndarray:
    """count x n lifetimes whose marginal i has survival sp_survival(., theta_i).

    Each uniform u is inverted in closed form through log u; models with an
    atom at 0 (location theta < 0, ls lambda < 0) put it on 0 exactly.
    """
    batch = sample_copula(sys.generator, sys.n, count, seed)
    logs = np.log(batch.uniforms)
    out = np.empty_like(logs)
    for j, theta in enumerate(sys.theta):
        out[:, j] = np.maximum(sp_inverse_log_survival(sys.model, logs[:, j], theta), 0.0)
    return out


def second_smallest(lifetimes: np.ndarray) -> np.ndarray:
    """Row-wise second-smallest entry (the fail-safe system lifetime)."""
    arr = np.asarray(lifetimes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValidationError("lifetimes must be a matrix with >= 2 columns")
    return np.partition(arr, 1, axis=1)[:, 1]


def empirical_survival_x2n(lifetimes: np.ndarray, x):
    """Fraction of rows whose second-smallest entry exceeds x."""
    arr = np.asarray(lifetimes, dtype=float)
    if arr.size == 0:
        raise ValidationError("lifetimes matrix is empty")
    second = second_smallest(arr)
    xs = np.asarray(x, dtype=float)
    vals = np.mean(second[:, None] > np.atleast_1d(xs)[None, :], axis=0)
    return vals if np.ndim(x) else float(vals[0])

