"""Survival of the second-smallest order statistic.

For n dependent component lifetimes with marginal survivals u_i(x) tied
by an Archimedean generator, the fail-safe ((n-1)-out-of-n) system
survives past x with probability

    sum_i psi( sum_{j != i} phi(u_j) ) - (n - 1) psi( sum_j phi(u_j) ).

Each leave-one-out sum is a running prefix sum plus a running suffix sum over
the components, so it only ever adds nonnegative phi values; it differs
from summing the other components directly by rounding only (within an
absolute 1e-13 on survival values).  Curve evaluation is embarrassingly
parallel over grid points; all functions here are pure.

Layout: ``survival_x2n`` holds the marginals component-major, one row of
grid points per component, so that the running sums advance over whole
contiguous rows and no step walks a strided column or reduces along an
axis only n long, one point at a time.  Every reduction over the
components is a row-by-row add in component order, whatever the number
of points, so a scalar x rounds exactly as the same point inside a grid.

Check once: x is checked at the entry and the marginal matrix once for
NaN; after that, clipping puts every survival in [SURVIVAL_FLOOR, 1] and
the sums add nonnegative phi values, so phi and psi run through the
generators' private kernels, which skip the argument checks the public
functions repeat on every call.  ``curve`` checks and copies its grid
once, with the same check ``SurvivalCurve`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .generators import GeneratorSpec, SURVIVAL_FLOOR, _phi, _psi, phi, psi
from .gridpolicy import GridPolicy
from .models import SemiParamModel, _sp_survival, sp_survival

#: Values this close to the [0, 1] bounds are clamped onto them.
CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class SystemSpec:
    """n components: one model, one parameter vector, one generator."""

    n: int
    model: SemiParamModel
    theta: tuple[float, ...]
    generator: GeneratorSpec

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("a system needs at least 2 components")
        theta = tuple(float(t) for t in self.theta)
        if len(theta) != self.n:
            raise ValidationError(f"theta length {len(theta)} != n={self.n}")
        for t in theta:
            if not self.model.theta_in_domain(t):
                raise ValidationError(f"theta {t} outside the {self.model.kind} domain")
        object.__setattr__(self, "theta", theta)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generator": self.generator.to_json(),
            "model": self.model.to_json(),
            "theta": list(self.theta),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        if not isinstance(obj, dict):
            raise ValidationError("system spec must be an object")
        for key in ("n", "generator", "model", "theta"):
            if key not in obj:
                raise ValidationError(f"system spec missing {key!r}")
        return cls(
            n=int(obj["n"]),
            model=SemiParamModel.from_json(obj["model"]),
            theta=tuple(obj["theta"]),
            generator=GeneratorSpec.from_json(obj["generator"]),
        )


def _checked_grid(xs) -> np.ndarray:
    """xs as a read-only float64 copy of a 1-d, positive, strictly increasing grid."""
    xs = np.array(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not (xs[0] > 0.0 and np.all(np.diff(xs) > 0.0)):
        raise ValidationError("xs must be a strictly increasing positive grid of length >= 2")
    xs.flags.writeable = False
    return xs


def _checked_values(xs: np.ndarray, values) -> np.ndarray:
    """values as a read-only float64 copy of survival values on xs: one per
    point, inside [0, 1] and nonincreasing, up to CLAMP_TOL."""
    vals = np.array(values, dtype=float)
    if vals.shape != xs.shape:
        raise ValidationError("curve needs one survival value per grid point")
    if np.any(vals < -CLAMP_TOL) or np.any(vals > 1.0 + CLAMP_TOL):
        raise ValidationError("survival values leave [0, 1]")
    if np.any(np.diff(vals) > CLAMP_TOL):
        raise ValidationError("survival values are not nonincreasing")
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """A lifetime grid and its survival values, as read-only float64 arrays."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = _checked_grid(self.xs)
        object.__setattr__(self, "values", _checked_values(xs, self.values))
        object.__setattr__(self, "xs", xs)

    @classmethod
    def _on_checked_grid(cls, xs: np.ndarray, values) -> "SurvivalCurve":
        """A curve on a grid that ``_checked_grid`` returned: only the values
        are checked, so the grid is not copied and checked a second time."""
        c = object.__new__(cls)
        object.__setattr__(c, "xs", xs)
        object.__setattr__(c, "values", _checked_values(xs, values))
        return c


def survival_x2n(sys: SystemSpec, x):
    """Fail-safe system survival at x (second-smallest order statistic)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails the comparison
        raise ValidationError("x must be nonnegative")
    # the marginals, one row per component; x passed the check above, so
    # they skip sp_survival's NaN check
    margs = _sp_survival(sys.model, np.atleast_1d(arr), np.asarray(sys.theta)[:, None])
    if np.isnan(margs).any():
        raise ValidationError(f"{sys.model.kind} model over {sys.model.baseline.family}"
                              f"{sys.model.baseline.params} gave a NaN marginal survival")
    dead = np.all(margs <= SURVIVAL_FLOOR, axis=0)  # every component dead
    gen, n = sys.generator, sys.n
    s = _phi(gen, np.clip(margs, SURVIVAL_FLOOR, 1.0, out=margs))  # capped inside phi
    # rows 0..n-1: leave-one-out sums as (prefix sum of the rows before i)
    # + (suffix sum of the rows after i); row n: the total.  Both add
    # nonnegative phi values only, so a point where one floored component
    # (phi at PHI_CAP) dominates keeps the other terms' digits, which
    # tot - s[i] would cancel away.
    loo = np.empty((n + 1, s.shape[1]))
    loo[0] = 0.0
    for i in range(1, n + 1):
        np.add(loo[i - 1], s[i - 1], out=loo[i])
    after = s[-1].copy()
    for i in range(n - 2, -1, -1):
        loo[i] += after
        after += s[i]
    p = _psi(gen, loo)
    # the psi terms add row by row too: numpy's sum over axis 0 does so for
    # two or more points but pairwise for one, so a scalar x would round
    # differently from the same point inside a grid
    vals = p[0]
    for i in range(1, n):
        vals += p[i]
    vals -= (n - 1) * p[n]
    vals = np.where((vals > 1.0) & (vals <= 1.0 + CLAMP_TOL), 1.0, vals)
    vals = np.where((vals < 0.0) & (vals >= -CLAMP_TOL), 0.0, vals)
    vals = np.where(dead, 0.0, vals)
    return vals if np.ndim(x) else float(vals[0])


def default_grid(sys: SystemSpec, points: int = GridPolicy.curve_points) -> np.ndarray:
    """Log-spaced grid over the mixture bulk of the component lifetimes."""
    return GridPolicy(curve_points=points).curve_grid(sys.model, sys.theta)


def curve(sys: SystemSpec, xs) -> SurvivalCurve:
    """Fail-safe survival curve on xs, a required strictly increasing grid."""
    xs = _checked_grid(xs)
    return SurvivalCurve._on_checked_grid(xs, survival_x2n(sys, xs))


def homogeneous_x2n(gen: GeneratorSpec, u, n: int):
    """Closed form for n identical marginals u: n psi((n-1)phi(u)) - (n-1)psi(n phi(u))."""
    uu = np.clip(np.asarray(u, dtype=float), SURVIVAL_FLOOR, 1.0)
    p = phi(gen, uu)
    vals = n * psi(gen, (n - 1) * p) - (n - 1) * psi(gen, n * p)
    return vals if np.ndim(u) else float(vals)


def _homogeneous_bound(sys: SystemSpec, x, order: str, mean) -> np.ndarray:
    """homogeneous_x2n at the homogeneous parameter mean(theta)."""
    th = np.asarray(sys.theta)
    if np.any(th <= 0.0):
        raise ValidationError(f"{order} bound needs positive thetas")
    margs = sp_survival(sys.model, np.asarray(x, dtype=float), float(mean(th)))
    return homogeneous_x2n(sys.generator, margs, sys.n)


def lower_bound_plarger(sys: SystemSpec, x):
    """Homogeneous comparison value at the geometric mean of theta.

    The geometric mean is the extreme parameter for which the homogeneous
    vector is p-larger-dominated by theta.  Whether this is a true lower
    bound depends on the system; verifiers always confirm on the grid.
    """
    return _homogeneous_bound(sys, x, "p-larger", lambda th: np.exp(np.mean(np.log(th))))


def lower_bound_rm(sys: SystemSpec, x):
    """Homogeneous comparison value at the harmonic mean of theta.

    The harmonic mean is the smallest homogeneous parameter reciprocally
    majorized by theta (and satisfies the arithmetic-mean cap n*theta*
    <= sum theta).
    """
    return _homogeneous_bound(sys, x, "reciprocal-majorization",
                              lambda th: th.size / np.sum(1.0 / th))
