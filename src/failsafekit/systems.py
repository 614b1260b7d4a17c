"""Survival of the second-smallest order statistic.

For n dependent component lifetimes with marginal survivals u_i(x) tied
by an Archimedean generator, the fail-safe ((n-1)-out-of-n) system
survives past x with probability

    sum_i psi( sum_{j != i} phi(u_j) ) - (n - 1) psi( sum_j phi(u_j) ).

Each leave-one-out sum is a running prefix sum plus a running suffix sum over
the components, so it only ever adds nonnegative phi values; it differs
from summing the other columns directly by rounding only (within an
absolute 1e-13 on survival values).  Curve evaluation is embarrassingly
parallel over grid points; all functions here are pure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .generators import GeneratorSpec, SURVIVAL_FLOOR, phi, psi
from .gridpolicy import GridPolicy
from .models import SemiParamModel, sp_survival

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


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """A lifetime grid and its survival values, as read-only float64 arrays."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = _checked_grid(self.xs)
        vals = np.array(self.values, dtype=float)
        if vals.shape != xs.shape:
            raise ValidationError("curve needs one survival value per grid point")
        if np.any(vals < -CLAMP_TOL) or np.any(vals > 1.0 + CLAMP_TOL):
            raise ValidationError("survival values leave [0, 1]")
        if np.any(np.diff(vals) > CLAMP_TOL):
            raise ValidationError("survival values are not nonincreasing")
        vals.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)


def component_survivals(sys: SystemSpec, x) -> np.ndarray:
    """Matrix of marginal survivals, one column per component."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return sp_survival(sys.model, xs[:, None], np.asarray(sys.theta))


def survival_x2n(sys: SystemSpec, x):
    """Fail-safe system survival at x (second-smallest order statistic)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValidationError("x must be nonnegative")
    margs = component_survivals(sys, arr)
    dead = np.all(margs <= SURVIVAL_FLOOR, axis=1)  # every component dead
    gen, n = sys.generator, margs.shape[1]
    s = phi(gen, np.clip(margs, SURVIVAL_FLOOR, 1.0))  # capped inside phi
    # leave-one-out sums as (prefix sum of the columns before i) + (suffix
    # sum of the columns after i): both add nonnegative phi values only, so
    # a row where one floored component (phi at PHI_CAP) dominates keeps the
    # other terms' digits, which tot - s[:, i] would cancel away.  The
    # running sums advance one column at a time: np.cumsum along the short
    # component axis runs one inner loop per row and is about 3x slower.
    loo = np.empty_like(s)
    loo[:, 0] = 0.0
    for i in range(1, n):
        np.add(loo[:, i - 1], s[:, i - 1], out=loo[:, i])
    tot = loo[:, -1] + s[:, -1]
    after = s[:, -1].copy()
    for i in range(n - 2, -1, -1):
        loo[:, i] += after
        after += s[:, i]
    vals = psi(gen, loo).sum(axis=1) - (n - 1) * psi(gen, tot)
    vals = np.where((vals > 1.0) & (vals <= 1.0 + CLAMP_TOL), 1.0, vals)
    vals = np.where((vals < 0.0) & (vals >= -CLAMP_TOL), 0.0, vals)
    vals = np.where(dead, 0.0, vals)
    return vals if np.ndim(x) else float(vals[0])


def default_grid(sys: SystemSpec, points: int = 1000) -> np.ndarray:
    """Log-spaced grid over the mixture bulk of the component lifetimes."""
    return GridPolicy(curve_points=points).curve_grid(sys.model, sys.theta)


def curve(sys: SystemSpec, xs) -> SurvivalCurve:
    """Fail-safe survival curve on xs, a required strictly increasing grid."""
    xs = _checked_grid(xs)
    return SurvivalCurve(xs, survival_x2n(sys, xs))


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


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename, creating the
    parent directory; an OSError becomes a ValidationError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def read_json(path: str, what: str):
    """Parse the JSON file at path; unreadable or malformed input is a ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ValidationError(f"cannot read {what}: {exc}") from exc


def write_curve_csv(path: str, xs, columns: dict) -> None:
    """Write curve columns as CSV with 17 significant digits, atomically."""
    xs = np.asarray(xs, dtype=float)
    names = list(columns)
    cols = [np.asarray(columns[name], dtype=float) for name in names]
    for c in cols:
        if c.size != xs.size:
            raise ValidationError("column length mismatch")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", *names])
    for i in range(xs.size):
        writer.writerow([f"{xs[i]:.17g}", *(f"{c[i]:.17g}" for c in cols)])
    atomic_write(path, buf.getvalue())


def load_system(path: str) -> SystemSpec:
    return SystemSpec.from_json(read_json(path, "system spec"))
