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

Layout: one private kernel evaluates k systems that share a model, a
generator and n (``survival_x2n`` is its k = 1 call; a verdict calls it
directly for its two systems, the Schur probe for its 2n perturbed ones
and ``curves`` for library users).  It holds the marginals
component-major, an (n, k, columns) matrix, so that the running sums
advance over whole contiguous (k, columns) rows and no step walks a
strided column or reduces along an axis only n long, one point at a time.
The matrix is computed as (n k, columns) from one column of parameters and
then viewed as (n, k, columns): numpy broadcasts two dimensions faster
than three.  Every reduction over the components is a row-by-row add in
component order, whatever the number of points, so a scalar x rounds
exactly as the same point inside a grid.  The kernel walks the grid in
blocks of as many columns as keep the marginal matrix within _BLOCK_BYTES,
so its working set stays in cache whatever the grid size and k.  Every
step is elementwise along the grid, so neither the block edges nor the
number of systems per call change a value.

Check once, where an input enters: ``errors.real_array`` reads every
numeric argument, and on top of it ``SystemSpec`` checks theta's length and
domain, ``_lifetimes`` (by ``errors.point_array``) every lifetime argument
x (here, in ``mcsim`` and in the Schur probe of ``ordering``), and
``_check_grid`` ``SurvivalCurve``'s grid, ``curves``' grid before the kernel
runs and a verdict's, uncopied; the public functions return via ``errors.evaluate``.
The kernel checks each marginal block once for NaN, by its minimum.  Every
marginal lies in [0, 1], the mphrs map's too, and the sums add nonnegative
phi values, so the kernel's marginals, phi and psi are ``models`` and
``generators`` private forms, which skip the public functions' checks and
run under the one np.errstate the kernel holds per call.  A dead component
(u = 0, phi = +inf) drops out of every term that holds it, as psi(+inf) =
0, and a point where every component is dead sums to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE_FINITE, ValidationError, evaluate, point_array, real_array, shown, whole_number
from .generators import GeneratorSpec, _phi, _psi
from .gridpolicy import GridPolicy
from .models import BaselineSpec, SemiParamModel, _checked_theta, _sp_survival, bulk_grid, sp_survival

#: Values this close to the [0, 1] bounds are clamped onto them.
CLAMP_TOL = 1e-10
#: Bytes of the (n, k, columns) marginal matrix one block of the survival
#: kernel holds, 16 384 float64 values: of 2**16 to 2**19 bytes, the size at
#: which audit verdicts ran fastest, with the least memory but for 2**16.
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class SystemSpec:
    """n components: one model, one parameter vector, one generator."""

    n: int
    model: SemiParamModel
    theta: tuple[float, ...]
    generator: GeneratorSpec

    def __post_init__(self):
        n = whole_number(self.n, "system n", 2)
        if not isinstance(self.model, SemiParamModel):
            raise ValidationError(f"system model must be a SemiParamModel, got {shown(self.model)}")
        if not isinstance(self.generator, GeneratorSpec):
            raise ValidationError(f"system generator must be a GeneratorSpec, got {shown(self.generator)}")
        theta = real_array(self.theta, "system theta entry")
        if theta.shape != (n,):
            raise ValidationError(f"system theta must be {shown(n)} numbers, got {shown(self.theta)}")
        # the caller's entries, not theta: a refusal shows an int past float range as given
        object.__setattr__(self, "theta", tuple(_checked_theta(self.model, self.theta).tolist()))
        object.__setattr__(self, "n", n)

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
            n=obj["n"],
            model=SemiParamModel.from_json(obj["model"]),
            theta=obj["theta"],
            generator=GeneratorSpec.from_json(obj["generator"]),
        )


def wire_system(scale: float, shape: float, wire_scales, generator: GeneratorSpec) -> SystemSpec:
    """Wires with Weibull(wire scale, shape) strengths as one system: a scale
    model over Weibull(scale, shape), theta_i = scale / wire_scales[i]."""
    model = SemiParamModel("scale", BaselineSpec("weibull", (scale, shape)))
    return SystemSpec(len(wire_scales), model, tuple(scale / s for s in wire_scales), generator)


def _lifetimes(x) -> np.ndarray:
    """x as a float64 array, unless it breaks the one rule for a lifetime argument."""
    rule = "be a nonnegative number or 1-d array, with no NaN"
    arr = point_array(x, "x", lambda a: a >= 0.0, rule)
    if arr.ndim > 1:
        raise ValidationError(f"x must {rule}, got a {arr.ndim}-d array")
    return arr


def _check_grid(xs: np.ndarray) -> None:
    """Refuse a float64 xs unless it is a strictly increasing positive grid."""
    # NaN fails the comparisons, and a difference next to it is NaN too
    if xs.ndim != 1 or xs.size < 2 or not (xs[0] > 0.0 and (xs[1:] - xs[:-1]).min() > 0.0):
        raise ValidationError("xs must be a strictly increasing positive grid of length >= 2")


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """A lifetime grid and its survival values, as read-only float64 arrays:
    one value per point, inside [0, 1] and nonincreasing, up to CLAMP_TOL."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.array(real_array(self.xs, "curve grid point"))
        vals = np.array(real_array(self.values, "curve survival value"))
        _check_grid(xs)
        if vals.shape != xs.shape:
            raise ValidationError("curve needs one survival value per grid point")
        _check_survival(vals)
        for name, arr in (("xs", xs), ("values", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _check_survival(vals: np.ndarray) -> None:
    """Refuse survival values, two or more in x order in a 1-d array or each
    row of a 2-d one, that leave [0, 1] or rise by more than CLAMP_TOL."""
    for row in np.atleast_2d(vals):
        # NaN propagates through min and max, so it is refused with the
        # out-of-range values
        if not (row.min() >= -CLAMP_TOL and row.max() <= 1.0 + CLAMP_TOL):
            raise ValidationError("survival values leave [0, 1] or are NaN")
        if (row[1:] - row[:-1]).max() > CLAMP_TOL:
            raise ValidationError("survival values are not nonincreasing")


def _block_columns(n: int, k: int) -> int:
    """Grid columns per block of the survival kernel over k systems of n."""
    return max(1, _BLOCK_BYTES // (8 * n * k))


def _survivals(systems, x: np.ndarray) -> np.ndarray:
    """Fail-safe survival of k systems that share a model, a generator and
    n, at every point of a checked 1-d x: a (k, x.size) array."""
    first = systems[0]
    model, gen, n, k = first.model, first.generator, first.n, len(systems)
    # one row per (component, system), component-major
    theta = np.array([s.theta for s in systems]).T.reshape(-1, 1)
    step = _block_columns(n, k)
    blocks = []
    with np.errstate(all="ignore"):  # the one errstate of every step below
        for start in range(0, max(x.size, 1), step):  # an empty x is one empty block
            # the marginals, one (k, columns) row per component, skip sp_survival's
            # checks: x holds no NaN, and each SystemSpec checked its theta
            xb = x[start:start + step]
            margs = _sp_survival(model, xb, theta).reshape(n, k, xb.size)
            # min is NaN if any marginal is (initial: an empty x)
            if math.isnan(margs.min(initial=1.0)):
                raise ValidationError(f"{model.kind} model over {model.baseline.family}"
                                      f"{model.baseline.params} gave a NaN marginal survival")
            s = _phi(gen.family, gen.theta, margs)  # +inf for a dead component
            # rows 0..n-1: leave-one-out sums as (prefix sum of the rows before i)
            # + (suffix sum of the rows after i); row n: the total.  Both add
            # nonnegative phi values only, so a component whose phi dominates
            # (or is +inf) leaves the other terms' digits in the one sum without
            # it, which tot - s[i] would cancel away (or make NaN).
            loo = np.empty((n + 1,) + s.shape[1:])
            loo[0] = 0.0
            for i in range(1, n + 1):
                np.add(loo[i - 1], s[i - 1], out=loo[i])
            after = s[-1].copy()
            for i in range(n - 2, -1, -1):
                loo[i] += after
                after += s[i]
            p = _psi(gen.family, gen.theta, loo)
            # the psi terms add row by row too: numpy's sum over axis 0 does so for
            # two or more points but pairwise for one, so a scalar x would round
            # differently from the same point inside a grid.  vals is a new array
            # (n >= 2), so a returned block keeps no view of p alive
            vals = p[0] + p[1]
            for i in range(2, n):
                vals += p[i]
            vals -= (n - 1) * p[n]
            # each clamp runs only where its mask can hold a True (a NaN, whose
            # neighbours it would still clamp, fails the comparisons and runs both)
            if not vals.max(initial=0.0) <= 1.0:
                np.copyto(vals, 1.0, where=(vals > 1.0) & (vals <= 1.0 + CLAMP_TOL))
            if not vals.min(initial=1.0) >= 0.0:
                np.copyto(vals, 0.0, where=(vals < 0.0) & (vals >= -CLAMP_TOL))
            blocks.append(vals)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def survival_x2n(sys: SystemSpec, x):
    """Fail-safe system survival at x (second-smallest order statistic)."""
    return evaluate(lambda xs: _survivals((sys,), xs)[0], _lifetimes(x))


def default_grid(sys: SystemSpec, points: int = GridPolicy.curve_points) -> np.ndarray:
    """``models.bulk_grid`` over the component lifetimes."""
    return bulk_grid([(sys.model, sys.theta)], points)


def curve(sys: SystemSpec, xs) -> SurvivalCurve:
    """Fail-safe survival curve on xs: ``curves`` of the one system."""
    return curves((sys,), xs)[0]


def curves(systems, xs) -> tuple[SurvivalCurve, ...]:
    """The survival curve of every system on xs, from one pass of the
    survival kernel; the systems must share a model, a generator and n."""
    if not systems:
        raise ValidationError("curves needs at least one system")
    first = systems[0]
    if any((s.model, s.generator, s.n) != (first.model, first.generator, first.n)
           for s in systems):
        raise ValidationError("curves needs systems with one model, generator and n")
    grid = np.atleast_1d(_lifetimes(xs))
    _check_grid(grid)  # a bad grid costs no evaluation
    return tuple(SurvivalCurve(grid, v) for v in _survivals(systems, grid))


def homogeneous_x2n(gen: GeneratorSpec, u, n: int):
    """Closed form for n identical marginals u in [0, 1], NaN refused, and an n
    ``SystemSpec`` takes: n psi((n-1)phi(u)) - (n-1)psi(n phi(u)), 0 at u = 0."""
    n = whole_number(n, "system n", 2)
    return evaluate(_homogeneous_x2n, gen.family, gen.theta,
                    point_array(u, "u", lambda a: (a >= 0.0) & (a <= 1.0), "lie in [0, 1]"), n)


def _homogeneous_x2n(f: str, th, u: np.ndarray, n: int) -> np.ndarray:
    p = _phi(f, th, u)
    return n * _psi(f, th, (n - 1) * p) - (n - 1) * _psi(f, th, n * p)


def _homogeneous_bound(sys: SystemSpec, x, order: str, mean) -> np.ndarray:
    """homogeneous_x2n at the homogeneous parameter mean(theta)."""
    th = point_array(sys.theta, f"{order} bound theta", *POSITIVE_FINITE)
    margs = sp_survival(sys.model, _lifetimes(x), float(mean(th)))
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
