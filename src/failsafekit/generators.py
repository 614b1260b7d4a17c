"""Archimedean generator calculus.

Each catalog family supplies the generator psi, its pseudo-inverse phi,
the first derivative, and a closed-form log psi (used wherever psi itself
would underflow).  GeneratorSpec values are immutable and freely shareable
across concurrent callers; every function here is pure.

Catalog (theta is the dependence parameter):

    independence      psi(t) = exp(-t)                         (no parameter)
    clayton           psi(t) = (1 + theta t)^(-1/theta)        theta in (0, inf)
    gumbel            psi(t) = exp(-t^(1/theta))               theta in [1, inf)
    frank             psi(t) = -log(1+(e^-theta-1)e^-t)/theta  theta in (0, inf)
    amh               psi(t) = (1-theta)/(e^t - theta)         theta in [-1, 1)
    gumbel_barnett    psi(t) = exp((1-e^t)/theta)              theta in (0, 1]
    gumbel_hougaard   psi(t) = exp(1-(1+t)^theta)              theta in (1, inf)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Survival values are floored here before phi to avoid infinities.
SURVIVAL_FLOOR = 1e-300
#: phi values are capped here; psi of the cap is 0 for every family and
#: row sums of capped values stay finite in float64.
PHI_CAP = 1e300

#: family -> (lo, hi, lo_closed, hi_closed) of its parameter range
_RANGES = {
    "independence": None,
    "clayton": (0.0, math.inf, False, False),
    "gumbel": (1.0, math.inf, True, False),
    "frank": (0.0, math.inf, False, False),
    "amh": (-1.0, 1.0, True, False),
    "gumbel_barnett": (0.0, 1.0, False, True),
    "gumbel_hougaard": (1.0, math.inf, False, False),
}

FAMILIES = tuple(_RANGES)
#: The one-parameter families the fitting pipeline estimates and scores.
COPULA_FAMILIES = ("clayton", "gumbel", "frank")


@dataclass(frozen=True)
class GeneratorSpec:
    """An Archimedean generator family with its dependence parameter.

    Construction checks the parameter range only: inside its range every
    family has psi(0) = 1, psi nonincreasing and psi decaying.
    """

    family: str
    theta: float | None = None

    def __post_init__(self):
        if self.family not in _RANGES:
            raise ValidationError(f"unknown generator family {self.family!r}")
        if self.family == "independence":
            if self.theta is not None:
                raise ValidationError("independence takes no parameter")
            return
        if self.theta is None or not np.isfinite(self.theta):
            raise ValidationError(f"{self.family} requires a finite theta")
        lo, hi, lo_c, hi_c = _RANGES[self.family]
        ok_lo = self.theta >= lo if lo_c else self.theta > lo
        ok_hi = self.theta <= hi if hi_c else self.theta < hi
        if not (ok_lo and ok_hi):
            raise ValidationError(
                f"{self.family} parameter {self.theta} outside its range "
                f"{'[' if lo_c else '('}{lo}, {hi}{']' if hi_c else ')'}"
            )

    def to_json(self) -> dict:
        out = {"family": self.family}
        if self.theta is not None:
            out["theta"] = self.theta
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorSpec":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ValidationError("generator spec must be an object with a 'family'")
        return cls(family=obj["family"], theta=obj.get("theta"))


def _as_nonneg_t(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValidationError("t must be nonnegative")
    return arr


def _frank_log_base(th: float, t: np.ndarray) -> np.ndarray:
    """log(1 + c e^-t) with c = expm1(-th), shaped like t.

    Where c e^-t <= -1/2 the sum cancels, so there it is formed as
    1 - e^-t + e^(-th-t) in log space; at t = 0 that is exactly -th, which
    keeps psi(0) = 1 for every theta.
    """
    flat = t.reshape(-1)
    out = np.expm1(-th) * np.exp(-flat)
    far = out <= -0.5
    np.log1p(out, out=out)
    # in place on the far subset, which is most of a frailty sample
    nt = -flat[far]
    lg = np.expm1(nt)
    np.log(np.negative(lg, out=lg), out=lg)
    out[far] = np.logaddexp(lg, np.subtract(nt, th, out=nt), out=lg)
    return out.reshape(t.shape)


def log_psi(g: GeneratorSpec, t):
    """log psi(t), computed in closed form so it never underflows."""
    arr = _as_nonneg_t(t)
    th = g.theta
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        if g.family == "independence":
            out = -arr
        elif g.family == "clayton":
            out = -np.log1p(th * arr) / th
        elif g.family == "gumbel":
            out = -(arr ** (1.0 / th))
        elif g.family == "frank":
            out = np.log(-_frank_log_base(th, arr)) - np.log(th)
        elif g.family == "amh":
            out = np.log1p(-th) - (arr + np.log1p(-th * np.exp(-arr)))
        elif g.family == "gumbel_barnett":
            out = (1.0 - np.exp(arr)) / th
        elif g.family == "gumbel_hougaard":
            out = 1.0 - (1.0 + arr) ** th
        else:  # pragma: no cover
            raise ValidationError(g.family)
    return out if np.ndim(t) else float(out)


def psi(g: GeneratorSpec, t):
    """Generator value psi(t) in [0, 1]; psi(0) = 1, nonincreasing."""
    lp = log_psi(g, t)
    with np.errstate(under="ignore"):
        out = np.exp(lp)
    return out if np.ndim(t) else float(out)


def phi(g: GeneratorSpec, u):
    """Pseudo-inverse phi = psi^(-1) on (0, 1]; phi(1) = 0."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr)):
        raise ValidationError("u must lie in (0, 1]")
    th = g.theta
    with np.errstate(over="ignore", divide="ignore"):
        if g.family == "independence":
            out = -np.log(arr)
        elif g.family == "clayton":
            out = (arr ** (-th) - 1.0) / th
        elif g.family == "gumbel":
            out = (-np.log(arr)) ** th
        elif g.family == "frank":
            # the ratio rounds to 1 once theta*u is large: there, subtract logs
            near = -np.log(np.expm1(-th * arr) / np.expm1(-th))
            far = np.log1p(-np.exp(-th)) - np.log1p(-np.exp(-th * arr))
            out = np.where(th * arr < math.log(2.0), near, far)
        elif g.family == "amh":
            out = np.log((1.0 - th * (1.0 - arr)) / arr)
        elif g.family == "gumbel_barnett":
            out = np.log1p(-th * np.log(arr))
        elif g.family == "gumbel_hougaard":
            out = (1.0 - np.log(arr)) ** (1.0 / th) - 1.0
        else:  # pragma: no cover
            raise ValidationError(g.family)
        out = np.minimum(out, PHI_CAP)
    return out if np.ndim(u) else float(out)


def psi_prime(g: GeneratorSpec, t):
    """Closed-form derivative psi'(t) <= 0.

    For the gumbel family with theta > 1 the one-sided derivative at
    t = 0 is -inf (returned as such).
    """
    arr = _as_nonneg_t(t)
    th = g.theta
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        p = np.exp(log_psi(g, arr))
        if g.family == "independence":
            out = -p
        elif g.family == "clayton":
            out = -((1.0 + th * arr) ** (-1.0 / th - 1.0))
        elif g.family == "gumbel":
            out = p * (-(1.0 / th) * arr ** (1.0 / th - 1.0))
        elif g.family == "frank":
            ce = np.expm1(-th) * np.exp(-arr)
            out = ce / (th * np.exp(_frank_log_base(th, arr)))
        elif g.family == "amh":
            et = np.exp(arr)
            out = -(1.0 - th) * et / (et - th) ** 2
        elif g.family == "gumbel_barnett":
            out = p * (-np.exp(arr) / th)
        elif g.family == "gumbel_hougaard":
            out = p * (-th * (1.0 + arr) ** (th - 1.0))
        else:  # pragma: no cover
            raise ValidationError(g.family)
    return out if np.ndim(t) else float(out)


def copula_eval(g: GeneratorSpec, u) -> float:
    """Copula value psi(sum phi(u_i)) for marginals u_i in (0, 1]."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("u must be a non-empty sequence")
    return float(psi(g, float(np.sum(phi(g, arr)))))


_SHAPE_T_MAX = 50.0
_SHAPE_POINTS = 200
_SHAPE_TOL = 1e-9


class LogShape(enum.Enum):
    LOG_CONCAVE = "log_concave"
    LOG_CONVEX = "log_convex"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class LogShapeReport:
    """Sign classification of the curvature of log psi over a probe grid.

    ``min_curvature``/``max_curvature`` are the extreme discrete second
    derivatives observed; BOTH requires both within the tolerance.
    """

    shape: LogShape
    min_curvature: float
    max_curvature: float
    grid_points: int
    t_max: float

    def to_json(self) -> dict:
        return {
            "shape": self.shape.value,
            "min_curvature": self.min_curvature,
            "max_curvature": self.max_curvature,
            "grid_points": self.grid_points,
            "t_max": self.t_max,
        }


def classify_log_shape(g: GeneratorSpec) -> LogShapeReport:
    """Classify log psi as concave/convex/linear on (0, _SHAPE_T_MAX].

    Uses divided differences of the closed-form log psi on a log-spaced
    grid: consecutive-slope monotonicity is exact for truly convex or
    concave functions, so only float noise is absorbed by ``_SHAPE_TOL``.
    """
    ts = np.geomspace(1e-6, _SHAPE_T_MAX, _SHAPE_POINTS)
    lp = log_psi(g, ts)
    if not np.all(np.isfinite(lp)):
        raise ValidationError("log psi not finite on the probe grid")
    slopes = np.diff(lp) / np.diff(ts)
    d2 = np.diff(slopes) / (0.5 * (ts[2:] - ts[:-2]))
    lo, hi = float(d2.min()), float(d2.max())
    if lo >= -_SHAPE_TOL and hi <= _SHAPE_TOL:
        shape = LogShape.BOTH
    elif lo >= -_SHAPE_TOL:
        shape = LogShape.LOG_CONVEX
    elif hi <= _SHAPE_TOL:
        shape = LogShape.LOG_CONCAVE
    else:
        shape = LogShape.NEITHER
    return LogShapeReport(shape, lo, hi, _SHAPE_POINTS, _SHAPE_T_MAX)


def is_log_concave(report: LogShapeReport) -> bool:
    return report.shape in (LogShape.LOG_CONCAVE, LogShape.BOTH)


def is_log_convex(report: LogShapeReport) -> bool:
    return report.shape in (LogShape.LOG_CONVEX, LogShape.BOTH)
