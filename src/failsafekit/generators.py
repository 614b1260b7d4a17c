"""Archimedean generator calculus.

Each catalog family supplies the generator psi, its pseudo-inverse phi
and a closed-form log psi (used wherever psi itself would underflow).
GeneratorSpec values are immutable and freely shareable across
concurrent callers; every function here is pure.  A scalar is evaluated
as a 1-element array, so it rounds as the same point inside a batch
(numpy's ``**`` on a 0-d value can round differently from its array loop).

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
    arr = np.atleast_1d(np.asarray(t, dtype=float))
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


def _log_psi(g: GeneratorSpec, arr: np.ndarray) -> np.ndarray:
    """log psi on an array already known to be nonnegative (no NaN)."""
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
    return out


def _psi(g: GeneratorSpec, arr: np.ndarray) -> np.ndarray:
    """psi on an array already known to be nonnegative (no NaN)."""
    with np.errstate(under="ignore"):
        return np.exp(_log_psi(g, arr))


def _phi(g: GeneratorSpec, arr: np.ndarray) -> np.ndarray:
    """phi, capped at PHI_CAP, on an array already known to lie in (0, 1] (no NaN)."""
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
        return np.minimum(out, PHI_CAP)


def log_psi(g: GeneratorSpec, t):
    """log psi(t), computed in closed form so it never underflows."""
    out = _log_psi(g, _as_nonneg_t(t))
    return out if np.ndim(t) else float(out[0])


def psi(g: GeneratorSpec, t):
    """Generator value psi(t) in [0, 1]; psi(0) = 1, nonincreasing."""
    out = _psi(g, _as_nonneg_t(t))
    return out if np.ndim(t) else float(out[0])


def phi(g: GeneratorSpec, u):
    """Pseudo-inverse phi = psi^(-1) on (0, 1]; phi(1) = 0."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(arr <= 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr)):
        raise ValidationError("u must lie in (0, 1]")
    out = _phi(g, arr)
    return out if np.ndim(u) else float(out[0])


class LogShape(enum.Enum):
    LOG_CONCAVE = "log_concave"
    LOG_CONVEX = "log_convex"
    BOTH = "both"


@dataclass(frozen=True)
class LogShapeReport:
    """Curvature sign of log psi and the closed-form rule that decided it."""

    shape: LogShape
    rule: str

    def to_json(self) -> dict:
        return {"shape": self.shape.value, "rule": self.rule}


_COMPLETELY_MONOTONE = "completely monotone, so a mixture of exponentials and log-convex"
#: family -> log-shape over its whole range; amh goes by the sign of theta.
_LOG_SHAPES = {
    "independence": (LogShape.BOTH, "log psi = -t is linear"),
    "clayton": (LogShape.LOG_CONVEX, _COMPLETELY_MONOTONE),
    "gumbel": (LogShape.LOG_CONVEX, _COMPLETELY_MONOTONE),
    "frank": (LogShape.LOG_CONVEX, _COMPLETELY_MONOTONE),
    "gumbel_barnett": (LogShape.LOG_CONCAVE, "log psi = (1 - e^t)/theta is concave"),
    "gumbel_hougaard": (LogShape.LOG_CONCAVE,
                        "log psi = 1 - (1 + t)^theta is concave for theta > 1"),
}


def classify_log_shape(g: GeneratorSpec) -> LogShapeReport:
    """Classify log psi as concave, convex or linear on (0, inf), from the
    catalog's closed forms: independence, and gumbel and amh where they
    reduce to it, are linear."""
    th = g.theta
    if (g.family, th) in (("gumbel", 1.0), ("amh", 0.0)):
        return LogShapeReport(LogShape.BOTH, f"{g.family}({th:g}) is independence: "
                                             "log psi = -t is linear")
    if g.family == "amh":
        if th > 0.0:
            return LogShapeReport(LogShape.LOG_CONVEX, _COMPLETELY_MONOTONE)
        return LogShapeReport(LogShape.LOG_CONCAVE,
                              "(log psi)'' = theta e^t / (e^t - theta)^2 < 0 for theta < 0")
    return LogShapeReport(*_LOG_SHAPES[g.family])


def is_log_concave(report: LogShapeReport) -> bool:
    return report.shape in (LogShape.LOG_CONCAVE, LogShape.BOTH)


def is_log_convex(report: LogShapeReport) -> bool:
    return report.shape in (LogShape.LOG_CONVEX, LogShape.BOTH)
