"""Archimedean generator calculus.

Each catalog family supplies the generator psi, its pseudo-inverse phi
and a closed-form log psi (used wherever psi itself would underflow).
GeneratorSpec values are immutable and freely shareable across
concurrent callers; every function here is pure.  ``psi``, ``log_psi``
and ``phi`` check their points (``errors.point_array``) and run their
kernel through ``errors.evaluate``, which evaluates a scalar as a
1-element array, as inside a batch.  The unchecked kernels ``_phi``,
``_psi`` and ``_log_psi`` take theta as a scalar or as an array that
broadcasts against their input, such as one theta per row, and an array
theta gives each element the bits of its scalar theta.  For every family
``_phi`` is +inf at u = 0 and ``_psi`` exactly 0 at t = +inf: IEEE limits
carry dead components, with no warning under the np.errstate each caller
of a kernel holds (``errors.evaluate``, ``systems`` and ``fitlab``).

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

from .errors import NONNEGATIVE, ValidationError, evaluate, plain_number, point_array, real_number, shown

#: The name, domain test and rule of a point t of psi and log psi.
_T_POINT = ("t", *NONNEGATIVE)

#: family -> the (ok, rule) of its parameter range (see ``errors.real_number``)
_RANGES = {
    "independence": None,
    "clayton": (lambda t: 0.0 < t < math.inf, "lie in (0, inf)"),
    "gumbel": (lambda t: 1.0 <= t < math.inf, "lie in [1, inf)"),
    "frank": (lambda t: 0.0 < t < math.inf, "lie in (0, inf)"),
    "amh": (lambda t: -1.0 <= t < 1.0, "lie in [-1, 1)"),
    "gumbel_barnett": (lambda t: 0.0 < t <= 1.0, "lie in (0, 1]"),
    "gumbel_hougaard": (lambda t: 1.0 < t < math.inf, "lie in (1, inf)"),
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
        if not isinstance(self.family, str) or self.family not in _RANGES:
            raise ValidationError(f"unknown generator family {shown(self.family)}")
        if self.family == "independence":
            if self.theta is not None:
                raise ValidationError("independence takes no parameter")
            return
        real_number(self.theta, f"{self.family} theta", *_RANGES[self.family])
        object.__setattr__(self, "theta", plain_number(self.theta))

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


#: The exponents at which numpy's ``**`` with a scalar exponent skips pow,
#: with the operation it takes instead.
_FAST_POWERS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal),
                (1.0, np.positive), (0.0, np.ones_like))


def _pow(x: np.ndarray, e):
    """x ** e for a scalar e or an array e that broadcasts against x.

    An array exponent goes through pow, which can round an ulp away from
    the operations of _FAST_POWERS, so an array takes that operation
    wherever it holds one of those exponents: the result equals the scalar
    ``**`` element by element.
    """
    out = x ** e
    if isinstance(e, np.ndarray):
        for k, op in _FAST_POWERS:
            hit = e == k
            if hit.any():
                out = np.where(hit, op(x), out)
    return out


def _frank_log_base(th, t: np.ndarray) -> np.ndarray:
    """log(1 + c e^-t) with c = expm1(-th), shaped like t; th is a scalar or
    an array that broadcasts against t.

    Where c e^-t <= -1/2 the sum cancels, so there it is formed as
    1 - e^-t + e^(-th-t) in log space; at t = 0 that is exactly -th, which
    keeps psi(0) = 1 for every theta.
    """
    out = np.expm1(-th) * np.exp(-t)
    far = out <= -0.5
    np.log1p(out, out=out)
    if np.ndim(th):
        th = np.broadcast_to(th, t.shape)[far]
    # in place on the far subset, which is most of a frailty sample
    nt = -t[far]
    lg = np.expm1(nt)
    np.log(np.negative(lg, out=lg), out=lg)
    out[far] = np.logaddexp(lg, np.subtract(nt, th, out=nt), out=lg)
    return out


def _log_psi(family: str, th, arr: np.ndarray) -> np.ndarray:
    """log psi on an array already known to be nonnegative (no NaN); th is
    the family's theta, a scalar or an array that broadcasts against arr."""
    if family == "independence":
        out = -arr
    elif family == "clayton":
        out = -np.log1p(th * arr) / th
    elif family == "gumbel":
        out = -_pow(arr, 1.0 / th)
    elif family == "frank":
        out = np.log(-_frank_log_base(th, arr)) - np.log(th)
    elif family == "amh":
        out = np.log1p(-th) - (arr + np.log1p(-th * np.exp(-arr)))
    elif family == "gumbel_barnett":
        out = (1.0 - np.exp(arr)) / th
    elif family == "gumbel_hougaard":
        out = 1.0 - _pow(1.0 + arr, th)
    else:  # pragma: no cover
        raise ValidationError(family)
    return out


def _psi(family: str, th, arr: np.ndarray) -> np.ndarray:
    """psi on an array already known to be nonnegative (no NaN); th as in
    ``_log_psi``."""
    return np.exp(_log_psi(family, th, arr))


def _phi(family: str, th, arr: np.ndarray) -> np.ndarray:
    """phi on an array already known to lie in [0, 1] (no NaN), +inf at
    u = 0; th as in ``_log_psi``."""
    if family == "independence":
        out = -np.log(arr)
    elif family == "clayton":
        out = (_pow(arr, -th) - 1.0) / th
    elif family == "gumbel":
        out = _pow(-np.log(arr), th)
    elif family == "frank":
        # the ratio rounds to 1 once theta*u is large: there, subtract logs
        # (at theta near 0 that branch is -inf + inf, but not selected)
        near = -np.log(np.expm1(-th * arr) / np.expm1(-th))
        far = np.log1p(-np.exp(-th)) - np.log1p(-np.exp(-th * arr))
        out = np.where(th * arr < math.log(2.0), near, far)
    elif family == "amh":
        out = np.log((1.0 - th * (1.0 - arr)) / arr)
    elif family == "gumbel_barnett":
        out = np.log1p(-th * np.log(arr))
    elif family == "gumbel_hougaard":
        out = _pow(1.0 - np.log(arr), 1.0 / th) - 1.0
    else:  # pragma: no cover
        raise ValidationError(family)
    return out


def log_psi(g: GeneratorSpec, t):
    """log psi(t), computed in closed form so it never underflows."""
    return evaluate(_log_psi, g.family, g.theta, point_array(t, *_T_POINT))


def psi(g: GeneratorSpec, t):
    """Generator value psi(t) in [0, 1]; psi(0) = 1, nonincreasing."""
    return evaluate(_psi, g.family, g.theta, point_array(t, *_T_POINT))


def phi(g: GeneratorSpec, u):
    """Pseudo-inverse phi = psi^(-1) on (0, 1]; phi(1) = 0."""
    return evaluate(_phi, g.family, g.theta,
                    point_array(u, "u", lambda a: (a > 0.0) & (a <= 1.0), "lie in (0, 1]"))


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


def is_independence(g: GeneratorSpec) -> bool:
    """True where psi(t) = exp(-t): independence, gumbel(1) and amh(0)."""
    return g.family == "independence" or (g.family, g.theta) in (("gumbel", 1.0), ("amh", 0.0))


def classify_log_shape(g: GeneratorSpec) -> LogShapeReport:
    """Classify log psi as concave, convex or linear on (0, inf), from the
    catalog's closed forms: every generator of ``is_independence`` is
    linear."""
    th = g.theta
    if th is not None and is_independence(g):
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
