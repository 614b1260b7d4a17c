"""Baseline lifetime distributions and semi-parametric survival transforms.

Baselines expose log-survival and its inverse, log-density and hazard in
closed form (gen_gamma and gamma route through scipy's regularized
incomplete gamma, whose log-gamma backend meets a 1e-12 relative accuracy
standard).  Quantiles and Monte-Carlo lifetimes both come from the
inverse log-survival, so neither rounds a tail probability to 1.
The semi-parametric kinds map a baseline survival F(x) to F(x; theta):

    scale      F(theta x)                                theta > 0
    phr        F(x)^theta                                theta > 0
    location   F(x - theta)                              theta real
    mphrs      alpha F(x mu)^lam / (1 - (1-alpha) F(x mu)^lam)
               with mu = theta > 0 and fixed alpha > 0, lam > 0
    ls         F(theta (x - lam))                        theta > 0, fixed lam

Shape checks certify monotonicity/convexity on finite probe grids; their
verdicts feed the comparison-result verifiers.  Everything is pure and
reentrant; model values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln

from .errors import ValidationError

#: Survival values below this are excluded from log-space probes.
LOG_FLOOR = 1e-300

_BASELINE_PARAMS = {
    "exponential": ("rate",),
    "weibull": ("scale", "shape"),
    "exp_weibull": ("alpha", "beta"),
    "burr": ("c", "k"),
    "gen_pareto": ("alpha",),
    "gen_gamma": ("p", "q"),
    "gamma": ("shape", "rate"),
}

BASELINE_FAMILIES = tuple(_BASELINE_PARAMS)


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline lifetime distribution on (0, inf)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _BASELINE_PARAMS:
            raise ValidationError(f"unknown baseline family {self.family!r}")
        names = _BASELINE_PARAMS[self.family]
        params = tuple(float(p) for p in self.params)
        if len(params) != len(names):
            raise ValidationError(
                f"{self.family} takes {len(names)} parameters {names}, got {len(params)}"
            )
        if any(not np.isfinite(p) or p <= 0.0 for p in params):
            raise ValidationError(f"{self.family} parameters must be positive, got {params}")
        object.__setattr__(self, "params", params)

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "BaselineSpec":
        if not isinstance(obj, dict) or "family" not in obj or "params" not in obj:
            raise ValidationError("baseline spec must carry 'family' and 'params'")
        return cls(family=obj["family"], params=tuple(obj["params"]))


def _pos(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def log_sf(b: BaselineSpec, x):
    """log survival; 0 for x <= 0 (lifetimes are nonnegative)."""
    t = _pos(x)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if b.family == "exponential":
            (rate,) = b.params
            out = -rate * t
        elif b.family == "weibull":
            a, bb = b.params
            out = -((t / a) ** bb)
        elif b.family == "exp_weibull":
            al, be = b.params
            # F = z^beta with z = 1 - exp(-x^alpha); sf = -expm1(beta log z)
            logz = np.log1p(-np.exp(-(t ** al)))
            out = np.where(t > 0.0, np.log(-np.expm1(be * logz)), 0.0)
        elif b.family == "burr":
            c, k = b.params
            out = -k * np.log1p(t ** c)
        elif b.family == "gen_pareto":
            (al,) = b.params
            out = -np.log1p(al * t) / al
        elif b.family == "gen_gamma":
            p, q = b.params
            out = np.log(gammaincc(q / p, t ** p))
        elif b.family == "gamma":
            sh, rate = b.params
            out = np.log(gammaincc(sh, rate * t))
        else:  # pragma: no cover
            raise ValidationError(b.family)
    return out if np.ndim(x) else float(out)


def sf(b: BaselineSpec, x):
    """Survival function, 1 on x <= 0."""
    with np.errstate(under="ignore"):
        out = np.exp(log_sf(b, x))
    return out if np.ndim(x) else float(out)


def log_pdf(b: BaselineSpec, x):
    """log density on x > 0 (-inf off the support)."""
    arr = np.asarray(x, dtype=float)
    t = np.where(arr > 0.0, arr, np.nan)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if b.family == "exponential":
            (rate,) = b.params
            out = np.log(rate) - rate * t
        elif b.family == "weibull":
            a, bb = b.params
            out = np.log(bb / a) + (bb - 1.0) * np.log(t / a) - (t / a) ** bb
        elif b.family == "exp_weibull":
            al, be = b.params
            logz = np.log1p(-np.exp(-(t ** al)))
            out = np.log(al * be) + (al - 1.0) * np.log(t) - t ** al + (be - 1.0) * logz
        elif b.family == "burr":
            c, k = b.params
            out = np.log(c * k) + (c - 1.0) * np.log(t) - (k + 1.0) * np.log1p(t ** c)
        elif b.family == "gen_pareto":
            (al,) = b.params
            out = -(1.0 / al + 1.0) * np.log1p(al * t)
        elif b.family == "gen_gamma":
            p, q = b.params
            out = np.log(p) + (q - 1.0) * np.log(t) - t ** p - gammaln(q / p)
        elif b.family == "gamma":
            sh, rate = b.params
            out = sh * np.log(rate) + (sh - 1.0) * np.log(t) - rate * t - gammaln(sh)
        else:  # pragma: no cover
            raise ValidationError(b.family)
    out = np.where(np.isnan(t), -np.inf, out)
    return out if np.ndim(x) else float(out)


def pdf(b: BaselineSpec, x):
    with np.errstate(under="ignore"):
        out = np.exp(log_pdf(b, x))
    return out if np.ndim(x) else float(out)


def hazard(b: BaselineSpec, x):
    """Hazard rate pdf/sf, computed in log space."""
    with np.errstate(under="ignore"):
        out = np.exp(log_pdf(b, x) - log_sf(b, x))
    return out if np.ndim(x) else float(out)


def _log1mexp(a):
    """log(1 - e^a) for a <= 0, accurate at both ends."""
    return np.where(a > -np.log(2.0), np.log(-np.expm1(a)), np.log1p(-np.exp(a)))


def inverse_log_sf(b: BaselineSpec, ls):
    """x >= 0 with log_sf(b, x) = ls, for ls <= 0."""
    ls = np.asarray(ls, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if b.family == "exponential":
            (rate,) = b.params
            out = -ls / rate
        elif b.family == "weibull":
            a, bb = b.params
            out = a * (-ls) ** (1.0 / bb)
        elif b.family == "exp_weibull":
            al, be = b.params
            out = (-_log1mexp(_log1mexp(ls) / be)) ** (1.0 / al)
        elif b.family == "burr":
            c, k = b.params
            out = np.expm1(-ls / k) ** (1.0 / c)
        elif b.family == "gen_pareto":
            (al,) = b.params
            out = np.expm1(-al * ls) / al
        elif b.family == "gen_gamma":
            p, q = b.params
            out = gammainccinv(q / p, np.exp(ls)) ** (1.0 / p)
        elif b.family == "gamma":
            sh, rate = b.params
            out = gammainccinv(sh, np.exp(ls)) / rate
        else:  # pragma: no cover
            raise ValidationError(b.family)
    return out if np.ndim(out) else float(out)


def _check_prob(prob) -> np.ndarray:
    p = np.asarray(prob, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValidationError("quantile probability must lie in (0, 1)")
    return p


def quantile(b: BaselineSpec, prob):
    """Inverse cdf on (0, 1)."""
    return inverse_log_sf(b, np.log1p(-_check_prob(prob)))


_KINDS = ("scale", "phr", "location", "mphrs", "ls")


@dataclass(frozen=True)
class SemiParamModel:
    """A baseline plus a semi-parametric transform kind and fixed nuisances."""

    kind: str
    baseline: BaselineSpec
    alpha: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.kind == "mphrs":
            if self.alpha is None or self.lam is None:
                raise ValidationError("mphrs requires fixed alpha and lambda")
            if not (np.isfinite(self.alpha) and self.alpha > 0.0):
                raise ValidationError("mphrs alpha must be positive")
            if not (np.isfinite(self.lam) and self.lam > 0.0):
                raise ValidationError("mphrs lambda must be positive")
        elif self.kind == "ls":
            if self.lam is None or not np.isfinite(self.lam):
                raise ValidationError("ls requires a finite fixed lambda")
            if self.alpha is not None:
                raise ValidationError("ls takes no alpha")
        else:
            if self.alpha is not None or self.lam is not None:
                raise ValidationError(f"{self.kind} takes no fixed parameters")

    def theta_in_domain(self, theta: float) -> bool:
        if not np.isfinite(theta):
            return False
        if self.kind == "location":
            return True
        return theta > 0.0

    def to_json(self) -> dict:
        out = {"kind": self.kind, "baseline": self.baseline.to_json()}
        fixed = {}
        if self.alpha is not None:
            fixed["alpha"] = self.alpha
        if self.lam is not None:
            fixed["lambda"] = self.lam
        if fixed:
            out["fixed"] = fixed
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SemiParamModel":
        if not isinstance(obj, dict) or "kind" not in obj or "baseline" not in obj:
            raise ValidationError("model spec must carry 'kind' and 'baseline'")
        fixed = obj.get("fixed", {})
        return cls(
            kind=obj["kind"],
            baseline=BaselineSpec.from_json(obj["baseline"]),
            alpha=fixed.get("alpha"),
            lam=fixed.get("lambda"),
        )


def _check_theta(m: SemiParamModel, theta: float):
    if not m.theta_in_domain(theta):
        raise ValidationError(f"theta {theta} outside the {m.kind} domain")


def sp_survival(m: SemiParamModel, x, theta: float):
    """Transformed survival F(x; theta), in [0, 1] and nonincreasing in x."""
    _check_theta(m, theta)
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValidationError("x contains NaN")
    if m.kind == "scale":
        out = sf(m.baseline, theta * arr)
    elif m.kind == "phr":
        with np.errstate(under="ignore"):
            out = np.exp(theta * log_sf(m.baseline, arr))
    elif m.kind == "location":
        out = sf(m.baseline, arr - theta)
    elif m.kind == "mphrs":
        with np.errstate(under="ignore"):
            w = np.exp(m.lam * log_sf(m.baseline, arr * theta))
        out = m.alpha * w / (1.0 - (1.0 - m.alpha) * w)
    elif m.kind == "ls":
        out = sf(m.baseline, theta * (arr - m.lam))
    else:  # pragma: no cover
        raise ValidationError(m.kind)
    return out if np.ndim(x) else float(out)


def sp_log_survival(m: SemiParamModel, x, theta: float):
    """log F(x; theta), exact in the tails."""
    _check_theta(m, theta)
    arr = np.asarray(x, dtype=float)
    if m.kind == "scale":
        out = log_sf(m.baseline, theta * arr)
    elif m.kind == "phr":
        out = theta * log_sf(m.baseline, arr)
    elif m.kind == "location":
        out = log_sf(m.baseline, arr - theta)
    elif m.kind == "mphrs":
        lw = m.lam * log_sf(m.baseline, arr * theta)
        with np.errstate(under="ignore"):
            out = np.log(m.alpha) + lw - np.log1p(-(1.0 - m.alpha) * np.exp(lw))
    elif m.kind == "ls":
        out = log_sf(m.baseline, theta * (arr - m.lam))
    else:  # pragma: no cover
        raise ValidationError(m.kind)
    return out if np.ndim(x) else float(out)


def sp_inverse_log_survival(m: SemiParamModel, ls, theta: float):
    """x with sp_log_survival(m, x, theta) = ls, for ls <= 0.

    Where the transform shifts mass below 0 (location with theta < 0, ls
    with lam < 0), ls above log F(0; theta) maps to a negative x; lifetime
    samplers clamp it to 0.
    """
    _check_theta(m, theta)
    ls = np.asarray(ls, dtype=float)
    if m.kind == "scale":
        out = inverse_log_sf(m.baseline, ls) / theta
    elif m.kind == "phr":
        out = inverse_log_sf(m.baseline, ls / theta)
    elif m.kind == "location":
        out = inverse_log_sf(m.baseline, ls) + theta
    elif m.kind == "mphrs":
        # log w = ls - log(alpha + (1 - alpha) e^ls), w = F(x mu)^lam
        lw = ls - np.log1p((1.0 - m.alpha) * np.expm1(ls))
        out = inverse_log_sf(m.baseline, lw / m.lam) / theta
    elif m.kind == "ls":
        out = m.lam + inverse_log_sf(m.baseline, ls) / theta
    else:  # pragma: no cover
        raise ValidationError(m.kind)
    return out if np.ndim(out) else float(out)


def sp_quantile(m: SemiParamModel, prob, theta: float):
    """Inverse cdf of the transformed model."""
    return sp_inverse_log_survival(m, np.log1p(-_check_prob(prob)), theta)


@dataclass(frozen=True)
class ShapeVerdict:
    """Outcome of a monotonicity/convexity probe on a finite grid.

    ``holds`` iff ``worst_violation <= tol``; the violation is the largest
    signed breach of the defining inequality seen anywhere on the grid.
    """

    property: str
    holds: bool
    worst_violation: float
    tol: float
    probe: str

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "worst_violation": self.worst_violation,
            "tol": self.tol,
            "probe": self.probe,
        }


def default_x_grid(b: BaselineSpec, points: int = 200, q_lo: float = 0.001, q_hi: float = 0.999):
    """Log-spaced grid over the baseline's bulk quantile range."""
    lo, hi = quantile(b, q_lo), quantile(b, q_hi)
    return np.geomspace(max(lo, hi * 1e-12), hi, points)


def _monotone_violation(values: np.ndarray, direction: str) -> float:
    """Largest signed breach of nonincreasing/nondecreasing, scale-relative."""
    d = np.diff(values)
    scale = 1.0 + np.abs(values[:-1]) + np.abs(values[1:])
    if direction == "nonincreasing":
        return float(np.max(d / scale)) if d.size else 0.0
    return float(np.max(-d / scale)) if d.size else 0.0


def _convexity_violation(xs: np.ndarray, values: np.ndarray) -> float:
    """Largest signed breach of slope monotonicity (convexity), scale-relative."""
    slopes = np.diff(values) / np.diff(xs)
    if slopes.size < 2:
        return 0.0
    d = np.diff(slopes)
    scale = 1.0 + np.abs(slopes[:-1]) + np.abs(slopes[1:])
    return float(np.max(-d / scale))


def _check_rate(prop: str, b: BaselineSpec, x_grid, tol: float) -> ShapeVerdict:
    """hazard (dfr) or x*hazard (dpfr) nonincreasing on the grid; points
    where it is not finite are dropped."""
    xs = default_x_grid(b) if x_grid is None else np.asarray(x_grid, dtype=float)
    if xs.size < 100:
        raise ValidationError(f"{prop.upper()} probe needs at least 100 grid points")
    if np.any(xs <= 0.0):
        raise ValidationError(f"{prop.upper()} probe grid must be positive")
    v = xs * hazard(b, xs) if prop == "dpfr" else hazard(b, xs)
    keep = np.isfinite(v)
    xs, v = xs[keep], v[keep]
    worst = _monotone_violation(v, "nonincreasing")
    label = "x*hazard" if prop == "dpfr" else "hazard"
    return ShapeVerdict(prop, worst <= tol, worst, tol,
                        f"{label} on {xs.size} points in [{xs[0]:.3g}, {xs[-1]:.3g}]")


def check_dfr(b: BaselineSpec, x_grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Decreasing failure rate: hazard nonincreasing on the grid."""
    return _check_rate("dfr", b, x_grid, tol)


def check_dpfr(b: BaselineSpec, x_grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Decreasing proportional failure rate: x*hazard(x) nonincreasing."""
    return _check_rate("dpfr", b, x_grid, tol)


def _active_window(logs: np.ndarray) -> slice:
    """Contiguous probe window where the survival is strictly inside (0, 1)."""
    ok = (logs < -1e-12) & (logs > np.log(LOG_FLOOR)) & np.isfinite(logs)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return slice(0, 0)
    return slice(idx[0], idx[-1] + 1)


def check_theorem1_condition2(
    m: SemiParamModel,
    x_grid=None,
    a_grid=None,
    tol: float = 1e-9,
) -> ShapeVerdict:
    """Shape requirement paired with log-concave generators.

    Two clauses, probed jointly:

    * F(x; e^a) is nonincreasing in the log-parameter a, for every grid x;
    * the transformed model keeps a decreasing hazard: log F(x; e^a) is
      convex along x for every probed a (for scale, frailty and location
      kinds this is exactly "the baseline is DFR").

    Probes skip the regions where the survival is identically 1 (support
    padding of location-type kinds) or below the underflow floor.
    """
    xs = default_x_grid(m.baseline) if x_grid is None else np.asarray(x_grid, dtype=float)
    aa = np.linspace(np.log(0.2), np.log(5.0), 100) if a_grid is None else np.asarray(a_grid, dtype=float)
    if xs.size < 3 or aa.size < 3:
        raise ValidationError("condition-2 probe needs at least 3 points per axis")
    thetas = np.exp(aa)
    logs = np.stack([sp_log_survival(m, xs, th) for th in thetas], axis=0)  # (a, x)
    worst = -np.inf
    # monotone nonincreasing in a at each x (survival space)
    with np.errstate(under="ignore"):
        surv = np.exp(logs)
    for j in range(xs.size):
        col = surv[:, j]
        worst = max(worst, _monotone_violation(col, "nonincreasing"))
    # log-survival convex along x at each probed parameter
    for i in range(aa.size):
        win = _active_window(logs[i])
        if win.stop - win.start < 3:
            continue
        worst = max(worst, _convexity_violation(xs[win], logs[i, win]))
    if not np.isfinite(worst):
        worst = 0.0
    return ShapeVerdict(
        "decreasing_in_log_param_and_model_dfr",
        worst <= tol,
        float(worst),
        tol,
        f"{aa.size} log-params x {xs.size} lifetimes",
    )


def check_theorem2_condition2(
    m: SemiParamModel,
    x_grid=None,
    theta_grid=None,
    tol: float = 1e-9,
) -> ShapeVerdict:
    """Shape requirement paired with log-convex generators.

    F(x; theta) must be nondecreasing in theta and log F(x; theta) convex
    in theta, probed on the region where the survival is strictly inside
    (0, 1).
    """
    xs = default_x_grid(m.baseline) if x_grid is None else np.asarray(x_grid, dtype=float)
    tg = np.linspace(0.2, 5.0, 100) if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if xs.size < 3 or tg.size < 3:
        raise ValidationError("condition-2 probe needs at least 3 points per axis")
    bad = [t for t in tg if not m.theta_in_domain(float(t))]
    if bad:
        raise ValidationError(f"theta grid leaves the {m.kind} domain: {bad[:3]}")
    logs = np.stack([sp_log_survival(m, xs, float(th)) for th in tg], axis=0)  # (theta, x)
    with np.errstate(under="ignore"):
        surv = np.exp(logs)
    worst = -np.inf
    for j in range(xs.size):
        col_logs = logs[:, j]
        worst = max(worst, _monotone_violation(surv[:, j], "nondecreasing"))
        win = _active_window(col_logs)
        if win.stop - win.start < 3:
            continue
        worst = max(worst, _convexity_violation(tg[win], col_logs[win]))
    if not np.isfinite(worst):
        worst = 0.0
    return ShapeVerdict(
        "increasing_and_log_convex_in_theta",
        worst <= tol,
        float(worst),
        tol,
        f"{tg.size} thetas x {xs.size} lifetimes",
    )
