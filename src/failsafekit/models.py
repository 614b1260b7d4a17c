"""Baseline lifetime distributions and semi-parametric survival transforms.

Each baseline family is one record of the module table ``_FAMILIES``: its
parameter names and closed forms for log-survival, log-density and
inverse log-survival.  ``log_sf``, ``log_pdf`` and ``inverse_log_sf``
clamp or mask their input and make one call into that record; hazard
comes from the first two in log space.  gen_gamma and gamma route through
scipy's regularized incomplete gamma, whose log-gamma backend meets a
1e-12 relative accuracy standard; scipy.special loads on their first use,
so the other baselines never import scipy.  Quantiles and Monte-Carlo
lifetimes both come from the inverse log-survival, so neither rounds a
tail probability to 1.
The semi-parametric kinds map a baseline survival F(x) to F(x; theta)
through one table (a, c, p), ``_KIND_MAP``, built once at import, with
log F(x; theta) = p log F(a (x - c)):

    scale      (theta, 0, 1)      F(theta x)                theta > 0
    phr        (1, 0, theta)      F(x)^theta                theta > 0
    location   (1, theta, 1)      F(x - theta)              theta real
    mphrs      (theta, 0, lam)    w = F(theta x)^lam, then
               alpha w / (1 - (1-alpha) w), fixed alpha > 0, lam > 0
    ls         (theta, lam, 1)    F(theta (x - lam))        theta > 0, fixed lam

theta may be an array that broadcasts against x, so one call evaluates a
whole (parameter x lifetime) matrix.  Shape checks certify
monotonicity/convexity on finite probe grids, vectorised over that
matrix; their verdicts feed the comparison-result verifiers.  Everything
is pure and reentrant; model values are immutable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

#: Survival values below this are excluded from log-space probes.
LOG_FLOOR = 1e-300


def _special():
    """scipy.special, imported on first use by the gamma and gen_gamma
    baselines; no other path of the package needs it."""
    import scipy.special

    return scipy.special


def _log1mexp(a):
    """log(1 - e^a) for a <= 0, accurate at both ends."""
    return np.where(a > -np.log(2.0), np.log(-np.expm1(a)), np.log1p(-np.exp(a)))


def _log1p_pow(t, c):
    """log(1 + t^c), taken as c log t where t^c overflows."""
    out = np.log1p(t ** c)
    big = np.isinf(out)
    if np.any(big):  # rare, so the common case makes no extra temporaries
        out = np.where(big, c * np.log(t), out)
    return out


def _log_z(t, al):
    """exp_weibull's log z, z = 1 - exp(-t^alpha), so that F = z^beta."""
    return np.log1p(-np.exp(-(t ** al)))


class _Family(NamedTuple):
    """A baseline family: parameter names and closed forms, each called
    with the family's parameters after its first argument."""

    names: tuple[str, ...]
    log_sf: Callable[..., np.ndarray]  # (t, *params), t >= 0
    log_pdf: Callable[..., np.ndarray]  # (t, *params), t > 0 or NaN
    inverse_log_sf: Callable[..., np.ndarray]  # (ls, *params), ls <= 0


_FAMILIES = {
    "exponential": _Family(
        ("rate",),
        lambda t, rate: -rate * t,
        lambda t, rate: np.log(rate) - rate * t,
        lambda ls, rate: -ls / rate),
    "weibull": _Family(
        ("scale", "shape"),
        lambda t, a, bb: -((t / a) ** bb),
        lambda t, a, bb: np.log(bb / a) + (bb - 1.0) * np.log(t / a) - (t / a) ** bb,
        lambda ls, a, bb: a * (-ls) ** (1.0 / bb)),
    "exp_weibull": _Family(  # sf = -expm1(beta log z)
        ("alpha", "beta"),
        lambda t, al, be: np.where(t > 0.0, np.log(-np.expm1(be * _log_z(t, al))), 0.0),
        lambda t, al, be: (np.log(al * be) + (al - 1.0) * np.log(t) - t ** al
                           + (be - 1.0) * _log_z(t, al)),
        lambda ls, al, be: (-_log1mexp(_log1mexp(ls) / be)) ** (1.0 / al)),
    "burr": _Family(
        ("c", "k"),
        lambda t, c, k: -k * _log1p_pow(t, c),
        lambda t, c, k: np.log(c * k) + (c - 1.0) * np.log(t) - (k + 1.0) * _log1p_pow(t, c),
        lambda ls, c, k: np.expm1(-ls / k) ** (1.0 / c)),
    "gen_pareto": _Family(
        ("alpha",),
        lambda t, al: -np.log1p(al * t) / al,
        lambda t, al: -(1.0 / al + 1.0) * np.log1p(al * t),
        lambda ls, al: np.expm1(-al * ls) / al),
    "gen_gamma": _Family(
        ("p", "q"),
        lambda t, p, q: np.log(_special().gammaincc(q / p, t ** p)),
        lambda t, p, q: np.log(p) + (q - 1.0) * np.log(t) - t ** p - _special().gammaln(q / p),
        lambda ls, p, q: _special().gammainccinv(q / p, np.exp(ls)) ** (1.0 / p)),
    "gamma": _Family(
        ("shape", "rate"),
        lambda t, sh, rate: np.log(_special().gammaincc(sh, rate * t)),
        lambda t, sh, rate: (sh * np.log(rate) + (sh - 1.0) * np.log(t) - rate * t
                             - _special().gammaln(sh)),
        lambda ls, sh, rate: _special().gammainccinv(sh, np.exp(ls)) / rate),
}

BASELINE_FAMILIES = tuple(_FAMILIES)
#: The baselines the fitting pipeline estimates and ranks.
FIT_FAMILIES = ("exponential", "gamma", "weibull", "burr")


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline lifetime distribution on (0, inf)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown baseline family {self.family!r}")
        names = _FAMILIES[self.family].names
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


def log_sf(b: BaselineSpec, x):
    """log survival; 0 for x <= 0 (lifetimes are nonnegative)."""
    t = np.maximum(np.asarray(x, dtype=float), 0.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = _FAMILIES[b.family].log_sf(t, *b.params)
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
        out = _FAMILIES[b.family].log_pdf(t, *b.params)
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


def inverse_log_sf(b: BaselineSpec, ls):
    """x >= 0 with log_sf(b, x) = ls, for ls <= 0."""
    ls = np.asarray(ls, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = _FAMILIES[b.family].inverse_log_sf(ls, *b.params)
    return out if np.ndim(out) else float(out)


def _check_prob(prob) -> np.ndarray:
    p = np.asarray(prob, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails both comparisons
        raise ValidationError("quantile probability must lie in (0, 1)")
    return p


def quantile(b: BaselineSpec, prob):
    """Inverse cdf on (0, 1)."""
    return inverse_log_sf(b, np.log1p(-_check_prob(prob)))


#: (a, c, p) of each kind, as in the module docstring, from theta t and the fixed lambda.
_KIND_MAP = {
    "scale": lambda t, lam: (t, 0.0, 1.0),
    "phr": lambda t, lam: (1.0, 0.0, t),
    "location": lambda t, lam: (1.0, t, 1.0),
    "mphrs": lambda t, lam: (t, 0.0, lam),
    "ls": lambda t, lam: (t, lam, 1.0),
}
_KINDS = tuple(_KIND_MAP)


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
        elif self.alpha is not None or self.lam is not None:
            raise ValidationError(f"{self.kind} takes no fixed parameters")

    def theta_in_domain(self, theta):
        """Whether theta (elementwise for an array) is finite, and positive
        unless the kind is location."""
        t = np.asarray(theta, dtype=float)
        return np.isfinite(t) & ((t > 0.0) | (self.kind == "location"))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "baseline": self.baseline.to_json()}
        pairs = (("alpha", self.alpha), ("lambda", self.lam))
        fixed = {k: v for k, v in pairs if v is not None}
        return {**out, "fixed": fixed} if fixed else out

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


def _kind_map(m: SemiParamModel, theta):
    """_KIND_MAP's (a, c, p) for m at theta, after a domain check; theta may
    be an array that broadcasts against x."""
    t = np.asarray(theta, dtype=float)
    ok = m.theta_in_domain(t)
    if not ok.all():
        raise ValidationError(f"theta {t[~ok][:3].tolist()} outside the {m.kind} domain")
    return _KIND_MAP[m.kind](t, m.lam)


def _log_w(m: SemiParamModel, x, theta):
    a, c, p = _kind_map(m, theta)
    return p * log_sf(m.baseline, a * (np.asarray(x, dtype=float) - c))


def sp_survival(m: SemiParamModel, x, theta):
    """Transformed survival F(x; theta), in [0, 1] and nonincreasing in x."""
    if np.any(np.isnan(np.asarray(x, dtype=float))):
        raise ValidationError("x contains NaN")
    with np.errstate(under="ignore"):
        out = np.exp(_log_w(m, x, theta))
    if m.kind == "mphrs":
        out = m.alpha * out / (1.0 - (1.0 - m.alpha) * out)
    return out if np.ndim(out) else float(out)


def sp_log_survival(m: SemiParamModel, x, theta):
    """log F(x; theta), exact in the tails."""
    out = _log_w(m, x, theta)
    if m.kind == "mphrs":
        with np.errstate(under="ignore"):
            out = np.log(m.alpha) + out - np.log1p(-(1.0 - m.alpha) * np.exp(out))
    return out if np.ndim(out) else float(out)


def sp_inverse_log_survival(m: SemiParamModel, ls, theta):
    """x with sp_log_survival(m, x, theta) = ls, for ls <= 0.

    Where the transform shifts mass below 0 (location with theta < 0, ls
    with lam < 0), ls above log F(0; theta) maps to a negative x; lifetime
    samplers clamp it to 0.
    """
    a, c, p = _kind_map(m, theta)
    ls = np.asarray(ls, dtype=float)
    if m.kind == "mphrs":
        # log w = ls - log(alpha + (1 - alpha) e^ls), w = F(x mu)^lam
        ls = ls - np.log1p((1.0 - m.alpha) * np.expm1(ls))
    out = c + inverse_log_sf(m.baseline, ls / p) / a
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
        return asdict(self)


def default_x_grid(b: BaselineSpec, points: int = 200, q_lo: float = 0.001, q_hi: float = 0.999):
    """Log-spaced grid over the baseline's bulk quantile range."""
    lo, hi = quantile(b, q_lo), quantile(b, q_hi)
    if not (np.isfinite(lo) and 0.0 < hi < np.inf):
        raise ValidationError(f"{b.family}{b.params} has no finite positive bulk quantile "
                              f"range [{lo:.3g}, {hi:.3g}] for a probe grid")
    return np.geomspace(max(lo, hi * 1e-12), hi, points)


def _monotone_violation(values: np.ndarray, sign: float, axis: int) -> np.ndarray:
    """Per-line largest signed breach of monotonicity along ``axis``,
    scale-relative: sign +1 probes nonincreasing, -1 nondecreasing."""
    v = np.moveaxis(values, axis, -1)
    d = np.diff(v)
    scale = 1.0 + np.abs(v[..., :-1]) + np.abs(v[..., 1:])
    return np.max(sign * d / scale, axis=-1, initial=-np.inf)


def _convexity_violation(t: np.ndarray, logs: np.ndarray, axis: int) -> np.ndarray:
    """Per-line largest signed breach of slope monotonicity (convexity) along
    ``axis``, scale-relative, on each line's active window: from its first to
    its last point where the survival is strictly inside (0, 1) and above
    LOG_FLOOR.  A window of fewer than 3 points gives -inf."""
    v = np.moveaxis(logs, axis, -1)
    ok = (v < -1e-12) & (v > np.log(LOG_FLOOR)) & np.isfinite(v)
    reach = np.logical_or.accumulate
    win = reach(ok, -1) & reach(ok[..., ::-1], -1)[..., ::-1]
    with np.errstate(invalid="ignore"):  # non-finite logs outside the window
        slopes = np.diff(v) / np.diff(t)
        d = np.diff(slopes)
        viol = -d / (1.0 + np.abs(slopes[..., :-1]) + np.abs(slopes[..., 1:]))
    return np.max(viol, axis=-1, where=win[..., :-2] & win[..., 2:], initial=-np.inf)


def _worst(lines) -> float:
    """Largest per-line violation; lines reading NaN are skipped and a result
    that is not finite reads 0."""
    worst = np.fmax.reduce(np.ravel(lines), initial=-np.inf)
    return float(worst) if np.isfinite(worst) else 0.0


def _check_rate(prop: str, b: BaselineSpec, x_grid, tol: float) -> ShapeVerdict:
    """hazard (dfr) or x*hazard (dpfr) nonincreasing on the grid; points
    where it is not finite are dropped."""
    xs = default_x_grid(b) if x_grid is None else np.asarray(x_grid, dtype=float)
    if xs.size < 100:
        raise ValidationError(f"{prop.upper()} probe needs at least 100 grid points")
    if np.any(xs <= 0.0):
        raise ValidationError(f"{prop.upper()} probe grid must be positive")
    v = xs * hazard(b, xs) if prop == "dpfr" else hazard(b, xs)
    label = "x*hazard" if prop == "dpfr" else "hazard"
    keep = np.isfinite(v)
    if not keep.any():
        raise ValidationError(f"{prop.upper()} probe: {label} is not finite at any grid point")
    xs, v = xs[keep], v[keep]
    worst = _worst(_monotone_violation(v, 1.0, 0))
    return ShapeVerdict(prop, worst <= tol, worst, tol,
                        f"{label} on {xs.size} points in [{xs[0]:.3g}, {xs[-1]:.3g}]")


def check_dfr(b: BaselineSpec, x_grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Decreasing failure rate: hazard nonincreasing on the grid."""
    return _check_rate("dfr", b, x_grid, tol)


def check_dpfr(b: BaselineSpec, x_grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Decreasing proportional failure rate: x*hazard(x) nonincreasing."""
    return _check_rate("dpfr", b, x_grid, tol)


def _condition2(m, x_grid, grid, thetas, sign, convex_axis, prop, label, tol):
    """Probe F(x; theta) on the (param x lifetime) matrix: monotone in the
    parameter (sign as in _monotone_violation) and log-convex along
    ``convex_axis`` (0: the parameter grid, 1: the lifetimes)."""
    xs = default_x_grid(m.baseline) if x_grid is None else np.asarray(x_grid, dtype=float)
    if xs.size < 3 or grid.size < 3:
        raise ValidationError("condition-2 probe needs at least 3 points per axis")
    logs = sp_log_survival(m, xs, thetas[:, None])
    with np.errstate(under="ignore"):
        mono = _monotone_violation(np.exp(logs), sign, 0)
    conv = _convexity_violation((grid, xs)[convex_axis], logs, convex_axis)
    worst = _worst(np.concatenate([mono, conv]))
    return ShapeVerdict(prop, worst <= tol, worst, tol,
                        f"{grid.size} {label} x {xs.size} lifetimes")


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
    if a_grid is None:
        a_grid = np.linspace(np.log(0.2), np.log(5.0), 100)
    aa = np.asarray(a_grid, dtype=float)
    return _condition2(m, x_grid, aa, np.exp(aa), 1.0, 1,
                       "decreasing_in_log_param_and_model_dfr", "log-params", tol)


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
    if theta_grid is None:
        theta_grid = np.linspace(0.2, 5.0, 100)
    tg = np.asarray(theta_grid, dtype=float)
    return _condition2(m, x_grid, tg, tg, -1.0, 0,
                       "increasing_and_log_convex_in_theta", "thetas", tol)
