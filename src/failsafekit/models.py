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
whole (parameter x lifetime) matrix.

The shape hypotheses of the comparison results are decided from closed
forms, not grid probes.  Each family record carries its DFR rule
(exp_weibull: Mudholkar & Srivastava 1993, IEEE Trans. Reliab. 42:299;
gen_gamma: Glaser 1980, JASA 75:667), and each kind its direction in
theta: F(x; theta) is nonincreasing in theta for scale, phr, mphrs and ls,
and nondecreasing for location.  The one case without a rule, mphrs with
alpha > 1, probes the hazard of its transformed model on a lifetime grid.
Everything is pure and reentrant; model values are immutable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

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
    with the family's parameters after its first argument (``dfr`` with
    the parameters alone)."""

    names: tuple[str, ...]
    log_sf: Callable[..., np.ndarray]  # (t, *params), t >= 0
    log_pdf: Callable[..., np.ndarray]  # (t, *params), t > 0 or NaN
    inverse_log_sf: Callable[..., np.ndarray]  # (ls, *params), ls <= 0
    dfr: Callable[..., dict]  # (*params) -> {quantity: value}; DFR iff every value <= 1


_FAMILIES = {
    "exponential": _Family(
        ("rate",),
        lambda t, rate: -rate * t,
        lambda t, rate: np.log(rate) - rate * t,
        lambda ls, rate: -ls / rate,
        lambda rate: {}),
    "weibull": _Family(
        ("scale", "shape"),
        lambda t, a, bb: -((t / a) ** bb),
        lambda t, a, bb: np.log(bb / a) + (bb - 1.0) * np.log(t / a) - (t / a) ** bb,
        lambda ls, a, bb: a * (-ls) ** (1.0 / bb),
        lambda a, bb: {"shape": bb}),
    "exp_weibull": _Family(  # sf = -expm1(beta log z)
        ("alpha", "beta"),
        lambda t, al, be: np.where(t > 0.0, np.log(-np.expm1(be * _log_z(t, al))), 0.0),
        lambda t, al, be: (np.log(al * be) + (al - 1.0) * np.log(t) - t ** al
                           + (be - 1.0) * _log_z(t, al)),
        lambda ls, al, be: (-_log1mexp(_log1mexp(ls) / be)) ** (1.0 / al),
        lambda al, be: {"alpha": al, "alpha*beta": al * be}),
    "burr": _Family(
        ("c", "k"),
        lambda t, c, k: -k * _log1p_pow(t, c),
        lambda t, c, k: np.log(c * k) + (c - 1.0) * np.log(t) - (k + 1.0) * _log1p_pow(t, c),
        lambda ls, c, k: np.expm1(-ls / k) ** (1.0 / c),
        lambda c, k: {"c": c}),
    "gen_pareto": _Family(
        ("alpha",),
        lambda t, al: -np.log1p(al * t) / al,
        lambda t, al: -(1.0 / al + 1.0) * np.log1p(al * t),
        lambda ls, al: np.expm1(-al * ls) / al,
        lambda al: {}),
    "gen_gamma": _Family(
        ("p", "q"),
        lambda t, p, q: np.log(_special().gammaincc(q / p, t ** p)),
        lambda t, p, q: np.log(p) + (q - 1.0) * np.log(t) - t ** p - _special().gammaln(q / p),
        lambda ls, p, q: _special().gammainccinv(q / p, np.exp(ls)) ** (1.0 / p),
        lambda p, q: {"p": p, "q": q}),
    "gamma": _Family(
        ("shape", "rate"),
        lambda t, sh, rate: np.log(_special().gammaincc(sh, rate * t)),
        lambda t, sh, rate: (sh * np.log(rate) + (sh - 1.0) * np.log(t) - rate * t
                             - _special().gammaln(sh)),
        lambda ls, sh, rate: _special().gammainccinv(sh, np.exp(ls)) / rate,
        lambda sh, rate: {"shape": sh}),
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


#: (a, c, p) of each kind, as in the module docstring, from theta t and the fixed
#: lambda, and the direction in which F(x; theta) moves as theta grows.
_KIND_MAP = {
    "scale": (lambda t, lam: (t, 0.0, 1.0), "nonincreasing"),
    "phr": (lambda t, lam: (1.0, 0.0, t), "nonincreasing"),
    "location": (lambda t, lam: (1.0, t, 1.0), "nondecreasing"),
    "mphrs": (lambda t, lam: (t, 0.0, lam), "nonincreasing"),
    "ls": (lambda t, lam: (t, lam, 1.0), "nonincreasing"),
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
    return _KIND_MAP[m.kind][0](t, m.lam)


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
    """A shape hypothesis and the rule that decided it."""

    property: str
    holds: bool
    rule: str

    def to_json(self) -> dict:
        return asdict(self)


def default_x_grid(b: BaselineSpec, points: int = 200, q_lo: float = 0.001, q_hi: float = 0.999):
    """Log-spaced grid over the baseline's bulk quantile range."""
    lo, hi = quantile(b, q_lo), quantile(b, q_hi)
    if not (np.isfinite(lo) and 0.0 < hi < np.inf):
        raise ValidationError(f"{b.family}{b.params} has no finite positive bulk quantile "
                              f"range [{lo:.3g}, {hi:.3g}] for a probe grid")
    return np.geomspace(max(lo, hi * 1e-12), hi, points)


def check_dfr(b: BaselineSpec) -> ShapeVerdict:
    """Decreasing failure rate, from the family's closed-form rule."""
    terms = _FAMILIES[b.family].dfr(*b.params)
    rule = "; ".join(f"{k} {v:.6g} {'<=' if v <= 1.0 else '>'} 1" for k, v in terms.items())
    return ShapeVerdict("dfr", all(v <= 1.0 for v in terms.values()),
                        f"{b.family} {rule or 'always DFR'}")


def check_dpfr(b: BaselineSpec) -> ShapeVerdict:
    """Decreasing proportional failure rate, x*hazard(x) nonincreasing on
    (0, inf): no lifetime law has it, so this always fails with the proof."""
    return ShapeVerdict("dpfr", False, (
        f"{b.family}: no lifetime law with S(0) = 1 has x*h(x) nonincreasing on "
        "(0, inf); x*h >= c > 0 on (0, x0] makes the integral of h over (eps, x0) "
        "at least c log(x0/eps), which diverges as eps -> 0, so S(x0) = 0"))


def _model_dfr(m: SemiParamModel, grid, tol: float) -> ShapeVerdict:
    """The transformed model's DFR.  Every kind keeps the baseline's hazard
    shape (mphrs: the Marshall-Olkin map divides it by 1 - (1-alpha) w,
    which grows in x for alpha <= 1), except mphrs with alpha > 1: there the
    hazard of F(x; 1), a scale family in theta, is probed on grid(m)."""
    if m.kind != "mphrs" or m.alpha <= 1.0:
        return check_dfr(m.baseline)
    xs = np.asarray(grid(m), dtype=float)
    ls = log_sf(m.baseline, xs)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        h = np.exp(np.log(m.lam) + log_pdf(m.baseline, xs) - ls
                   - np.log1p((m.alpha - 1.0) * np.exp(m.lam * ls)))
    h = h[np.isfinite(h)]
    if h.size < 3:
        raise ValidationError(f"mphrs hazard probe: fewer than 3 finite points on "
                              f"{xs.size} grid points")
    worst = float(np.max(np.diff(h) / (1.0 + h[:-1] + h[1:])))
    return ShapeVerdict("dfr", worst <= tol, (
        f"mphrs alpha {m.alpha:.6g} > 1, no rule: hazard of F(x; 1) on {h.size} points "
        f"in [{xs[0]:.3g}, {xs[-1]:.3g}], worst relative rise {worst:.3e}"))


def survival_shape(m: SemiParamModel, sign: str, grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """F(x; theta) moves in ``sign`` ('nonincreasing' or 'nondecreasing') as
    theta grows, and the transformed model is DFR.  ``grid(m)`` gives the
    lifetimes of the mphrs alpha > 1 hazard probe (default: the baseline's
    bulk); no other case evaluates the model."""
    prop = f"{sign}_in_theta_and_model_dfr"
    kind_sign = _KIND_MAP[m.kind][1]
    if kind_sign != sign:
        return ShapeVerdict(prop, False, f"{m.kind}: {kind_sign} in theta, not {sign}")
    dfr = _model_dfr(m, grid or (lambda mm: default_x_grid(mm.baseline)), tol)
    return ShapeVerdict(prop, dfr.holds, f"{m.kind}: {sign} in theta; {dfr.rule}")


def check_theorem1_condition2(m: SemiParamModel, grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Shape requirement paired with log-concave generators: F(x; theta)
    nonincreasing in theta and a DFR model (see ``survival_shape``)."""
    return survival_shape(m, "nonincreasing", grid, tol)


def check_theorem2_condition2(m: SemiParamModel, grid=None, tol: float = 1e-9) -> ShapeVerdict:
    """Shape requirement paired with log-convex generators: F(x; theta)
    nondecreasing and log-convex in theta.  Only location moves up in theta,
    and there log F(x - theta) is convex in theta iff the baseline is DFR."""
    return survival_shape(m, "nondecreasing", grid, tol)
