"""Baseline lifetime distributions and semi-parametric survival transforms.

Each baseline family is one record of the module table ``_FAMILIES``: its
parameter names and closed forms for log-survival, log-density and
inverse log-survival.  ``log_sf``, ``log_pdf`` and ``inverse_log_sf``
clamp or mask their input and make one call into that record; hazard
comes from the first two in log space.  They evaluate a scalar as a
1-element array, so a value does not depend on whether it came alone or
in a batch (numpy's ``**`` on a 0-d value is libm's pow, which can round
differently from numpy's own array loop).  Quantiles and Monte-Carlo
lifetimes both come from the inverse log-survival, so neither rounds a
tail probability to 1.  No baseline imports scipy.

gamma and gen_gamma share one numpy kernel for log Q(a, x), Q the
regularized upper incomplete gamma, with a scalar shape a and an array x.
Below x = a + 1 it is log1p(-P), P from its power series by Horner; above,
Legendre's continued fraction (DLMF 8.9.2) evaluated backward in log
space, so log Q stays finite far past exp's underflow.  Both term budgets
depend on a alone, so no value depends on the rest of its call, and they
cover shapes up to GAMMA_SHAPE_MAX = 1e4; larger shapes are refused.  The
prefactor log(x^a e^-x / Gamma(a)) uses Stirling's series for a >= 10,
where its terms would cancel; the log density is built from it too.  The
inverse is Halley's method on log(-log Q) in log x (background: DiDonato &
Morris 1986, ACM TOMS 12:377).  Against 40-digit values log Q is within
5e-13 relative for 1e-3 <= a <= 1e3 and 1e-12 up to a = 1e4, for x from
1e-300 to log Q = -1000.  The rounding of a log x - x and of x - a, which
the problem's own conditioning shares, and for a < 0.01 the cancellation
in 1 - P set that error.

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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError


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
    return _log1mexp(-(t ** al))


def _power_and_log(t, p):
    """(t^p, p log t), the gamma kernels' argument and its log."""
    if p == 1.0:
        return t, np.log(t)
    lx = p * np.log(t)
    return np.exp(lx), lx


#: The largest shape the incomplete gamma kernel accepts: its fraction and
#: series budgets (205 levels and 888 coefficients at 1e4) are sized for it.
GAMMA_SHAPE_MAX = 1e4
_EPS = 2.0 ** -53


def _stirlerr(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2), by Stirling's
    series; its error is below 1e-17 for a >= 10."""
    r = 1.0 / (a * a)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * (691 / 360360 - r / 156)))))) / a


def _log_gamma_prefactor(a: float, x, lx, k: float = 0.0, c: float = 0.0):
    """c + log(x^(a-k) e^-x / Gamma(a)), with lx = log x; k = 0 gives the
    incomplete gamma's prefactor, k = 1 the gamma(a, 1) log density.  For
    a >= 10, where a log x, x and lgamma(a) would cancel, it is taken as
    a (l - u) - k l + log(a / 2 pi) / 2 - k log a - stirlerr(a), with
    u = x/a - 1 and l = log(x/a), the latter as log1p(u) from x = a/2 up."""
    if a < 10.0:
        return (a - k) * lx - x + (c - math.lgamma(a))
    u = (x - a) / a
    l1 = np.log1p(u)
    low = x < 0.5 * a
    if low.any():  # rare in the bulk, so the common case makes no extra temporaries
        l1 = np.where(low, lx - math.log(a), l1)
    out = a * (l1 - u) + (c - k * math.log(a) + 0.5 * math.log(a / (2.0 * math.pi))
                          - _stirlerr(a))
    return out - k * l1 if k else out


def _cf_depth(a: float, x: float) -> int:
    """Levels of Legendre's fraction for Q(a, x): the first forward (Lentz)
    convergent that moves by at most an ulp, plus 2."""
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    for n in range(1, 300):
        an = n * (a - n)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = c if abs(c) > 1e-300 else 1e-300
        if abs(d * c - 1.0) <= _EPS:
            return n + 2
    raise ValidationError(f"incomplete gamma fraction did not settle at shape {a:.6g}")


@lru_cache(maxsize=256)
def _gamma_plan(a: float) -> tuple:
    """The fixed budgets of ``_log_gammaincc`` for shape a, both sized at
    x = a + 1 where series and fraction meet and each converges slowest:
    the series coefficients (highest power first) and the fraction depth."""
    if not 0.0 < a <= GAMMA_SHAPE_MAX:
        raise ValidationError(f"incomplete gamma shape {a:.6g} is outside (0, "
                              f"{GAMMA_SHAPE_MAX:g}], the range its term budget covers")
    # P = x^a e^-x / Gamma(a + 1) * sum_k c_k z^k, z = x / (a + 1),
    # c_k = (a + 1)^k / ((a + 1) ... (a + k)) <= 1
    c = np.cumprod((a + 1.0) / (a + np.arange(1.0, 1000.0)))
    terms = int(np.argmax(c < _EPS / 4))
    coef = (np.concatenate(([1.0], c[:terms + 1])) / a)[::-1].tolist()
    return coef, _cf_depth(a, a + 1.0)


def _log_gammaincc(a: float, x, lx):
    """log Q(a, x), Q the regularized upper incomplete gamma, for a scalar
    shape a in (0, GAMMA_SHAPE_MAX], an array x >= 0 and lx = log x.  Below
    x = a + 1 it is log1p(-P), P from its power series by Horner; above, the
    prefactor minus the log of Legendre's continued fraction (DLMF 8.9.2),
    evaluated backward from a fixed depth, so log Q never underflows.  Both
    budgets depend on a alone, so each element's value is independent of
    the others in its call."""
    coef, depth = _gamma_plan(a)
    pref = _log_gamma_prefactor(a, x, lx)
    out = np.empty_like(pref)
    lo = x < a + 1.0
    if lo.any():
        s = _small_or_vector(_horner, x[lo] / (a + 1.0), coef)
        out[lo] = np.log1p(-np.exp(pref[lo]) * s) + 0.0  # log Q(a, 0) = +0
    hi = ~lo
    if hi.any():
        xs = x[hi]
        f = _small_or_vector(_legendre_fraction, xs, a, depth)
        out[hi] = np.where(xs == np.inf, -np.inf, pref[hi] - np.log(f))
    return out


def _horner(z, coef):
    s = coef[0]
    for c in coef[1:]:
        s = s * z + c
    return s


def _legendre_fraction(x, a, depth):
    """x^-a e^x Gamma(a) Q(a, x), backward from ``depth`` levels."""
    b = x + (2 * depth + 1 - a)
    f = b
    for k in range(depth, 0, -1):
        b = b - 2.0
        f = b - k * (k - a) / f
    return f


def _small_or_vector(fn, xs, *args):
    """fn(xs, *args), element by element in Python floats for a few
    elements, where numpy's per-call cost would dominate.  fn only adds,
    multiplies and divides, which Python and numpy both round to IEEE
    double, so the two ways give the same bits."""
    if xs.size <= 16:
        return np.array([fn(v, *args) for v in xs.tolist()])
    return fn(xs, *args)


def _gamma_log_quantile(a: float, ls):
    """log x with log Q(a, x) = ls, elementwise.

    Halley's method on log(-log Q) in y = log x, which is nearly linear in
    both tails.  It starts from Q ~ x^(a-1) e^-x / Gamma(a) where that puts
    x above 3 (a + 1), else from P ~ x^a / Gamma(a + 1) where that puts x
    below 0.1 (a + 1), else from Wilson-Hilferty's cube-root normal
    approximation.  Each element stops after a
    step below 1e-6, whose cubic convergence leaves an error below an ulp;
    that takes at most 3 steps for 1e-3 <= a <= 1e4.  An element still
    moving after 12 steps raises ValidationError.
    """
    ls = np.asarray(ls, dtype=float)
    y = np.where(ls == 0.0, -np.inf, np.where(ls == -np.inf, np.inf, np.nan)).ravel()
    act = np.flatnonzero((ls < 0.0) & (ls > -np.inf))
    lq = ls.ravel()[act]
    lp = _log1mexp(lq)
    ya = (lp + math.lgamma(a + 1.0)) / a
    # below a = 0.25 Wilson-Hilferty is poor, and the tail starts meet at 0.5 (a + 1)
    c_lo, c_hi = (np.inf, 0.5) if a < 0.25 else (0.1, 3.0)
    x_lo, x_hi = c_lo * (a + 1.0), c_hi * (a + 1.0)
    k, xa = -lq - math.lgamma(a), np.full_like(lq, x_hi)
    for _ in range(2):  # Newton on x - (a - 1) log x = k
        xa -= (xa - (a - 1.0) * np.log(xa) - k) / (1.0 - (a - 1.0) / xa)
    up = xa >= x_hi
    ya[up] = np.log(xa[up])
    mid = ~up & (ya >= math.log(x_lo))
    if mid.any():
        # normal quantile of the smaller tail (Abramowitz & Stegun 26.2.23)
        w = np.sqrt(-2.0 * np.minimum(lq[mid], lp[mid]))
        z = w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
            1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308)))
        z = np.where(lq[mid] < lp[mid], z, -z)
        ya[mid] = math.log(a) + 3.0 * np.log(1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)))
    target = np.log(-lq)
    for _ in range(12):
        xa = np.exp(ya)
        lq = _log_gammaincc(a, xa, ya)
        h = np.log(-lq)
        dh = np.exp(_log_gamma_prefactor(a, xa, ya) - lq - h)  # d log(-log Q) / dy
        step = (target - h) / dh
        # Halley's correction: the second derivative over the first is
        # (a - x + r) - dh, r = x pdf / Q = -dh log Q
        step /= np.maximum(1.0 + 0.5 * step * (a - xa - dh * lq - dh), 0.5)
        ya += step
        going = ~(np.abs(step) <= 1e-6)
        y[act[~going]] = ya[~going]
        act, ya, target = act[going], ya[going], target[going]
        if not act.size:
            return y.reshape(ls.shape)
    raise ValidationError(f"incomplete gamma inverse at shape {a:.6g} did not converge "
                          f"for log Q in {(-np.exp(target[:3])).tolist()}")


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
    "gen_gamma": _Family(  # Q(q/p, t^p)
        ("p", "q"),
        lambda t, p, q: _log_gammaincc(q / p, *_power_and_log(t, p)),
        lambda t, p, q: _log_gamma_prefactor(q / p, *_power_and_log(t, p), 1.0 / p, math.log(p)),
        lambda ls, p, q: np.exp(_gamma_log_quantile(q / p, ls) / p),
        lambda p, q: {"p": p, "q": q}),
    "gamma": _Family(  # Q(shape, rate t)
        ("shape", "rate"),
        lambda t, sh, rate: _log_gammaincc(sh, *_power_and_log(rate * t, 1.0)),
        lambda t, sh, rate: _log_gamma_prefactor(sh, *_power_and_log(rate * t, 1.0), 1.0, math.log(rate)),
        lambda ls, sh, rate: np.exp(_gamma_log_quantile(sh, ls)) / rate,
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
    t = np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), 0.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = _FAMILIES[b.family].log_sf(t, *b.params)
    return out if np.ndim(x) else float(out[0])


def sf(b: BaselineSpec, x):
    """Survival function, 1 on x <= 0."""
    with np.errstate(under="ignore"):
        out = np.exp(log_sf(b, x))
    return out if np.ndim(x) else float(out)


def log_pdf(b: BaselineSpec, x):
    """log density on x > 0 (-inf off the support)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.where(arr > 0.0, arr, np.nan)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = _FAMILIES[b.family].log_pdf(t, *b.params)
    out = np.where(np.isnan(t), -np.inf, out)
    return out if np.ndim(x) else float(out[0])


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
    arr = np.asarray(ls, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = _FAMILIES[b.family].inverse_log_sf(np.atleast_1d(arr), *b.params)
    return out if arr.ndim else float(out[0])


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


def _sp_survival(m: SemiParamModel, x, theta):
    """sp_survival on an x already known to hold no NaN."""
    with np.errstate(under="ignore"):
        out = np.exp(_log_w(m, x, theta))
    if m.kind == "mphrs":
        out = m.alpha * out / (1.0 - (1.0 - m.alpha) * out)
    return out


def sp_survival(m: SemiParamModel, x, theta):
    """Transformed survival F(x; theta), in [0, 1] and nonincreasing in x."""
    if np.any(np.isnan(np.asarray(x, dtype=float))):
        raise ValidationError("x contains NaN")
    out = _sp_survival(m, x, theta)
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


#: Shape probe defaults: the slack on a relative hazard rise (float noise), the
#: quantiles that bound a model's bulk (probe and lifetime grids), the probe points.
SHAPE_TOL = 1e-9
BULK_Q_LO, BULK_Q_HI = 0.001, 0.999
PROBE_POINTS = 200


def default_x_grid(b: BaselineSpec):
    """PROBE_POINTS log-spaced lifetimes over the baseline's bulk quantile range."""
    lo, hi = quantile(b, BULK_Q_LO), quantile(b, BULK_Q_HI)
    if not (np.isfinite(lo) and 0.0 < hi < np.inf):
        raise ValidationError(f"{b.family}{b.params} has no finite positive bulk quantile "
                              f"range [{lo:.3g}, {hi:.3g}] for a probe grid")
    return np.geomspace(max(lo, hi * 1e-12), hi, PROBE_POINTS)


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


def survival_shape(m: SemiParamModel, sign: str, grid=None, tol: float = SHAPE_TOL) -> ShapeVerdict:
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


def check_theorem1_condition2(m: SemiParamModel, grid=None, tol: float = SHAPE_TOL) -> ShapeVerdict:
    """Shape requirement paired with log-concave generators: F(x; theta)
    nonincreasing in theta and a DFR model (see ``survival_shape``)."""
    return survival_shape(m, "nonincreasing", grid, tol)


def check_theorem2_condition2(m: SemiParamModel, grid=None, tol: float = SHAPE_TOL) -> ShapeVerdict:
    """Shape requirement paired with log-convex generators: F(x; theta)
    nondecreasing and log-convex in theta.  Only location moves up in theta,
    and there log F(x - theta) is convex in theta iff the baseline is DFR."""
    return survival_shape(m, "nondecreasing", grid, tol)
