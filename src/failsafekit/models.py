"""Baseline lifetime distributions and semi-parametric survival transforms.

Each baseline family is one record of the module table ``_FAMILIES``: its
parameter names and closed forms for log-survival, log-density and
inverse log-survival.  The kernels ``_log_sf``, ``_log_pdf`` and
``_inverse_log_sf`` clamp or mask their input and make one call into that
record; hazard comes from the first two in log space.  A public function
checks its points (``errors.point_array``) and runs its kernel through
``errors.evaluate``, which holds the np.errstate and evaluates a scalar as
a 1-element array, as inside a batch.  Quantiles and Monte-Carlo
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
               alpha w / (alpha w + 1 - w), fixed alpha > 0, lam > 0
    ls         (theta, lam, 1)    F(theta (x - lam))        theta > 0, fixed lam

theta may be an array that broadcasts against x, so one call evaluates a
whole (parameter x lifetime) matrix.  The public functions check theta;
``systems``' kernel calls ``_sp_survival`` under its own np.errstate, at
thetas its ``SystemSpec`` checked.

The shape hypotheses of the comparison results are decided from closed
forms, not grid probes, as the ``HypothesisCheck`` records ``ordering.verify``
reports (``check_dfr``, ``check_dpfr``, ``survival_shape``).  Each family
record carries its DFR rule (exp_weibull: Mudholkar & Srivastava 1993, IEEE
Trans. Reliab. 42:299; gen_gamma: Glaser 1980, JASA 75:667), and each kind
its direction in theta: F(x; theta) is nonincreasing in theta for scale,
phr, mphrs and ls, and nondecreasing for location.  mphrs with alpha > 1
fails by rule over a non-DFR baseline; over a DFR one, the one case without
a rule, it probes the hazard of its transformed model on a lifetime grid.
``bulk_grid`` builds that grid and every default curve grid, log-spaced over
the components' own bulk quantiles (from CURVE_FLOOR times the top one only
where the bulk reaches 0), and ``linear_grid`` any explicit range.
Everything is pure and reentrant; model values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (FLOAT_ARRAY_MAX, NONNEGATIVE, OPEN_UNIT, POSITIVE_FINITE, ValidationError,
                     evaluate, plain_number, point_array, real_number, shown, whole_number)


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
    """The polynomial with coefficients coef (highest power first, at least
    two) at z; an array is updated in place, a float rebound."""
    it = iter(coef)
    s = next(it) * z + next(it)
    for c in it:
        s *= z
        s += c
    return s


def _legendre_fraction(x, a, depth):
    """x^-a e^x Gamma(a) Q(a, x), backward from ``depth`` levels; an array
    x is walked in place, in the same operations as a float."""
    b = x + (2 * depth + 1 - a)
    if isinstance(b, float):
        f = b
        for k in range(depth, 0, -1):
            b -= 2.0
            f = b - k * (k - a) / f
        return f
    f = b.copy()
    for k in range(depth, 0, -1):
        b -= 2.0
        np.divide(k * (k - a), f, out=f)
        np.subtract(b, f, out=f)
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
    log_pdf: Callable[..., np.ndarray]  # (t, *params), 0 < t < inf or NaN
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
    "exp_weibull": _Family(  # sf = -expm1(beta log z), 1 at t = 0 (log z = -inf)
        ("alpha", "beta"),
        lambda t, al, be: np.log(-np.expm1(be * _log_z(t, al))),
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
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValidationError(f"unknown baseline family {shown(self.family)}")
        names = _FAMILIES[self.family].names
        params = point_array(self.params, f"{self.family} parameter", *POSITIVE_FINITE)
        if params.shape != (len(names),):
            raise ValidationError(f"{self.family} takes {len(names)} parameters {names}, "
                                  f"got {shown(self.params)}")
        object.__setattr__(self, "params", tuple(params.tolist()))

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "BaselineSpec":
        if not isinstance(obj, dict) or "family" not in obj or "params" not in obj:
            raise ValidationError("baseline spec must carry 'family' and 'params'")
        return cls(family=obj["family"], params=obj["params"])


def _log_sf(b: BaselineSpec, x: np.ndarray):
    """log survival on a float array x; 0 for x <= 0."""
    return _FAMILIES[b.family].log_sf(np.maximum(x, 0.0), *b.params)


def _log_pdf(b: BaselineSpec, x: np.ndarray):
    """log density on a float array x, -inf off the support 0 < x < inf."""
    t = np.where((x > 0.0) & (x < np.inf), x, np.nan)
    return np.where(np.isnan(t), -np.inf, _FAMILIES[b.family].log_pdf(t, *b.params))


def _inverse_log_sf(b: BaselineSpec, ls: np.ndarray):
    """x >= 0 with log survival ls, on a float array ls <= 0."""
    return _FAMILIES[b.family].inverse_log_sf(ls, *b.params)


#: The name, domain test and rule of a log-survival and of a probability point.
_LS_POINT = ("ls", lambda ls: ls <= 0.0, "be at most 0")
_PROB_POINT = ("quantile probability", *OPEN_UNIT)


def log_sf(b: BaselineSpec, x):
    """log survival; 0 for x <= 0 (lifetimes are nonnegative)."""
    return evaluate(_log_sf, b, point_array(x, "x"))


def sf(b: BaselineSpec, x):
    """Survival function, 1 on x <= 0."""
    return evaluate(lambda t: np.exp(_log_sf(b, t)), point_array(x, "x"))


def log_pdf(b: BaselineSpec, x):
    """log density on 0 < x < inf (-inf off the support, +inf included)."""
    return evaluate(_log_pdf, b, point_array(x, "x"))


def pdf(b: BaselineSpec, x):
    return evaluate(lambda t: np.exp(_log_pdf(b, t)), point_array(x, "x"))


def hazard(b: BaselineSpec, x):
    """Hazard rate pdf/sf, computed in log space."""
    return evaluate(lambda t: np.exp(_log_pdf(b, t) - _log_sf(b, t)), point_array(x, "x"))


def inverse_log_sf(b: BaselineSpec, ls):
    """x >= 0 with log_sf(b, x) = ls, for ls <= 0."""
    return evaluate(_inverse_log_sf, b, point_array(ls, *_LS_POINT))


def quantile(b: BaselineSpec, prob):
    """Inverse cdf on (0, 1)."""
    return evaluate(lambda p: _inverse_log_sf(b, np.log1p(-p)), point_array(prob, *_PROB_POINT))


class _Kind(NamedTuple):
    """A kind: (a, c, p) of the module docstring from theta t and lambda, the direction
    of F(x; theta) as theta grows, and the (ok, rule) of theta and of each fixed parameter."""

    acp: Callable[..., tuple]
    sign: str
    theta: tuple
    fixed: dict


_FINITE = (np.isfinite, "be finite")
_KIND_MAP = {
    "scale": _Kind(lambda t, lam: (t, 0.0, 1.0), "nonincreasing", POSITIVE_FINITE, {}),
    "phr": _Kind(lambda t, lam: (1.0, 0.0, t), "nonincreasing", POSITIVE_FINITE, {}),
    "location": _Kind(lambda t, lam: (1.0, t, 1.0), "nondecreasing", _FINITE, {}),
    "mphrs": _Kind(lambda t, lam: (t, 0.0, lam), "nonincreasing", POSITIVE_FINITE,
                   {"alpha": POSITIVE_FINITE, "lambda": POSITIVE_FINITE}),
    "ls": _Kind(lambda t, lam: (t, lam, 1.0), "nonincreasing", POSITIVE_FINITE, {"lambda": _FINITE}),
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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown model kind {shown(self.kind)}")
        if not isinstance(self.baseline, BaselineSpec):
            raise ValidationError(f"model baseline must be a BaselineSpec, got {shown(self.baseline)}")
        fixed = _KIND_MAP[self.kind].fixed
        for field, name in (("alpha", "alpha"), ("lam", "lambda")):
            value = getattr(self, field)
            if name in fixed:
                if value is None:
                    raise ValidationError(f"{self.kind} requires a fixed {name}")
                real_number(value, f"{self.kind} {name}", *fixed[name])
            elif value is not None:
                raise ValidationError(f"{self.kind} takes no fixed {name}, got {shown(value)}")
            object.__setattr__(self, field, plain_number(value))

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
        if not isinstance(fixed, dict):
            raise ValidationError("model fixed must be an object")
        return cls(
            kind=obj["kind"],
            baseline=BaselineSpec.from_json(obj["baseline"]),
            alpha=fixed.get("alpha"),
            lam=fixed.get("lambda"),
        )


def _checked_theta(m: SemiParamModel, theta) -> np.ndarray:
    """theta as a float array, unless an element lies outside m's kind domain."""
    return point_array(theta, f"{m.kind} theta", *_KIND_MAP[m.kind].theta)


def _log_w(m: SemiParamModel, x: np.ndarray, theta: np.ndarray):
    """log w = p log F(a (x - c)) on a float array x at a checked theta array."""
    a, c, p = _KIND_MAP[m.kind].acp(theta, m.lam)
    # inline, not _log_sf: a call keeps a (x - c) alive, +4% on large-n verdicts
    return p * _FAMILIES[m.baseline.family].log_sf(np.maximum(a * (x - c), 0.0), *m.baseline.params)


def _sp_survival(m: SemiParamModel, x: np.ndarray, theta: np.ndarray):
    """F(x; theta) on a float array x with no NaN, as ``_log_w``."""
    out = np.exp(_log_w(m, x, theta))
    if m.kind == "mphrs":
        # the denominator is never below the numerator: no value rounds above 1
        out = m.alpha * out / (m.alpha * out + (1.0 - out))
    return out


def _sp_log_survival(m: SemiParamModel, x: np.ndarray, theta: np.ndarray):
    """log F(x; theta) on a float array x with no NaN, as ``_log_w``."""
    out = _log_w(m, x, theta)
    if m.kind == "mphrs":
        out = np.log(m.alpha) + out - np.log1p(-(1.0 - m.alpha) * np.exp(out))
    return out


def _sp_inverse_log_survival(m: SemiParamModel, ls: np.ndarray, theta: np.ndarray):
    """x with log F(x; theta) = ls, on a float array ls <= 0 at a checked theta array."""
    a, c, p = _KIND_MAP[m.kind].acp(theta, m.lam)
    if m.kind == "mphrs":
        # log w = ls - log(alpha + (1 - alpha) e^ls), w = F(x mu)^lam
        ls = ls - np.log1p((1.0 - m.alpha) * np.expm1(ls))
    return c + _inverse_log_sf(m.baseline, ls / p) / a


def sp_survival(m: SemiParamModel, x, theta):
    """Transformed survival F(x; theta), in [0, 1] and nonincreasing in x."""
    return evaluate(_sp_survival, m, point_array(x, "x"), _checked_theta(m, theta))


def sp_log_survival(m: SemiParamModel, x, theta):
    """log F(x; theta), exact in the tails."""
    return evaluate(_sp_log_survival, m, point_array(x, "x"), _checked_theta(m, theta))


def sp_inverse_log_survival(m: SemiParamModel, ls, theta):
    """x with sp_log_survival(m, x, theta) = ls, for ls <= 0.

    Where the transform shifts mass below 0 (location with theta < 0, ls
    with lam < 0), ls above log F(0; theta) maps to a negative x; lifetime
    samplers clamp it to 0.
    """
    return evaluate(_sp_inverse_log_survival, m, point_array(ls, *_LS_POINT), _checked_theta(m, theta))


def sp_quantile(m: SemiParamModel, prob, theta: float):
    """Inverse cdf of the transformed model."""
    return evaluate(lambda p, t: _sp_inverse_log_survival(m, np.log1p(-p), t),
                    point_array(prob, *_PROB_POINT), _checked_theta(m, theta))


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool
    evidence: str

    def to_json(self) -> dict:
        return asdict(self)


#: Shape probe defaults: the slack on a relative hazard rise (float noise), the
#: quantiles that bound a model's bulk (probe and lifetime grids), the probe points.
SHAPE_TOL = 1e-9
BULK_Q_LO, BULK_Q_HI = 0.001, 0.999
PROBE_POINTS = 200
#: The start of a bulk grid whose lowest quantile is not positive, as a fraction of its top.
CURVE_FLOOR = 1e-9
#: log(1 - q) at BULK_Q_LO and BULK_Q_HI, the column ``sp_quantile`` makes of them.
_BULK_LOG_SF = np.log1p(-np.array([[BULK_Q_LO], [BULK_Q_HI]]))
_BULK_LOG_SF.flags.writeable = False


def bulk_grid(entries, points: int) -> np.ndarray:
    """``points`` log-spaced lifetimes from the smallest BULK_Q_LO (if positive, else
    hi * CURVE_FLOOR) to the largest BULK_Q_HI quantile over every (model, thetas) entry."""
    points = whole_number(points, "curve_points", 2, FLOAT_ARRAY_MAX)
    # one inverse call per entry for both ends: gamma's inverse costs per call
    with np.errstate(all="ignore"):
        ends = [_sp_inverse_log_survival(m, _BULK_LOG_SF, _checked_theta(m, th)) for m, th in entries]
    ends = ends[0] if len(ends) == 1 else np.concatenate(ends, axis=1)
    lo, hi = ends[0].min(), ends[1].max()  # NaN propagates to the check below
    if not (np.isfinite(lo) and 0.0 < hi < np.inf):
        names = ", ".join(dict.fromkeys(
            f"{m.kind} {m.baseline.family}{m.baseline.params}" for m, _ in entries))
        raise ValidationError(f"{names} has no finite positive bulk quantile range "
                              f"[{lo:.3g}, {hi:.3g}] for a lifetime grid")
    return _geomspace(lo if lo > 0.0 else hi * CURVE_FLOOR, hi, points)


def _geomspace(lo, hi, points: int) -> np.ndarray:
    """``np.geomspace(lo, hi, points)`` bit for bit, for scalar ends
    0 < lo <= hi and points >= 2, without its array handling: the same
    steps as its ``linspace`` over log10, then both ends restored."""
    l0, l1 = np.log10(lo), np.log10(hi)
    y = np.arange(points, dtype=float)
    y *= (l1 - l0) / (points - 1)
    y += l0
    y[-1] = l1
    out = np.power(10.0, y)
    out[0], out[-1] = lo, hi
    return out


def linear_grid(x_min: float, x_max: float, points: int) -> np.ndarray:
    """``points`` evenly spaced lifetimes over [x_min, x_max], from x_max / points if x_min is 0."""
    x_min, x_max = real_number(x_min, "x-min"), real_number(x_max, "x-max")
    if not 0.0 <= x_min < x_max:  # NaN fails the comparison
        raise ValidationError("need 0 <= x-min < x-max")
    points = whole_number(points, "curve_points", 2, FLOAT_ARRAY_MAX)
    return np.linspace(x_min if x_min > 0 else x_max / points, x_max, points)


def default_x_grid(b: BaselineSpec):
    """The hazard probe's bulk grid over the baseline, via its scale model at theta = 1."""
    return bulk_grid([(SemiParamModel("scale", b), 1.0)], PROBE_POINTS)


def check_dfr(b: BaselineSpec) -> HypothesisCheck:
    """Decreasing failure rate, from the family's closed-form rule."""
    terms = _FAMILIES[b.family].dfr(*b.params)
    rule = "; ".join(f"{k} {v:.6g} {'<=' if v <= 1.0 else '>'} 1" for k, v in terms.items())
    return HypothesisCheck("baseline_dfr", all(v <= 1.0 for v in terms.values()),
                           f"{b.family} {rule or 'always DFR'}")


def check_dpfr(b: BaselineSpec) -> HypothesisCheck:
    """Decreasing proportional failure rate, x*hazard(x) nonincreasing on
    (0, inf): no lifetime law has it, so this always fails with the proof."""
    return HypothesisCheck("baseline_dpfr", False, (
        f"{b.family}: no lifetime law with S(0) = 1 has x*h(x) nonincreasing on "
        "(0, inf); x*h >= c > 0 on (0, x0] makes the integral of h over (eps, x0) "
        "at least c log(x0/eps), which diverges as eps -> 0, so S(x0) = 0"))


def survival_shape(m: SemiParamModel, sign: str, grid=None, tol: float = SHAPE_TOL) -> HypothesisCheck:
    """F(x; theta) moves in ``sign`` ('nonincreasing' or 'nondecreasing') as
    theta grows, and the transformed model is DFR.  Every kind keeps the
    baseline's hazard shape (mphrs: the Marshall-Olkin map divides it by
    1 - (1-alpha) w, which grows in x for alpha <= 1), except mphrs with
    alpha > 1.  There the hazard lam h0 / (1 + (alpha-1) w) is the baseline's
    times a factor that grows in x, so a non-DFR baseline decides it by rule;
    over a DFR one the hazard of F(x; 1), a scale family in theta, is probed
    on ``grid(m)`` (default: the baseline's bulk).  No other case evaluates
    the model."""
    tol = real_number(tol, "tol", *NONNEGATIVE)
    kind_sign = _KIND_MAP[m.kind].sign
    if kind_sign != sign:
        return HypothesisCheck("survival_shape", False,
                               f"{m.kind}: {kind_sign} in theta, not {sign}")
    lead, base = f"{m.kind}: {sign} in theta; ", check_dfr(m.baseline)
    if m.kind != "mphrs" or m.alpha <= 1.0:
        return HypothesisCheck("survival_shape", base.holds, lead + base.evidence)
    if not base.holds:
        return HypothesisCheck("survival_shape", False, f"{lead}mphrs alpha {m.alpha:.6g} > 1 "
                               f"keeps a hazard rise of the baseline: {base.evidence}")
    xs = np.asarray(grid(m) if grid else default_x_grid(m.baseline), dtype=float)
    with np.errstate(all="ignore"):
        ls = _log_sf(m.baseline, xs)
        h = np.exp(np.log(m.lam) + _log_pdf(m.baseline, xs) - ls
                   - np.log1p((m.alpha - 1.0) * np.exp(m.lam * ls)))
    h = h[np.isfinite(h)]
    if h.size < 3:
        raise ValidationError(f"mphrs hazard probe: fewer than 3 finite points on "
                              f"{xs.size} grid points")
    worst = float(np.max(np.diff(h) / (1.0 + h[:-1] + h[1:])))
    return HypothesisCheck("survival_shape", worst <= tol, (
        f"{lead}mphrs alpha {m.alpha:.6g} > 1, no rule: hazard of F(x; 1) on {h.size} points "
        f"in [{xs[0]:.3g}, {xs[-1]:.3g}], worst relative rise {worst:.3e}"))


def check_theorem1_condition2(m: SemiParamModel, grid=None, tol: float = SHAPE_TOL) -> HypothesisCheck:
    """Shape requirement paired with log-concave generators: F(x; theta)
    nonincreasing in theta and a DFR model (see ``survival_shape``)."""
    return survival_shape(m, "nonincreasing", grid, tol)


def check_theorem2_condition2(m: SemiParamModel, grid=None, tol: float = SHAPE_TOL) -> HypothesisCheck:
    """Shape requirement paired with log-convex generators: F(x; theta)
    nondecreasing and log-convex in theta.  Only location moves up in theta,
    and there log F(x - theta) is convex in theta iff the baseline is DFR."""
    return survival_shape(m, "nondecreasing", grid, tol)
