"""Strength-data pipeline: marginal fits, copula goodness of fit, and
subset recommendation via the p-larger criterion.

Marginal fits reuse the closed-form baseline densities and search the profile
likelihood over the log shape, so every fit is deterministic; ``mle_fit``
checks the data once, and each likelihood evaluation checks only its
parameters.  The scalar searches (bounded Brent, brentq) and the
dilogarithm are ``scalar``'s ports of SciPy's, so fitting loads no scipy.
Copula estimation defaults to Kendall-tau inversion (mean pairwise tau
above two dimensions) with an optional pairwise pseudo-likelihood
refinement, each of whose evaluations scores every pair in one density
call.  Bootstrap replicate b always draws from child seed b of the
master seed, so goodness-of-fit runs are reproducible as well.  The
bootstrap ranks its draws E / V, negated (psi is decreasing), and gives
them empirical copulas and Kendall tau matrices a block at a time (as
many replicates as fit a fixed comparison-buffer budget), then inverts
the block's mean taus to thetas at once and scores its replicates in one
pass of phi and psi with theta as a column (frank's root search and the
pseudo-likelihood refit still run per replicate).  Each
replicate's theta and statistic equal its one-replicate-at-a-time
evaluation bit for bit, also at the exponents where numpy's scalar ``**``
skips pow (gumbel theta = 1 or 2, clayton theta = 1; see
``generators._pow``), so p-values do too.

Average ranks come from one argsort per column, for a whole stack of
matrices at once: a value whose ties fill sorted positions [s, e) has twice
its average rank at s + 1 + e.  Kendall tau-b comes from the signs
S[k, p] = sign(x[i, k] - x[j, k]) over the count (count - 1) / 2 pairs
p = {i, j} of points of each matrix of a stack: S S^T holds concordant
minus discordant pairs for each column pair and the untied pairs of each
column on its diagonal, which gives tau-b by SciPy's formula.  The pairs
are the circular lags (i, i + k mod count), 0 < k <= count / 2, read as
strided windows of the columns laid twice end to end, and the Gram matrix
is summed in float64 over passes of as many lags as the _BLOCK_BYTES
comparison budget holds, so no pair index or count x count sign matrix is
stored.  Every count is an integer below 2**53, so both match
``scipy.stats.rankdata`` and ``kendalltau`` bit for bit, in any chunking
and without scipy.stats; the bootstrap passes integer twice-ranks, whose
signs are those of the values.  The empirical copula
ANDs one count x count comparison per column and counts the hits as
integers, so no bootstrap kernel holds a count x count x d or a
count x count float tensor.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (FLOAT_ARRAY_MAX, OPEN_UNIT, POSITIVE_FINITE, InconsistencyError,
                     ValidationError, is_number, point_array, real_array, real_number, shown,
                     whole_number)
from .generators import COPULA_FAMILIES, GeneratorSpec, _phi, _psi
from .mcsim import _draw_times, _refusal, check_seed
from .models import _FAMILIES, FIT_FAMILIES, _horner
from .ordering import Relation, verify_theorem1
from .scalar import brentq, minimize_bounded, spence

MIN_OBSERVATIONS = 5


def _strengths(data, what: str = "data", minimum: int = MIN_OBSERVATIONS) -> np.ndarray:
    """data as a float64 array, unless it breaks the one rule for a strength
    sample: 1-d, positive and finite, with at least ``minimum`` values."""
    arr = point_array(data, f"{what} entry", *POSITIVE_FINITE)
    if arr.ndim != 1 or arr.size < minimum:
        raise ValidationError(f"{what} needs at least {minimum} observations in a 1-d array")
    return arr


def _label(label) -> str:
    """label as text, as ``str`` forms it; an int past Python's str limit is refused."""
    try:
        return str(label)
    except ValueError:
        raise ValidationError(f"component label {shown(label)} has no text form") from None


class LifetimeDataset:
    """Positive observations per component label."""

    def __init__(self, observations: dict):
        if not observations:
            raise ValidationError("dataset has no components")
        self.observations = {_label(label): _strengths(values, f"component {shown(label)}")
                             for label, values in observations.items()}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.observations)

    def pooled(self) -> np.ndarray:
        return np.concatenate([self.observations[k] for k in self.labels])

    def matrix(self) -> np.ndarray:
        """count x d wide matrix (components as columns); lengths must agree."""
        sizes = {self.observations[k].size for k in self.labels}
        if len(sizes) != 1:
            raise ValidationError("components have unequal lengths; no wide matrix")
        return np.stack([self.observations[k] for k in self.labels], axis=1)


def _digest(data: np.ndarray) -> str:
    payload = np.sort(np.asarray(data, dtype=float)).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict
    loglik: float
    aic: float
    bic: float
    n: int
    converged: bool
    data_digest: str

    def to_json(self) -> dict:
        out = asdict(self)
        del out["data_digest"]
        return out


def _make_result(family, params, loglik, n, converged, digest) -> FitResult:
    k = len(params)
    ll = float(loglik)
    return FitResult(
        family=family,
        params=params,
        loglik=ll,
        aic=2.0 * k - 2.0 * ll,
        bic=k * float(np.log(n)) - 2.0 * ll,
        n=n,
        converged=converged,
        data_digest=digest,
    )


_LOGLIK_FLOOR = -1e15  # finite penalty keeps the profile search warning-free
#: A converged profile fit's optimum exceeds the loglik at both ends of the
#: search interval by at least this fraction of its size: by 0.8 or more on
#: identified weibull, gamma and burr fits, by 1e-9 or less on flat burr ones.
_PROFILE_RTOL = 1e-6


def _loglik(family: str, params: tuple, data: np.ndarray) -> float:
    """Log-likelihood of data that ``mle_fit`` has checked (positive and
    finite); params that are not all finite and positive score
    _LOGLIK_FLOOR, as do data the family gives no finite density."""
    params = tuple(map(float, params))
    if not all(math.isfinite(p) and p > 0.0 for p in params):
        return _LOGLIK_FLOOR
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        vals = _FAMILIES[family].log_pdf(data, *params)
    if not np.all(np.isfinite(vals)):
        return _LOGLIK_FLOOR
    return float(np.sum(vals))


def _burr_inner(x: np.ndarray, c: float) -> tuple:
    """(c, k) with k = n / sum log(1 + x^c), or inf once every x^c underflows."""
    total = np.sum(np.logaddexp(0.0, c * np.log(x)))
    return c, (x.size / total if total > 0.0 else np.inf)


# family -> (centre, inner): centre(x) is the log shape the search is centred
# on (gamma's moments of x / max x cannot overflow); inner(x, shape) is the
# full parameter tuple, the other parameter maximised in closed form.
_PROFILES = {
    "weibull": (lambda x: -np.log(np.std(np.log(x))), lambda x, b: (_weibull_scale(x, b), b)),
    "gamma": (lambda x: np.log(np.mean(x / x.max()) ** 2 / np.var(x / x.max())),
              lambda x, k: (k, k / np.mean(x))),
    "burr": (lambda x: -np.log(np.std(np.log(x))), _burr_inner),
}


def mle_fit(family: str, data) -> FitResult:
    """Maximum-likelihood fit; two-parameter families by profile likelihood."""
    if family not in FIT_FAMILIES:
        raise ValidationError(f"family must be one of {FIT_FAMILIES}")
    arr = _strengths(data)
    if np.ptp(np.log(arr)) == 0.0:  # equal logs would leave sd(log x) at 0
        raise ValidationError("degenerate data: all observations equal")
    digest = _digest(arr)
    n = arr.size

    if family == "exponential":
        rate = 1.0 / float(np.mean(arr))
        return _make_result("exponential", {"rate": rate},
                            _loglik("exponential", (rate,), arr), n, True, digest)

    centre, inner = _PROFILES[family]
    lo, hi = centre(arr) + np.log([1e-3, 1e3])  # shapes within a factor 1e3
    x, fun, success = minimize_bounded(
        lambda s: -_loglik(family, inner(arr, np.exp(s)), arr), lo, hi, xatol=1e-10)
    if fun >= -_LOGLIK_FLOOR:
        raise ValidationError(f"{family} fit found no finite likelihood")
    params = dict(zip(_FAMILIES[family].names, map(float, inner(arr, np.exp(x)))))
    # a profile that is flat out to the interval ends leaves the shape unidentified
    rise = -fun - max(_loglik(family, inner(arr, np.exp(b)), arr) for b in (lo, hi))
    converged = bool(success and lo + 1e-6 < x < hi - 1e-6 and rise > _PROFILE_RTOL * abs(fun))
    return _make_result(family, params, -fun, n, converged, digest)


@dataclass(frozen=True)
class ModelRanking:
    entries: tuple[FitResult, ...]
    aic_deltas: tuple[float, ...]

    @property
    def best(self) -> FitResult:
        return self.entries[0]

    def to_json(self) -> dict:
        return {
            "ranking": [e.to_json() for e in self.entries],
            "aic_deltas": list(self.aic_deltas),
        }


def rank_models(results) -> ModelRanking:
    """Ascending AIC order (BIC breaks ties), with deltas to the best."""
    entries = list(results)
    if not entries:
        raise ValidationError("nothing to rank")
    digests = {r.data_digest for r in entries}
    if len(digests) != 1:
        raise ValidationError("results come from different datasets")
    entries.sort(key=lambda r: (r.aic, r.bic))
    base = entries[0].aic
    return ModelRanking(tuple(entries), tuple(r.aic - base for r in entries))


#: Comparisons one pass of the bootstrap may hold: the (B, count, count)
#: empirical-copula buffer sets the block size B (22 replicates at
#: count = 108, one from count = 363 up), and the Kendall tau kernel compares
#: as many lag rows at once as fit it.
_BLOCK_BYTES = 1 << 18


def _kendall_tau_matrix(stack: np.ndarray) -> np.ndarray:
    """Kendall tau-b of column i (as x) against column j (as y) at [b, i, j],
    for each count x d matrix b of a (B, count, d) stack; NaN in the row and
    column of a constant column, as in SciPy."""
    size, count, d = stack.shape
    cols = np.ascontiguousarray(stack.swapaxes(1, 2))
    points = cols[:, :, None, :]
    # lags[:, :, k, i] is point (i + k) mod count, so lags 1 .. count // 2
    # pair every two points once, except that an even count's last lag pairs
    # each point of its first half with one of its second half twice
    lags = sliding_window_view(np.concatenate([cols, cols], axis=-1), count, axis=-1)
    half = count // 2
    step = max(1, _BLOCK_BYTES // (size * d * count))
    gram = np.zeros((size, d, d))
    for k in range(1, half + 1, step):
        rows = lags[:, :, k:min(k + step, half + 1)]
        signs = ((points > rows).view(np.int8) - (points < rows).view(np.int8)).astype(float)
        if k + step > half and count % 2 == 0:
            signs[:, :, -1, half:] = 0.0  # the second copy of each half-lag pair
        signs = signs.reshape(size, d, -1)
        # exact integer sums, so the chunking cannot change the result
        gram += signs @ signs.swapaxes(1, 2)
        del signs  # so the next pass does not hold two passes' signs
    root = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    with np.errstate(invalid="ignore"):
        return np.clip(gram / root[..., :, None] / root[..., None, :], -1.0, 1.0)


def _twice_ranks(stack: np.ndarray) -> np.ndarray:
    """Twice the average rank of every entry within its column, for each
    count x d matrix of a (B, count, d) stack, as integers of the same
    shape; raises for the first matrix with a non-finite value or a
    constant column."""
    cols = stack.swapaxes(1, 2)
    order = np.argsort(cols, axis=-1)
    ranked = np.take_along_axis(cols, order, axis=-1)
    non_finite = ~np.isfinite(ranked).all(axis=(1, 2))
    constant = ranked[..., 0] == ranked[..., -1]
    failed = np.flatnonzero(non_finite | constant.any(axis=1))
    if failed.size:
        if non_finite[failed[0]]:
            raise ValidationError("matrix has non-finite values")
        raise ValidationError(f"column {np.flatnonzero(constant[failed[0]])[0]} is constant")
    # a value whose ties fill sorted positions [s, e) has twice its average
    # rank at s + 1 + e: s is the last tie-group start at or before it, e
    # the first group end after it
    count = ranked.shape[-1]
    pos = np.arange(count)
    first = np.empty(ranked.shape, dtype=bool)
    first[..., 0] = True
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=first[..., 1:])
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    last = np.roll(first, -1, axis=-1)  # the final position ends its group
    end = np.minimum.accumulate(np.where(last, pos + 1, count)[..., ::-1], axis=-1)[..., ::-1]
    twice = np.empty(stack.shape, dtype=np.intp)
    np.put_along_axis(twice.swapaxes(1, 2), order, start + 1 + end, axis=-1)
    return twice


def pseudo_observations(matrix) -> np.ndarray:
    """Column-wise average ranks over (count + 1); values in (0, 1)."""
    arr = real_array(matrix, "matrix entry")
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValidationError("need a count x d matrix with count >= 2")
    return _twice_ranks(arr[None])[0] / 2.0 / (arr.shape[0] + 1.0)


#: c_k = 4 B_2k / ((2k + 1) (2k)!) for k = 12 down to 1 (``models._horner``'s
#: order): frank's tau is the odd series sum_k c_k theta^(2k - 1), whose
#: omitted terms stay below 2e-16 relative for theta < _FRANK_SERIES_MAX.
_FRANK_SERIES = (
    -2.2327143497300036e-20, 9.580874484104748e-19, -4.142607044872499e-17,
    1.8075920118479673e-15, -7.97571834428843e-14, 3.568676408182581e-12,
    -1.6259046580576902e-10, 7.5915479955884e-09, -3.6743092298647856e-07,
    1.889644746787604e-05, -0.0011111111111111111, 0.1111111111111111,
)
_FRANK_SERIES_MAX = 1.5
_FRANK_XTOL = float(np.finfo(float).tiny)  # leaves brentq's relative tolerance in charge
#: Below this tau, frank's theta is 9 tau.  tau = theta/9 - theta^3/900 + O(theta^5)
#: rounds to theta/9 once theta < 7e-8, and far below that, under about
#: 7.2e-156, brentq's bracket spans so many binades that its 100 iterations
#: mostly run out.
_FRANK_TAU_LINEAR = 1e-155


def frank_tau(theta: float) -> float:
    """Kendall tau of the frank family, 1 - 4/theta + 4 D_1(theta)/theta.

    Below _FRANK_SERIES_MAX, tau's own Bernoulli series, so 1 - 1 never
    cancels; above it, the first Debye function in closed form,
    theta D_1(theta) = pi^2/6 + theta log(1 - e^-theta) - Li_2(e^-theta),
    with Li_2(e^-theta) = spence(1 - e^-theta) (Genest 1987; Nelsen 2006, 5.1),
    the Cephes dilogarithm of ``scalar``, bit for bit SciPy's.
    """
    theta = real_number(theta, "frank theta", lambda t: t > 0.0, "be positive")
    if theta < _FRANK_SERIES_MAX:
        return theta * _horner(theta * theta, _FRANK_SERIES)
    e = -math.expm1(-theta)  # 1 - e^-theta
    return (1.0 - 4.0 / theta + 4.0 * math.log(e) / theta
            + 4.0 * (math.pi ** 2 / 6.0 - spence(e)) / (theta * theta))


class TauRangeError(ValidationError):
    """A Kendall tau outside the range of a catalog family; carries the
    ``family`` and ``tau``."""

    def __init__(self, family: str, tau: float):
        name = "frank (positive range)" if family == "frank" else family
        super().__init__(f"{name} cannot attain tau={tau:.4f}")
        self.family, self.tau = family, tau


def _tau_thetas(family: str, taus: np.ndarray) -> np.ndarray:
    """Invert the tau(theta) relation of one catalog family at every tau of
    an array: NaN where tau leaves the family's range."""
    if family not in COPULA_FAMILIES:
        raise ValidationError(f"copula family must be one of {COPULA_FAMILIES}")
    fits = ((taus >= 0.0) if family == "gumbel" else (taus > 0.0)) & (taus < 1.0)
    t = taus[fits]
    out = np.full(taus.shape, np.nan)
    if family == "clayton":
        out[fits] = 2.0 * t / (1.0 - t)
    elif family == "gumbel":
        out[fits] = 1.0 / (1.0 - t)
    else:
        # tau(theta) <= theta/9 (the series' leading term) and tau(theta) >= 1 - 4/theta
        # (the Debye integral is positive), so [8 tau, 8/(1 - tau)] brackets every
        # float tau in (0, 1)
        out[fits] = [9.0 * tau if tau < _FRANK_TAU_LINEAR
                     else brentq(lambda th: frank_tau(th) - tau, 8.0 * tau, 8.0 / (1.0 - tau),
                                 xtol=_FRANK_XTOL)
                     for tau in t.tolist()]
    return out


def tau_to_theta(family: str, tau: float) -> float:
    """Invert the tau(theta) relation of one catalog family."""
    theta = _tau_thetas(family, np.array([real_number(tau, f"{family} tau")]))[0]
    if np.isnan(theta):
        raise TauRangeError(family, tau)
    return float(theta)


def _bivariate_log_density(family: str, theta: float, uv: np.ndarray) -> np.ndarray:
    """log c(u, v) = log psi''(phi(u)+phi(v)) - log|psi'(phi(u))| - log|psi'(phi(v))|
    for the stacked margins u = uv[0], v = uv[1], such as (pairs, count)
    arrays of pseudo-observations: inside (0, 1), so phi runs unchecked."""
    # far in frank's tails log psi'' and log|psi'| both reach inf; their
    # difference is NaN, which the pseudo-likelihood scores as _LOGLIK_FLOOR
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        t = _phi(family, theta, uv)
        s = t[0] + t[1]
        if family == "clayton":
            log_pp = np.log1p(theta) + (-1.0 / theta - 2.0) * np.log1p(theta * s)
            log_p = (-1.0 / theta - 1.0) * np.log1p(theta * t)
        elif family == "gumbel":
            a = 1.0 / theta
            log_pp = (np.log(a) + (a - 2.0) * np.log(s) - s ** a
                      + np.log(a * s ** a + (1.0 - a)))
            log_p = np.log(a) + (a - 1.0) * np.log(t) - t ** a
        else:  # frank; tau_to_theta refused any family outside COPULA_FAMILIES
            c = np.expm1(-theta)
            log_pp = np.log(-c) - s - 2.0 * np.log1p(c * np.exp(-s)) - np.log(theta)
            ct = c * np.exp(-t)
            log_p = np.log(-ct) - np.log(theta) - np.log1p(ct)
        return log_pp - log_p[0] - log_p[1]


def fit_copula(family: str, pseudo, method: str = "tau") -> float:
    """Estimate the dependence parameter from pseudo-observations.

    ``tau``: Kendall-tau inversion (exact at d=2; mean pairwise tau above).
    ``pseudo_likelihood``: pairwise composite likelihood, started at the
    tau estimate.
    """
    arr = point_array(pseudo, "pseudo-observation", *OPEN_UNIT)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValidationError("pseudo-observations must be count x d with d >= 2")
    if arr.shape[0] < 2:
        raise ValidationError("need a count x d matrix with count >= 2")
    taus = _kendall_tau_matrix(arr[None])[0]
    constant = np.flatnonzero(np.isnan(np.diag(taus)))
    if constant.size:
        raise ValidationError(f"column {constant[0]} is constant")
    upper = np.triu_indices(arr.shape[1], 1)
    theta0 = tau_to_theta(family, float(np.mean(taus[upper])))
    if method == "tau":
        return theta0
    if method != "pseudo_likelihood":
        raise ValidationError("method must be 'tau' or 'pseudo_likelihood'")
    return _pseudo_likelihood_theta(family, theta0, arr, upper)


def _pseudo_likelihood_theta(family: str, theta0: float, arr: np.ndarray, upper: tuple) -> float:
    """The pairwise pseudo-likelihood estimate, searched from theta0 (the tau
    estimate) up, for a count x d array ``arr`` inside (0, 1) and
    ``upper = np.triu_indices(d, 1)``.  An evaluation scores every pair in one
    density call; each pair's row is summed as np.sum sums it alone, and the
    rows add left to right, so the loglik is a loop over pairs' bit for bit."""
    uv = arr.T[np.array(upper)]  # (2, pairs, count), each row contiguous
    lo = {"clayton": 1e-6, "gumbel": 1.0 + 1e-9, "frank": 1e-6}[family]

    def neg(theta):
        if theta <= lo:
            return -_LOGLIK_FLOOR
        vals = _bivariate_log_density(family, float(theta), uv)
        if not np.all(np.isfinite(vals)):
            return -_LOGLIK_FLOOR
        return -float(np.cumsum(np.sum(vals, axis=1))[-1])

    return minimize_bounded(neg, lo, max(theta0 * 10.0, lo + 50.0), xatol=1e-8)[0]


def empirical_copula(pseudo) -> np.ndarray:
    """C_n evaluated at the sample's own points, for a count x d matrix or
    each matrix of a (B, count, d) stack of numbers, none NaN."""
    # NaN compares as never <=, and would count as no point
    arr = point_array(pseudo, "pseudo-observation")
    if arr.ndim not in (2, 3) or arr.shape[-1] < 1:
        raise ValidationError("pseudo-observations must be count x d or B x count x d with d >= 1")
    return _empirical_copula(arr)


def _empirical_copula(pseudo: np.ndarray) -> np.ndarray:
    """``empirical_copula`` of a checked array; integer ranks give the same values."""
    cols = np.ascontiguousarray(np.moveaxis(pseudo, -1, 0))
    # le[..., i, j]: point i <= point j in every coordinate
    le = cols[0, ..., :, None] <= cols[0, ..., None, :]
    cmp = np.empty_like(le)
    for col in cols[1:]:
        le &= np.less_equal(col[..., :, None], col[..., None, :], out=cmp)
    count = le.shape[-1]
    # an exact count in the smallest integer that holds it, then one division
    return le.sum(axis=-2, dtype=np.min_scalar_type(count)) / count


def _cvm_statistics(family: str, thetas: np.ndarray, pseudo: np.ndarray,
                    cn: np.ndarray) -> np.ndarray:
    """sum (C_n - C_theta)^2 over each sample of a (B, count, d) stack, at
    its own theta of ``thetas`` (B,), with cn (B, count) = C_n at its points.
    Every caller passes matrices inside (0, 1), checked by ``fit_copula``
    or made of ranks over (count + 1), so phi and psi run without their
    argument checks.  A theta column rounds as the scalar theta would, so
    each sample's statistic equals its own evaluation bit for bit."""
    th = thetas[:, None]
    with np.errstate(all="ignore"):
        ct = _psi(family, th, np.sum(_phi(family, th[..., None], pseudo), axis=-1))
    return np.sum((cn - ct) ** 2, axis=-1)


@dataclass(frozen=True)
class GofResult:
    family: str
    theta: float
    statistic: float
    p_value: float
    bootstrap_n: int
    out_of_range: int  # replicates whose tau left the family's range
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


class BootstrapRangeError(ValidationError):
    """The parametric bootstrap cannot sample the copula fitted to the data;
    carries the ``family`` and fitted ``theta``."""

    def __init__(self, family: str, theta: float):
        super().__init__(
            f"the parametric bootstrap cannot sample {family} at the fitted theta "
            f"{theta:.6g}: {_refusal(GeneratorSpec(family, theta))}")
        self.family, self.theta = family, theta


def cvm_gof(family: str, pseudo, boot_n: int = 200, seed: int = 0,
            method: str = "tau") -> GofResult:
    """Cramer-von Mises distance to the fitted copula, with a parametric
    bootstrap p-value (theta refitted in every replicate).

    Replicate b is drawn from child seed b of the 64-bit ``seed``, as
    ``sample_copula`` would draw it.  A block of replicates is drawn in one
    ``mcsim._draw_times`` call, which derives the block's Philox keys in one
    pass and reuses one generator.  The block is ranked as drawn, negated,
    and given its empirical copulas, Kendall tau matrices, thetas and
    statistics at once, so the result equals a loop over replicates bit for
    bit.  Only a replicate whose mean tau leaves the family's range counts
    as out of range; any other error propagates.
    """
    boot_n = whole_number(boot_n, "boot_n", 100, FLOAT_ARRAY_MAX)
    seed = check_seed(seed)
    arr = real_array(pseudo, "pseudo-observation")
    theta = fit_copula(family, arr, method)
    g = GeneratorSpec(family, theta)
    if _refusal(g) is not None:
        raise BootstrapRangeError(family, float(theta))
    stat = float(_cvm_statistics(family, np.array([theta]), arr[None],
                                 _empirical_copula(arr)[None])[0])
    count, d = arr.shape
    child_seeds = np.random.SeedSequence(seed).generate_state(boot_n, dtype=np.uint64)
    block = max(1, _BLOCK_BYTES // (count * count))
    # comparisons of narrow integers run about four times faster than of
    # floats, and twice-ranks order the points as the ranks do
    small = np.min_scalar_type(2 * count + 1)
    upper = np.triu_indices(d, 1)
    exceed = out_of_range = 0
    for start in range(0, boot_n, block):
        times = _draw_times(g, d, count, child_seeds[start:start + block])
        # -t ranks as the uniforms psi(t) do; a t of +inf (u = 0) ranks lowest
        twice = _twice_ranks(-np.minimum(times, np.finfo(float).max))
        narrow = twice.astype(small)
        # signs of ranks are the signs of the values.  Each row of mean tau
        # is summed pairwise, as np.mean sums one replicate's, only where its
        # taus lie contiguous
        taus = np.ascontiguousarray(_kendall_tau_matrix(narrow)[:, upper[0], upper[1]])
        thetas = _tau_thetas(family, taus.mean(axis=1))
        # a replicate whose tau left the family's range scores as an extreme misfit
        fitted = ~np.isnan(thetas)
        out_of_range += int(np.count_nonzero(~fitted))
        ps = twice[fitted] / 2.0 / (count + 1.0)
        thetas = thetas[fitted]
        if method == "pseudo_likelihood":
            thetas = np.array([_pseudo_likelihood_theta(family, th, p, upper)
                               for th, p in zip(thetas.tolist(), ps)])
        scores = _cvm_statistics(family, thetas, ps, _empirical_copula(narrow[fitted]))
        exceed += int(np.count_nonzero(scores >= stat))
    exceed += out_of_range
    return GofResult(family, float(theta), stat, exceed / boot_n, boot_n, out_of_range, seed)


@dataclass(frozen=True)
class SubsetRecommendation:
    """Pairwise comparison outcome over candidate component subsets."""

    maximal: tuple[str, ...]
    dominates: tuple[tuple[str, str], ...]
    ties: tuple[tuple[str, str], ...]
    incomparable: tuple[tuple[str, str], ...]
    inconsistent: tuple[tuple[str, str], ...]
    unverified: dict  # (src, dst) -> names of the hypothesis checks that failed
    certificates: dict

    def to_json(self) -> dict:
        return {
            "maximal": list(self.maximal),
            "dominates": [list(p) for p in self.dominates],
            "ties": [list(p) for p in self.ties],
            "incomparable": [list(p) for p in self.incomparable],
            "inconsistent": [list(p) for p in self.inconsistent],
            "unverified": {f"{a}>{b}": list(names) for (a, b), names in self.unverified.items()},
            "certificates": {f"{a}>{b}": r.to_json() for (a, b), r in self.certificates.items()},
        }


def recommend_subset(systems: dict) -> SubsetRecommendation:
    """Rank candidate subsets by confirmed dominance certificates.

    Each pair goes to the theorem-1 verifier both ways; a direction is
    related when its report's p-larger check holds, as it does whenever the
    verifier raises InconsistencyError.  Only verified-and-confirmed
    dominance creates an edge.  Pairs related neither way are incomparable,
    never forced; related directions whose hypotheses fail are unverified,
    with the failed checks, and the others, whose curves refuse to
    dominate, inconsistent.
    """
    if len(systems) < 2:
        raise ValidationError("need at least two candidate subsets")
    labels = list(systems)
    first = systems[labels[0]]
    for lab in labels[1:]:
        s = systems[lab]
        if s.n != first.n or s.model != first.model or s.generator != first.generator:
            raise ValidationError("candidate subsets must share size, model and generator")
    dominates: list[tuple[str, str]] = []
    ties: list[tuple[str, str]] = []
    incomparable: list[tuple[str, str]] = []
    inconsistent: list[tuple[str, str]] = []
    unverified: dict = {}
    certificates: dict = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            related = False
            for src, dst in ((a, b), (b, a)):
                try:
                    cert = verify_theorem1(systems[src], systems[dst])
                except InconsistencyError:  # raised only once every hypothesis held
                    cert = None
                if cert is not None and not cert.check("p_larger").holds:
                    continue
                related = True
                if cert is None:
                    inconsistent.append((src, dst))
                elif not cert.overall:
                    unverified[(src, dst)] = tuple(c.name for c in cert.checks if not c.holds)
                else:
                    certificates[(src, dst)] = cert
                    if cert.dominance.relation is Relation.X_DOMINATES_Y:
                        dominates.append((src, dst))
                    elif (src, dst) not in ties and (dst, src) not in ties:
                        ties.append((src, dst))
            if not related:
                incomparable.append((a, b))
    dominated = {dst for _, dst in dominates}
    maximal = tuple(lab for lab in labels if lab not in dominated)
    return SubsetRecommendation(
        maximal=maximal,
        dominates=tuple(dominates),
        ties=tuple(ties),
        incomparable=tuple(incomparable),
        inconsistent=tuple(inconsistent),
        unverified=unverified,
        certificates=certificates,
    )


def _weibull_scale(arr: np.ndarray, shape: float) -> float:
    """The closed form of ``fixed_shape_weibull_scale`` on checked data."""
    top = float(np.max(arr))  # x / top <= 1, so the power cannot overflow
    return float(top * np.mean((arr / top) ** shape) ** (1.0 / shape))


def fixed_shape_weibull_scale(data, shape: float) -> float:
    """Closed-form per-component Weibull scale MLE with a shared shape."""
    shape = real_number(shape, "shape", *POSITIVE_FINITE)
    return _weibull_scale(_strengths(data, minimum=1), shape)


def _check_manifest(manifest) -> None:
    """Raise unless manifest holds every key compare_to_reference reads,
    with numbers where it does arithmetic."""
    ok = (isinstance(manifest, dict) and isinstance(manifest.get("marginal_aic_order"), list)
          and isinstance(manifest.get("copulas"), dict) and "preferred_copula" in manifest
          and all(isinstance(ref, dict) and is_number(ref.get("theta"))
                  and is_number(ref.get("p_value"))
                  for ref in (manifest.get("tolerances"), *manifest["copulas"].values())))
    if not ok:
        raise ValidationError("reference manifest needs tolerances, marginal_aic_order, "
                              "copulas (theta and p_value numbers) and preferred_copula")


def compare_to_reference(gofs: dict, ranking: ModelRanking, manifest: dict,
                         preferred: str | None) -> dict:
    """Check a pipeline run, whose preferred copula is ``preferred``, against
    the bundled manifest tolerances."""
    _check_manifest(manifest)
    tol = manifest["tolerances"]
    out = {"aic_order_matches": [r.family for r in ranking.entries] == manifest["marginal_aic_order"],
           "copulas": {}}
    for fam, ref in manifest["copulas"].items():
        got = gofs.get(fam)
        if got is None:
            continue
        out["copulas"][fam] = {
            "theta_within_tol": abs(got.theta - ref["theta"]) <= tol["theta"],
            "p_value_within_tol": abs(got.p_value - ref["p_value"]) <= tol["p_value"],
            "theta": got.theta,
            "p_value": got.p_value,
        }
    out["preferred_copula_matches"] = preferred == manifest["preferred_copula"]
    return out
