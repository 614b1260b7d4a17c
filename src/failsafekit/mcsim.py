"""Monte-Carlo oracle: frailty sampling of Archimedean dependence,
closed-form lifetime inversion through the log-survival of the
semi-parametric families, and empirical order-statistic survival.

Sampling uses numpy's Philox counter-based generator, so batches are
reproducible from a 64-bit seed alone (cross-language ports can match
statistically, not bitwise).  Frailty representations: U_i = psi(E_i / V)
with E_i unit exponentials and V the family's positive factor:

    independence  V = 1
    clayton       V ~ Gamma(1/theta, scale=theta)
    gumbel        V ~ positive stable, index 1/theta (Kanter's method)
    frank         V ~ logarithmic series, p = 1 - e^-theta (Kemp's method)
    amh           V ~ Geometric(1-theta) on {1, 2, ...}, theta in [0, 1)

Generators without such a representation (gumbel_barnett,
gumbel_hougaard, amh with theta < 0) raise UnsupportedGeneratorError:
a declared limitation, never a silent approximation.  So do clayton,
gumbel and frank above THETA_MAX, where the frailty leaves float64.
``_refusal`` alone decides both, and ``_draw_times`` asks it before it
derives a key or makes a generator, so a refused batch draws nothing.
Clayton's Gamma(1/theta) frailty and gumbel's positive-stable one of
index 1/theta are powers of order theta of O(1) random factors, so a
row's V underflows or overflows with probability about exp(-708/theta):
7e-7 at theta = 50 (the Gamma(1/theta) cdf at the smallest normal
double; gumbel's measured rate is lower), 8e-4 at 100 and 3e-2 at 200.
Such a row degenerates, so both stop at 50.  Frank's logarithmic-series
frailty outgrows float64 above 700.

``_draw_times`` is the one draw path.  It takes a block of seeds and
returns one count x n slice of E / V per seed (E alone where
``generators.is_independence`` holds, as there is no frailty; psi is then
exp(-t) bit for bit).  Slice i is, bit for bit, what
``np.random.Generator(np.random.Philox(seeds[i]))`` draws: Philox is
counter-based, so one generator per call takes each seed's key in turn,
with its counter and buffer reset, and ``_philox_keys`` derives every key
of the block in one vectorized pass of numpy's SeedSequence hash.
``sample_copula`` draws a block of one seed, followed by psi and the clip
into (0, 1).  A V that underflows to 0 gives E / V = +inf, whose uniform
psi(+inf) = 0 the clip lifts to 1e-15.  The CvM bootstrap draws a block
of its child seeds; psi is decreasing, so it ranks the draws E / V,
negated, and forms no uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FLOAT_ARRAY_MAX, UnsupportedGeneratorError, ValidationError, evaluate,
                     real_array, shown, whole_number)
from .generators import GeneratorSpec, is_independence, psi
from .models import _log1mexp, sp_inverse_log_survival
from .systems import SystemSpec, _lifetimes

#: Largest theta each frailty sampler takes (see the module docstring).
THETA_MAX = {"clayton": 50.0, "gumbel": 50.0, "frank": 700.0}


def check_seed(seed, name: str = "seed") -> int:
    """seed as an int; a ValidationError naming it unless it is a Python or
    numpy integer, not a bool, in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {shown(seed)}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {shown(int(seed))}")
    return int(seed)


@dataclass(frozen=True)
class SampleBatch:
    """count x n dependent uniforms with the seed and generator that made them."""

    uniforms: np.ndarray
    seed: int
    generator: GeneratorSpec


def _sample_positive_stable(alpha: float, count: int, rng) -> np.ndarray:
    """Kanter's construction: Laplace transform exp(-t^alpha), 0 < alpha < 1."""
    w = rng.uniform(0.0, np.pi, size=count)
    e = rng.exponential(size=count)
    return (
        np.sin(alpha * w)
        * (np.sin((1.0 - alpha) * w) / e) ** ((1.0 - alpha) / alpha)
        / np.sin(w) ** (1.0 / alpha)
    )


def _sample_log_series(r: float, count: int, rng) -> np.ndarray:
    """Kemp's sampler for P(V=k) = -p^k / (k log(1-p)), k = 1, 2, ...

    The parameter is r = log(1 - p) < 0, so p near 1 (frank's
    p = 1 - e^-theta) keeps its precision.
    """
    p = -np.expm1(r)
    v = rng.random(count)
    u = rng.random(count)
    out = np.ones(count)
    big = v < p
    q = -np.expm1(u[big] * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(1.0 + np.log(v[big]) / _log1mexp(u[big] * r))
    out[big] = np.where(v[big] < q * q, k, np.where(v[big] <= q, 2.0, 1.0))
    return out


def _refusal(g: GeneratorSpec) -> str | None:
    """Why no frailty sampler takes g in float64, or None when one does."""
    limit = THETA_MAX.get(g.family)
    if limit is not None and g.theta > limit:
        return f"{g.family} sampling needs theta <= {limit:g}"
    if g.family == "amh" and g.theta < 0.0:
        return "amh with negative dependence has no positive frailty"
    if limit is None and g.family not in ("independence", "amh"):
        return f"{g.family} is not completely monotone: no frailty sampler exists"
    return None


def _hash_steps(first: int, multiplier: int, steps: int):
    """The (xor, multiply) columns of a running hash constant over steps."""
    run = [first]
    for _ in range(steps):
        run.append(run[-1] * multiplier % 2 ** 32)
    column = np.array(run, np.uint32)[:, None]
    return column[:-1], column[1:]


#: numpy SeedSequence's constants: the running hash that mixes a pool of
#: four words (16 steps for an entropy of at most four words), the one that
#: draws words from the pool, and the two multipliers of a mix
_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 4)
_MIX = (np.uint32(0xCA01F9DD), np.uint32(0x4973F715))


def _hashed(words: np.ndarray, xor: np.ndarray, times: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words at the given steps of a running constant."""
    mixed = (words ^ xor) * times
    return mixed ^ (mixed >> 16)


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """The len(seeds) x 2 keys np.random.Philox(s) takes from each uint64
    seed s, which are np.random.SeedSequence(s).generate_state(2, np.uint64),
    hashed for every seed at once in uint32 arithmetic.

    A seed's entropy is its low and high 32-bit words, or one word below
    2**32; a high word of 0 hashes as the pool's filler does, so two words
    serve every seed.
    """
    xor, times = _POOL_STEPS
    pool = np.zeros((4, seeds.size), np.uint32)
    pool[0], pool[1] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _hashed(pool, xor[:4], times[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        step = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX[0] * pool[dst] - _MIX[1] * _hashed(pool[src], xor[step], times[step])
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashed(pool, *_STATE_STEPS).astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


def _frailty(g: GeneratorSpec, count: int, rng) -> np.ndarray:
    """count draws of g's frailty V."""
    if g.family == "clayton":
        return rng.gamma(shape=1.0 / g.theta, scale=g.theta, size=count)
    if g.family == "gumbel":
        return _sample_positive_stable(1.0 / g.theta, count, rng)
    if g.family == "frank":
        return _sample_log_series(-g.theta, count, rng)
    # amh with theta in (0, 1), the one other family _refusal lets through
    return 1.0 + np.floor(np.log(rng.random(count)) / np.log(g.theta))


def _draw_times(g: GeneratorSpec, n: int, count: int, seeds) -> np.ndarray:
    """The len(seeds) x count x n generator arguments E / V, one count x n
    slice per seed, or E where g has no frailty; psi of them are the uniforms.

    Slice i is what np.random.Generator(np.random.Philox(seeds[i])) draws:
    one generator takes each seed's key in turn, its counter and buffer
    reset, so no SeedSequence is built per seed.
    """
    refusal = _refusal(g)
    if refusal is not None:
        raise UnsupportedGeneratorError(f"{refusal}; use the analytic survival path instead")
    keys = _philox_keys(np.asarray(seeds, dtype=np.uint64))
    rng = np.random.Generator(np.random.Philox())
    # a fresh Philox(s) state but for its key; the setter copies the arrays
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    times = np.empty((len(keys), count, n))
    frailty = None if is_independence(g) else np.empty((len(keys), count))
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        rng.standard_exponential(out=times[i])
        if frailty is not None:
            frailty[i] = _frailty(g, count, rng)
    if frailty is not None:
        # a V that underflows to 0 gives t = +inf, whose uniform psi(+inf) is 0
        with np.errstate(divide="ignore", over="ignore"):
            times /= frailty[:, :, None]
    return times


def sample_copula(g: GeneratorSpec, n: int, count: int, seed: int) -> SampleBatch:
    """Draw count rows of n dependent uniforms with copula generator g."""
    n = whole_number(n, "n", 1, FLOAT_ARRAY_MAX)
    count = whole_number(count, "count", 1, FLOAT_ARRAY_MAX)
    whole_number(count * n, "count x n", 1, FLOAT_ARRAY_MAX)  # the entries of each draw
    seed = check_seed(seed)
    # psi checks t; the clip keeps uniforms inside (0, 1) for inversion
    u = np.clip(psi(g, _draw_times(g, n, count, [seed])[0]), 1e-15, 1.0 - 1e-16)
    return SampleBatch(uniforms=u, seed=seed, generator=g)


def sample_lifetimes(sys: SystemSpec, count: int, seed: int) -> np.ndarray:
    """count x n lifetimes whose marginal i has survival sp_survival(., theta_i).

    Each uniform u is inverted in closed form through log u; models with an
    atom at 0 (location theta < 0, ls lambda < 0) put it on 0 exactly.
    """
    batch = sample_copula(sys.generator, sys.n, count, seed)
    logs = np.log(batch.uniforms)
    out = np.empty_like(logs)
    for j, theta in enumerate(sys.theta):
        out[:, j] = np.maximum(sp_inverse_log_survival(sys.model, logs[:, j], theta), 0.0)
    return out


def second_smallest(lifetimes: np.ndarray) -> np.ndarray:
    """Row-wise second-smallest entry (the fail-safe system lifetime) of a
    lifetimes matrix: numeric, 2-d, with >= 2 columns and no NaN (+inf is
    a lifetime that never ends)."""
    arr = real_array(lifetimes, "lifetime")
    if arr.ndim != 2 or arr.shape[1] < 2 or np.isnan(arr).any():
        raise ValidationError("lifetimes must be a numeric matrix with >= 2 columns and no NaN")
    return np.partition(arr, 1, axis=1)[:, 1]


def empirical_survival_x2n(lifetimes: np.ndarray, x):
    """Fraction of rows whose second-smallest entry exceeds x, counted from
    one sort of those entries, so no rows x points matrix is formed."""
    second = np.sort(second_smallest(lifetimes))
    if second.size == 0:
        raise ValidationError("lifetimes matrix is empty")
    rows = second.size
    return evaluate(lambda xs: (rows - np.searchsorted(second, xs, side="right")) / rows,
                    _lifetimes(x))
