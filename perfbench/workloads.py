"""The three benchmark workloads: seeded inputs, one op, one correctness check.

Each workload builds its whole op list up front from the seed through the
package's own constructors, so the timed loop only calls into the package.
Mixes and input sizes are stratified (fixed counts per op kind, sizes
drawn within fixed strata) so that two seeds differ in the inputs but not
in how much work a run holds; that keeps run-to-run spread small.

A workload has ``ops``, a ``warmup`` op, ``run(op)`` and ``check(op, out)``,
plus the hooks the runner needs: ``timed_out(out)``, ``peak_rss_kb(results)``,
``repeatable``, ``start_tracing(rec)`` and ``layers(rec, results)``.  The
warm-up op is drawn from a fixed stream, not from the seed, so set-up does
the same work on every seed.  ``check`` returns (True, digest bytes) for a correct output, False for a
wrong one and None for an outcome the workload does not expect (such as an
exit code outside the expected set); all three are then failed ops, but
only False makes the run incorrect.

Package modules are always looked up at call time (``ordering.verify_x``,
never a name bound at import), so the call-site wrappers of the traced run
see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import tracing

from failsafekit import generators, mcsim, models, ordering, preorders, systems
from failsafekit.errors import InconsistencyError, ValidationError
from failsafekit.gridpolicy import GridPolicy

#: The policy ``failsafekit verify`` uses with its default flags.
POLICY = GridPolicy()
#: Bootstrap size of every fit_gof op.
BOOT_N = 100
#: cli_session: Monte-Carlo draws per simulate op and the DKW false-alarm rate.
SIM_COUNT = 20000
DKW_ALPHA = 1e-3
#: cli_session: seconds before a child interpreter is killed.  The slowest
#: simulate in the table that finishes takes 3.6-4.0 s on 2 cores, so the
#: deadline sits at twice that: whether an op is killed must not depend on
#: the machine's speed of the moment, or two runs of one seed would fail
#: different ops.  The hung ones never finish, whatever the deadline.
CLI_DEADLINE_S = 8.0
KILL_GRACE_S = 2.0
#: Slack for float wiggles in curve CSVs (the package's own clamp tolerance).
CURVE_TOL = systems.CLAMP_TOL


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _counts(n_ops: int, shares: dict) -> list:
    """Op kinds for n_ops slots in exact proportion (largest remainder)."""
    raw = {k: n_ops * s for k, s in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: n_ops - sum(counts.values())]:
        counts[k] += 1
    return [k for k in shares for _ in range(counts[k])]


def _doubles(values) -> bytes:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    return struct.pack(f"<{arr.size}d", *arr)


# ------------------------------------------------------------ audit draws
def log_concave_generator(rng) -> generators.GeneratorSpec:
    k = rng.integers(0, 3)
    if k == 0:
        return generators.GeneratorSpec("gumbel_barnett", float(rng.uniform(0.05, 1.0)))
    if k == 1:
        return generators.GeneratorSpec("gumbel_hougaard", float(rng.uniform(1.1, 4.0)))
    return generators.GeneratorSpec("amh", float(rng.uniform(-1.0, -0.05)))


def dfr_baseline(rng, k=None, u=None) -> models.BaselineSpec:
    """A random DFR baseline as in criterion 07a; ``k`` fixes the family and
    ``u`` (two numbers in [0, 1)) where each parameter lies in its range."""
    k = rng.integers(0, 4) if k is None else k

    def draw(i, lo, hi):
        return float(rng.uniform(lo, hi) if u is None else lo + (hi - lo) * u[i])

    if k == 0:
        return models.BaselineSpec("exp_weibull", (draw(0, 0.3, 1.0), draw(1, 0.3, 1.0)))
    if k == 1:
        return models.BaselineSpec("gen_pareto", (draw(0, 0.1, 3.0),))
    if k == 2:
        return models.BaselineSpec("burr", (draw(0, 0.3, 1.0), draw(1, 0.3, 3.0)))
    return models.BaselineSpec("gen_gamma", (draw(0, 0.3, 1.0), draw(1, 0.3, 1.0)))


def rejection_pair(rng, n: int, kind: preorders.Preorder) -> tuple:
    """Log-uniform vectors in [0.1, 3] until ``kind`` holds for (a, b)."""
    for _ in range(20_000):
        a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        b = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        if np.allclose(np.sort(a), np.sort(b)):
            continue
        if preorders.holds(kind, a, b):
            return tuple(a), tuple(b)
    raise RuntimeError("rejection sampler starved")


def scaled_pair(rng, n: int) -> tuple:
    """X log-uniform in [0.1, 3], Y = X with every entry scaled by >= 1."""
    a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
    b = a * rng.uniform(1.0, 2.0, n)
    return tuple(a), tuple(b)


def _pair(n, model, ta, tb, gen):
    return systems.SystemSpec(n, model, ta, gen), systems.SystemSpec(n, model, tb, gen)


def theorem1_config(rng, n: int, large: bool = False, family=None, u=None):
    gen = log_concave_generator(rng)
    model = models.SemiParamModel("scale", dfr_baseline(rng, family, u))
    ta, tb = scaled_pair(rng, n) if large else rejection_pair(rng, n, preorders.Preorder.P_LARGER)
    return _pair(n, model, ta, tb, gen)


def theorem2_config(rng, n: int):
    model = models.SemiParamModel("location", models.BaselineSpec("gen_pareto", (1.0,)))
    k = rng.integers(0, 3)
    if k == 0:
        gen = generators.GeneratorSpec("clayton", float(rng.uniform(0.5, 6.0)))
    elif k == 1:
        gen = generators.GeneratorSpec("frank", float(rng.uniform(0.5, 8.0)))
    else:
        gen = generators.GeneratorSpec("gumbel", float(rng.uniform(1.1, 4.0)))
    ta, tb = rejection_pair(rng, n, preorders.Preorder.RECIPROCAL_MAJORIZE)
    return _pair(n, model, ta, tb, gen)


def proposition_config(rng, n: int, kind: str):
    gen = log_concave_generator(rng)
    if kind == "mphrs":
        model = models.SemiParamModel("mphrs", dfr_baseline(rng),
                                      alpha=float(rng.uniform(0.1, 1.0)),
                                      lam=float(rng.uniform(0.3, 3.0)))
    else:
        model = models.SemiParamModel("ls", dfr_baseline(rng), lam=float(rng.uniform(0.0, 2.0)))
    ta, tb = rejection_pair(rng, n, preorders.Preorder.P_LARGER)
    return _pair(n, model, ta, tb, gen)


def check_verdict(report, inconsistent: bool, sys_x, sys_y, x_min=None) -> bool:
    """A report or an InconsistencyError is consistent with its own curves.

    Recomputes both survival curves on the policy grid, requires the
    reported gaps to match, and requires the relation to follow the sign
    rule of ``compare_curves``.  Pins no verdict.
    """
    dom = report.dominance
    if not report.overall:
        return dom is None and not inconsistent
    if dom is None:
        return False
    xs = POLICY.curve_grid(sys_x.model, sys_x.theta, sys_y.theta)
    if x_min is not None:
        xs = xs[xs > x_min]
    gap = systems.survival_x2n(sys_x, xs) - systems.survival_x2n(sys_y, xs)
    lo, hi = float(gap.min()), float(gap.max())
    if dom.grid_size != xs.size or abs(lo - dom.min_gap) > 1e-12 or abs(hi - dom.max_gap) > 1e-12:
        return False
    tol, cross = POLICY.dominance_tol, POLICY.crossing_gap
    rel = dom.relation.value
    sign_ok = {
        "ties_within_tol": hi <= cross and lo >= -cross,
        "x_dominates_y": lo >= -cross,
        "y_dominates_x": hi <= cross,
        "crossing": lo < -tol and hi > tol,
    }[rel]
    good = rel in ("x_dominates_y", "ties_within_tol")
    return sign_ok and (good != inconsistent)


class InProcess:
    """Hooks of a workload whose ops run inside the benchmark process."""

    #: the same op run twice must give bitwise identical outputs
    repeatable = True

    def timed_out(self, out) -> bool:
        return False

    def peak_rss_kb(self, results) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def start_tracing(self, rec) -> None:
        tracing.install(rec)

    def layers(self, rec, results) -> tuple:
        """(name -> [calls, self s], counters, harness-side metrics, child spans)."""
        return tracing.self_times(rec.spans), rec.counters, {}, {}


class AuditSweep(InProcess):
    """One op is one verify_* call under the default GridPolicy."""

    name = "audit_sweep"
    shares = {"t1": 0.70, "t2": 0.15, "t1_large": 0.10, "p_mphrs": 0.025, "p_ls": 0.025}
    verifiers = {"t1": "verify_theorem1", "t1_large": "verify_theorem1",
                 "t2": "verify_theorem2", "p_mphrs": "verify_prop_mphrs",
                 "p_ls": "verify_prop_ls"}

    def __init__(self, seed: int, n_ops: int):
        rng = _rng(seed, 1)
        kinds = list(rng.permutation(_counts(n_ops, self.shares)))
        # The tail is set by the costliest large-n ops: gen_gamma baselines,
        # whose cost per component doubles as their second parameter falls
        # from 1 to 0.3.  So the baseline families share the large-n ops
        # equally, and within each family n (20..50) and both baseline
        # parameters lie in strata paired the same way on every seed; the
        # seed moves each draw inside its stratum.
        n_large = kinds.count("t1_large")
        families = np.arange(n_large) % 4
        strata = np.zeros((n_large, 3))
        pairing = _rng(0, 6)
        for f in range(4):
            sel = families == f
            count = int(sel.sum())
            strata[sel] = np.column_stack([(pairing.permutation(count) + rng.random(count)) / count
                                           for _ in range(3)])
        large = zip(families, 20 + np.floor(31 * strata[:, 0]).astype(int), strata[:, 1:])
        self.ops = [self._build(rng, k, large) for k in kinds]
        self.warmup = self._build(_rng(0, 5), "t1", iter(()))

    def _build(self, rng, kind, large):
        family = u = None
        if kind == "t1_large":
            family, n, u = next(large)
            family, n = int(family), int(n)
        else:
            n = int(rng.integers(3, 6))
        if kind in ("t1", "t1_large"):
            sx, sy = theorem1_config(rng, n, large=kind == "t1_large", family=family, u=u)
        elif kind == "t2":
            sx, sy = theorem2_config(rng, n)
        else:
            sx, sy = proposition_config(rng, n, kind[2:])
        return kind, sx, sy

    def run(self, op):
        kind, sx, sy = op
        try:
            return getattr(ordering, self.verifiers[kind])(sx, sy, POLICY), False
        except InconsistencyError as exc:
            return exc.report, True

    def check(self, op, out):
        kind, sx, sy = op
        report, inconsistent = out
        x_min = sx.model.lam if kind == "p_ls" else None
        ok = check_verdict(report, inconsistent, sx, sy, x_min)
        dom = report.dominance
        blob = json.dumps([kind, report.overall, inconsistent,
                           [c.holds for c in report.checks],
                           dom.relation.value if dom else None]).encode()
        if dom is not None:
            blob += _doubles([dom.min_gap, dom.max_gap])
        return ok, blob


# ---------------------------------------------------------------- fit_gof
class FitGof(InProcess):
    """One op is the ``failsafekit fit`` pipeline on one synthetic dataset.

    fitlab is imported here, not at module level, so that audit_sweep's
    set-up does not pay for it.
    """

    name = "fit_gof"

    def __init__(self, seed: int, n_ops: int):
        from failsafekit import fitlab

        rng = _rng(seed, 2)
        fams = fitlab.COPULA_FAMILIES
        # Cost follows d, m and the tested family, so the design fixes them
        # up to jitter: d cycles through 2..6, the tested family changes every
        # five ops, and within each d the m and tau strata are laid out as a
        # Latin square over those blocks.  Every run then holds the same
        # spread of sizes; the seed moves each draw inside its stratum.
        dims = [2 + i % 5 for i in range(n_ops)]
        sizes = np.zeros(n_ops, dtype=int)
        taus = np.zeros(n_ops)
        for k, d in enumerate(sorted(set(dims))):
            idx = [i for i in range(n_ops) if dims[i] == d]
            strata = (np.arange(len(idx)) + 3 * k) % len(idx)
            sizes[idx] = np.floor(12 + 97 * (strata + rng.random(len(idx))) / len(idx))
            strata = (np.arange(len(idx)) + k) % len(idx)
            taus[idx] = 0.2 + 0.4 * (strata + rng.random(len(idx))) / len(idx)
        self.ops = [self._build(rng, fitlab, dims[i], int(sizes[i]), float(taus[i]),
                                fams[(i // 5) % len(fams)]) for i in range(n_ops)]
        self.warmup = self._build(_rng(0, 5), fitlab, 3, 60, 0.4, fams[0])

    @staticmethod
    def _build(rng, fitlab, d, m, tau, gof_family):
        """A d x m dataset: Weibull marginals tied by a random catalog copula."""
        gen_family = fitlab.COPULA_FAMILIES[int(rng.integers(0, 3))]
        theta = fitlab.tau_to_theta(gen_family, tau)
        shape = float(rng.uniform(2.0, 8.0))
        scale = float(rng.uniform(30.0, 100.0))
        uniforms = mcsim.sample_copula(generators.GeneratorSpec(gen_family, theta), d, m,
                                       int(rng.integers(0, 2**32))).uniforms
        base = models.BaselineSpec("weibull", (scale, shape))
        return {
            "matrix": models.quantile(base, 1.0 - uniforms),
            "weibull": (scale, shape),
            "gof_family": gof_family,
            "boot_seed": int(rng.integers(0, 2**32)),
        }

    def run(self, op):
        from failsafekit import fitlab

        dataset = fitlab.LifetimeDataset(
            {f"w{j}": op["matrix"][:, j] for j in range(op["matrix"].shape[1])})
        pooled = dataset.pooled()
        fits = {fam: fitlab.mle_fit(fam, pooled) for fam in fitlab.FIT_FAMILIES}
        ranking = fitlab.rank_models(fits.values())
        pseudo = fitlab.pseudo_observations(dataset.matrix())
        try:
            gof = fitlab.cvm_gof(op["gof_family"], pseudo, boot_n=BOOT_N,
                                 seed=op["boot_seed"], method="tau")
        except ValidationError as exc:
            gof = exc
        return fits, ranking, pseudo, gof

    def check(self, op, out):
        from scipy import stats

        from failsafekit import fitlab

        fits, ranking, pseudo, gof = out
        pooled = op["matrix"].T.ravel()
        true_ll = float(np.sum(models.log_pdf(models.BaselineSpec("weibull", op["weibull"]),
                                              pooled)))
        ok = fits["weibull"].loglik >= true_ll - 1e-9 * max(1.0, abs(true_ll))
        ok &= [e.family for e in ranking.entries] == sorted(
            fitlab.FIT_FAMILIES, key=lambda f: (fits[f].aic, fits[f].bic))
        ok &= bool(np.all((pseudo > 0.0) & (pseudo < 1.0)))
        fam = op["gof_family"]
        if isinstance(gof, ValidationError):
            # expected only where the sample tau lies outside the family's range
            d = pseudo.shape[1]
            tau = float(np.mean([stats.kendalltau(pseudo[:, i], pseudo[:, j]).statistic
                                 for i in range(d) for j in range(i + 1, d)]))
            attainable = (tau >= 0.0 if fam == "gumbel" else tau > 0.0) and tau < 1.0
            if attainable:
                return None, str(gof).encode()
            gof_blob = b"out_of_range"
        else:
            ok &= 0.0 <= gof.p_value <= 1.0 and gof.bootstrap_n == BOOT_N
            ok &= math.isfinite(gof.theta) and (gof.theta >= 1.0 if fam == "gumbel" else gof.theta > 0.0)
            gof_blob = _doubles([gof.theta, gof.statistic, gof.p_value])
        blob = b"".join(_doubles(list(f.params.values()) + [f.loglik]) for f in ranking.entries)
        return bool(ok), blob + gof_blob


# ------------------------------------------------------------ cli_session
def _frailty_generator(rng) -> generators.GeneratorSpec:
    k = rng.integers(0, 4)
    if k == 0:
        return generators.GeneratorSpec("clayton", float(rng.uniform(0.5, 6.0)))
    if k == 1:
        return generators.GeneratorSpec("gumbel", float(rng.uniform(1.1, 4.0)))
    if k == 2:
        return generators.GeneratorSpec("frank", float(rng.uniform(0.5, 8.0)))
    return generators.GeneratorSpec("amh", float(rng.uniform(0.0, 0.9)))


def simulate_system(rng, family: int, kind: str) -> systems.SystemSpec:
    n = int(rng.integers(2, 6))
    model = models.SemiParamModel(kind, dfr_baseline(rng, family))
    if kind == "location":
        theta = tuple(rng.uniform(0.0, 3.0, n))
    else:
        theta = tuple(np.exp(rng.uniform(np.log(0.1), np.log(3.0), n)))
    return systems.SystemSpec(n, model, theta, _frailty_generator(rng))


def simulate_table() -> list:
    """Eight systems from a fixed stream: each baseline family under phr and
    under scale or location."""
    rng = _rng(0, 4)
    return [simulate_system(rng, family, kind) for family in range(4)
            for kind in ("phr", ("scale", "location")[rng.integers(0, 2)])]


def _schema_validators(root: str) -> dict:
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    schema_dir = os.path.join(root, "docs", "schemas")
    schemas = {}
    for name in sorted(os.listdir(schema_dir)):
        if name.endswith(".schema.json"):
            with open(os.path.join(schema_dir, name)) as fh:
                schemas[name] = json.load(fh)
    registry = Registry().with_resources(
        (s["$id"], Resource.from_contents(s)) for s in schemas.values())
    return {name: Draft202012Validator(s, registry=registry) for name, s in schemas.items()}


def _read_csv(path: str) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _curve_ok(header, rows) -> bool:
    if header[0] != "x" or len(rows) < 2:
        return False
    cols = np.array([[float(c) for c in r] for r in rows])
    if np.any(np.diff(cols[:, 0]) <= 0.0):
        return False
    for j, name in enumerate(header):
        if name.startswith("survival"):
            v = cols[:, j]
            if np.any(v < 0.0) or np.any(v > 1.0) or np.any(np.diff(v) > CURVE_TOL):
                return False
    return True


class CliSession:
    """One op is one ``python -m failsafekit.cli`` run in a fresh interpreter."""

    name = "cli_session"
    #: a child's output files are rewritten by a second run
    repeatable = False
    shares = {"preorder": 1 / 8, "verify": 1 / 4, "curve": 1 / 6, "figures": 1 / 8,
              "simulate": 1 / 3}
    expected_codes = {"preorder": {0}, "verify": {0, 1, 3}, "curve": {0},
                      "figures": {0}, "simulate": {0}}

    def __init__(self, seed: int, n_ops: int, tmp: str, root: str):
        rng = _rng(seed, 3)
        self.tmp = tmp
        self.traced = False
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.validators = _schema_validators(root)
        kinds = list(rng.permutation(_counts(n_ops, self.shares)))
        # Baseline family, model kind and parameters decide whether a
        # simulate op finishes (phr over burr or gen_pareto never does today),
        # so every run simulates the same eight systems, one per baseline
        # family under phr and one under scale or location, drawn once from
        # the full ranges; the seed sets their positions and Monte-Carlo seeds.
        self.sim_systems = iter(simulate_table() * -(-kinds.count("simulate") // 8))
        self.ops = [self._build(rng, i, k) for i, k in enumerate(kinds)]
        self.warmup = self._build(_rng(0, 5), n_ops, "preorder")

    def _write_system(self, path, spec):
        with open(path, "w") as fh:
            json.dump(spec.to_json(), fh)
        return path

    def _build(self, rng, i, kind):
        d = os.path.join(self.tmp, f"op{i:04d}")
        os.makedirs(d)
        out = os.path.join(d, "out")
        if kind == "preorder":
            n = int(rng.integers(3, 11))
            a = ",".join(repr(float(v)) for v in rng.uniform(0.1, 3.0, n))
            b = ",".join(repr(float(v)) for v in rng.uniform(0.1, 3.0, n))
            argv = ["preorder", "--a", a, "--b", b, "--out", out]
        elif kind == "verify":
            n = int(rng.integers(3, 6))
            if rng.random() < 0.7:
                theorem, (sx, sy) = "t1", theorem1_config(rng, n)
            else:
                theorem, (sx, sy) = "t2", theorem2_config(rng, n)
            argv = ["verify", theorem, self._write_system(os.path.join(d, "x.json"), sx),
                    self._write_system(os.path.join(d, "y.json"), sy), "--out", out]
        elif kind == "curve":
            sx, sy = theorem1_config(rng, int(rng.integers(2, 51)), large=True)
            argv = ["curve", self._write_system(os.path.join(d, "x.json"), sx),
                    "--paired", self._write_system(os.path.join(d, "y.json"), sy),
                    "--out", out]
        elif kind == "figures":
            argv = ["curve", "--emit-figures", "--out-dir", out]
        else:
            spec = next(self.sim_systems)
            argv = ["simulate", self._write_system(os.path.join(d, "sys.json"), spec),
                    "--count", str(SIM_COUNT), "--seed", str(int(rng.integers(0, 2**31))),
                    "--out", out]
        return {"kind": kind, "argv": argv, "out": out, "dir": d, "id": i}

    def run(self, op):
        """Run one child to exit or deadline: (exit code or None, rusage, spawn time)."""
        if self.traced:
            cmd = [sys.executable, self.child, os.path.join(op["dir"], "spans.json"),
                   str(op["id"]), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "failsafekit.cli", *op["argv"]]
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        with open(os.path.join(op["dir"], "log"), "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=op["dir"])

        def expire(sig):
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, sig)
                    state["killed"] = True

        # SIGTERM lets a traced child write its open spans; SIGKILL follows
        timers = [threading.Timer(CLI_DEADLINE_S, expire, (signal.SIGTERM,)),
                  threading.Timer(CLI_DEADLINE_S + KILL_GRACE_S, expire, (signal.SIGKILL,))]
        for t in timers:
            t.start()
        # wait without reaping, so no timer can ever signal a recycled pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["reaped"] = True
        for t in timers:
            t.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if state["killed"] else proc.returncode
        return code, usage, spawned

    def timed_out(self, out) -> bool:
        return out[0] is None

    def peak_rss_kb(self, results) -> int:
        """The largest child's peak RSS."""
        return max(out[1].ru_maxrss for _, out, err in results if err is None)

    def start_tracing(self, rec) -> None:
        """Children run cli_child.py, which installs the wrappers itself."""
        self.traced = True

    def layers(self, rec, results) -> tuple:
        """Merge the children's span files; add the harness-side cli metrics."""
        times = defaultdict(lambda: [0, 0.0])
        counters = defaultdict(float)
        startups = []
        children = {}
        walls = defaultdict(float)
        for op, (seconds, out, err) in zip(self.ops, results):
            sub = "curve" if op["kind"] == "figures" else op["kind"]
            walls[sub] += seconds
            try:
                with open(os.path.join(op["dir"], "spans.json")) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):  # killed before or while writing it
                continue
            children[op["id"]] = doc
            startups.append(doc["main_entry"] - out[2])
            for name, (calls, self_s) in tracing.self_times(doc["spans"]).items():
                times[name][0] += calls
                times[name][1] += self_s
            for key, value in doc["counters"].items():
                counters[key] += value
        extra = {f"cli.{sub}.wall_s": walls[sub]
                 for sub in ("preorder", "verify", "curve", "simulate")}
        extra["cli.startup_s"] = statistics.median(startups) if startups else 0.0
        extra["cli.timeouts"] = sum(1 for _, out, err in results
                                    if err is None and self.timed_out(out))
        return times, counters, extra, children

    def check(self, op, out):
        """out is what ``run`` returned; outputs are read from op['out']."""
        kind, code = op["kind"], out[0]
        if code not in self.expected_codes[kind]:
            return None, f"{kind}:exit{code}".encode()
        blob = f"{kind}:{code}:".encode()
        if kind in ("preorder", "verify"):
            with open(op["out"], "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
            schema = "order_report.schema.json" if kind == "preorder" else "condition_report.schema.json"
            if not self.validators[schema].is_valid(doc):
                return False, blob
            ok = True
            if kind == "verify":
                dom = doc["dominance"]
                good = dom is not None and dom["relation"] in ("x_dominates_y", "ties_within_tol")
                ok = {0: doc["overall"] and good, 1: not doc["overall"] and dom is None,
                      3: doc["overall"] and dom is not None and not good}[code]
            return ok, blob + raw
        if kind == "curve":
            header, rows = _read_csv(op["out"])
            ok = header == ["x", "survival_x", "survival_y", "gap"] and _curve_ok(header, rows)
            return ok, blob + json.dumps(rows).encode()
        if kind == "figures":
            names = sorted(os.listdir(op["out"]))
            ok = len(names) == 3 and all(n.endswith(".csv") for n in names)
            for n in names:
                header, rows = _read_csv(os.path.join(op["out"], n))
                ok = ok and _curve_ok(header, rows)
                blob += json.dumps(rows).encode()
            return ok, blob
        header, rows = _read_csv(op["out"])
        if header != ["x", "analytic", "empirical", "abs_diff"] or rows[-1][0] != "max_abs_deviation":
            return False, blob
        body = np.array([[float(c) for c in r] for r in rows[:-1]])
        dev = float(rows[-1][3])
        eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * SIM_COUNT))
        ok = (bool(np.all((body[:, 1:3] >= 0.0) & (body[:, 1:3] <= 1.0)))
              and dev == float(body[:, 3].max()) and dev <= eps)
        return ok, blob + json.dumps(rows).encode()


def digest(blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()[:16]
