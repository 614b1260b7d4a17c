"""Spans and counters for the traced run, recorded from outside the package.

``install`` replaces every module attribute bound to a traced function
(including names a module imported from another) with a wrapper that
records a span: name, start, end, parent span and op id.  Spans stay in
memory until the run ends, when the caller writes them out and
``layer_metrics`` turns them into per-layer calls, self time and counters.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODULES = ("cli", "ordering", "systems", "models", "generators", "gridpolicy",
           "preorders", "mcsim", "fitlab", "demos")


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _verify(rec, idx, args, kwargs, result, exc):
    inconsistent = type(exc).__name__ == "InconsistencyError"
    rec.counters["ordering.verify.inconsistent"] += inconsistent
    rec.counters["ordering.verify.hypotheses_passed"] += (
        inconsistent or bool(result is not None and result.overall))


def _cells(name):
    def count(rec, idx, args, kwargs, result, exc):
        rec.counters[name + ".cells"] += _size(args[1]) * _size(args[2])
    return count


def _component_points(rec, idx, args, kwargs, result, exc):
    rec.counters["systems.survival_x2n.component_points"] += args[0].n * _size(args[1])


def _cvm(rec, idx, args, kwargs, result, exc):
    rec.counters["fitlab.cvm_gof.replicates"] += kwargs.get(
        "boot_n", args[2] if len(args) > 2 else 200)


def _fit_copula(rec, idx, args, kwargs, result, exc):
    """A raise inside cvm_gof is a replicate scored as an exceedance, except
    for the first fit_copula call there: the observed-data fit, which
    propagates."""
    parent = rec.spans[idx][3]
    if exc is None or parent < 0 or rec.spans[parent][0] != "fitlab.cvm_gof":
        return
    first = next(i for i in range(parent + 1, idx + 1)
                 if rec.spans[i][3] == parent and rec.spans[i][0] == "fitlab.fit_copula")
    rec.counters["fitlab.fit_copula.out_of_range"] += first != idx


def _copula_draws(rec, idx, args, kwargs, result, exc):
    rec.counters["mcsim.sample_copula.draws"] += args[1] * args[2]


def _lifetime_draws(rec, idx, args, kwargs, result, exc):
    rec.counters["mcsim.sample_lifetimes.draws"] += args[0].n * args[1]


#: (module, function, span name, counter) for every traced public function.
FUNCTIONS = (
    ("ordering", "verify_theorem1", "ordering.verify", _verify),
    ("ordering", "verify_theorem2", "ordering.verify", _verify),
    ("ordering", "verify_prop_mphrs", "ordering.verify", _verify),
    ("ordering", "verify_prop_ls", "ordering.verify", _verify),
    ("ordering", "compare_curves", "ordering.compare_curves", None),
    ("models", "check_theorem1_condition2", "models.check_theorem1_condition2",
     _cells("models.check_theorem1_condition2")),
    ("models", "check_theorem2_condition2", "models.check_theorem2_condition2",
     _cells("models.check_theorem2_condition2")),
    ("models", "check_dpfr", "models.check_dpfr", None),
    ("models", "sp_quantile", "models.sp_quantile", None),
    ("systems", "survival_x2n", "systems.survival_x2n", _component_points),
    ("systems", "curve", "systems.curve", None),
    ("systems", "default_grid", "systems.default_grid", None),
    ("generators", "classify_log_shape", "generators.classify_log_shape", None),
    ("preorders", "holds", "preorders.holds", None),
    ("preorders", "classify", "preorders.classify", None),
    ("fitlab", "mle_fit", lambda args: f"fitlab.mle_fit.{args[0]}", None),
    ("fitlab", "cvm_gof", "fitlab.cvm_gof", _cvm),
    ("fitlab", "fit_copula", "fitlab.fit_copula", _fit_copula),
    ("fitlab", "pseudo_observations", "fitlab.pseudo_observations", None),
    ("mcsim", "sample_copula", "mcsim.sample_copula", _copula_draws),
    ("mcsim", "sample_lifetimes", "mcsim.sample_lifetimes", _lifetime_draws),
    ("mcsim", "empirical_survival_x2n", "mcsim.empirical_survival_x2n", None),
    ("cli", "cmd_preorder", "cli.preorder", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_curve", "cli.curve", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
)

#: (module, class, method, span name); the constructor probe is __post_init__.
METHODS = (
    ("gridpolicy", "GridPolicy", "curve_grid", "gridpolicy.curve_grid"),
    ("gridpolicy", "GridPolicy", "shape_x_grid", "gridpolicy.shape_x_grid"),
    ("generators", "GeneratorSpec", "__post_init__", "generators.GeneratorSpec"),
)


class Recorder:
    """In-memory span list; ``enabled`` is off while checks run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counters = defaultdict(float)
        self.op = -1
        self.enabled = True

    def wrap(self, name, fn, count=None):
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = len(rec.spans)
            rec.spans.append([label, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op])
            rec.stack.append(idx)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                span = rec.spans[idx]
                span[1], span[2] = start, end
                if count is not None:
                    count(rec, idx, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def span(self, name, start, end):
        """Record a span measured by the caller (a root span per op)."""
        self.spans.append([name, start, end, -1, self.op])


def install(rec: Recorder) -> None:
    """Wrap every traced function in every loaded package module."""
    pkg = sys.modules["failsafekit"]
    mods = {m: sys.modules.get(f"failsafekit.{m}") for m in MODULES}
    namespaces = [pkg] + [m for m in mods.values() if m is not None]
    for mod, attr, span, count in FUNCTIONS:
        if mods[mod] is None:
            continue
        orig = getattr(mods[mod], attr)
        wrapper = rec.wrap(span, orig, count)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli._VERIFIERS
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapper
    for mod, cls_name, attr, span in METHODS:
        if mods[mod] is None:
            continue
        cls = getattr(mods[mod], cls_name)
        setattr(cls, attr, rec.wrap(span, getattr(cls, attr)))
    if mods["demos"] is not None:
        configs = mods["demos"].FIGURE_CONFIGS
        for key, (pair_fn, grid_fn) in list(configs.items()):
            configs[key] = (rec.wrap("demos.figure_configs", pair_fn), grid_fn)


def self_times(spans) -> dict:
    """name -> [calls, self seconds]."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - covered[i]
    return out


#: Spans reported as <name>.calls and <name>.self_s.
CALLS_AND_SELF = (
    "models.check_theorem1_condition2", "models.check_theorem2_condition2",
    "models.sp_quantile", "systems.survival_x2n", "systems.curve",
    "generators.classify_log_shape", "preorders.holds", "ordering.verify",
    "fitlab.cvm_gof", "fitlab.fit_copula", "fitlab.pseudo_observations",
    "mcsim.sample_copula", "mcsim.sample_lifetimes",
)
#: Spans reported as <name>.self_s only.
SELF_ONLY = (
    "models.check_dpfr", "systems.default_grid", "gridpolicy.curve_grid",
    "gridpolicy.shape_x_grid", "ordering.compare_curves",
    "fitlab.mle_fit.exponential", "fitlab.mle_fit.gamma", "fitlab.mle_fit.weibull",
    "fitlab.mle_fit.burr", "mcsim.empirical_survival_x2n", "demos.figure_configs",
    "generators.GeneratorSpec",
)
#: Work counters: name -> (unit, better).
COUNTERS = {
    "models.check_theorem1_condition2.cells": ("count", "lower"),
    "models.check_theorem2_condition2.cells": ("count", "lower"),
    "systems.survival_x2n.component_points": ("count", "lower"),
    "generators.GeneratorSpec.constructions": ("count", "lower"),
    "preorders.classify.calls": ("count", "lower"),
    "ordering.verify.inconsistent": ("count", "lower"),
    "ordering.verify.hypotheses_passed_ratio": ("ratio", "higher"),
    "fitlab.cvm_gof.replicates": ("count", "lower"),
    "fitlab.fit_copula.out_of_range": ("count", "lower"),
    "fitlab.fit_copula.useful_ratio": ("ratio", "higher"),
    "mcsim.sample_copula.draws": ("count", "lower"),
    "mcsim.sample_lifetimes.draws": ("count", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.preorder.wall_s": ("s", "lower"),
    "cli.verify.wall_s": ("s", "lower"),
    "cli.curve.wall_s": ("s", "lower"),
    "cli.simulate.wall_s": ("s", "lower"),
    "cli.timeouts": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def catalog() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in CALLS_AND_SELF:
        out.append((f"{name}.calls", "count", "lower"))
    for name in CALLS_AND_SELF + SELF_ONLY:
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.self_share", "ratio", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    return out


def layer_metrics(times: dict, counters: dict, extra: dict, wall_s: float) -> dict:
    """Per-layer values from merged self times, counters and harness values."""
    values = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = times.get(name, (0, 0.0))[0]
    for name in CALLS_AND_SELF + SELF_ONLY:
        self_s = times.get(name, (0, 0.0))[1]
        values[f"{name}.self_s"] = self_s
        values[f"{name}.self_share"] = self_s / wall_s
    for key in ("models.check_theorem1_condition2.cells",
                "models.check_theorem2_condition2.cells",
                "systems.survival_x2n.component_points",
                "fitlab.cvm_gof.replicates", "mcsim.sample_copula.draws",
                "mcsim.sample_lifetimes.draws", "ordering.verify.inconsistent",
                "fitlab.fit_copula.out_of_range"):
        values[key] = counters.get(key, 0)
    values["generators.GeneratorSpec.constructions"] = times.get("generators.GeneratorSpec", (0, 0))[0]
    values["preorders.classify.calls"] = times.get("preorders.classify", (0, 0))[0]
    verdicts = times.get("ordering.verify", (0, 0))[0]
    values["ordering.verify.hypotheses_passed_ratio"] = (
        counters.get("ordering.verify.hypotheses_passed", 0) / verdicts if verdicts else 0.0)
    replicates = counters.get("fitlab.cvm_gof.replicates", 0)
    values["fitlab.fit_copula.useful_ratio"] = (
        1.0 - values["fitlab.fit_copula.out_of_range"] / replicates if replicates else 0.0)
    values.update(extra)
    return values
