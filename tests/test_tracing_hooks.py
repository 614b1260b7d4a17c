"""The benchmark's traced run wraps package functions by name.

``perfbench/tracing.py`` lists them in ``FUNCTIONS`` and ``METHODS``; a
rename or a deletion in the package would silently drop a layer from
``perfbench/run.py --trace 1``, so every listed name must still exist.  Its
counters read the positional arguments of the calls they wrap, so a traced
run of the verifiers must go through without an error and report every
per-layer metric that BENCHMARK.json lists.  The ``.cells`` counters of the
two condition-2 probes read the probes' positional arguments, so the
verifiers must leave the probes alone and decide the same verdict the probes
give when called positionally.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for mod, name, _span, _count in tracing.FUNCTIONS:
        module = importlib.import_module(f"failsafekit.{mod}")
        assert callable(getattr(module, name, None)), f"failsafekit.{mod}.{name}"


def test_traced_methods_exist(tracing):
    for mod, cls_name, method, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(f"failsafekit.{mod}"), cls_name, None)
        assert cls is not None, f"failsafekit.{mod}.{cls_name}"
        assert callable(vars(cls).get(method)), f"{cls_name}.{method}"


#: Run in a child interpreter, so the wrappers ``install`` binds into the
#: package modules never reach another test.
TRACED_RUN = """
import json, sys, time
from failsafekit import demos, ordering
from failsafekit.models import SemiParamModel
from failsafekit.systems import SystemSpec
import tracing

rec = tracing.Recorder()
tracing.install(rec)
start = time.perf_counter()
gx, gy = demos.gumbel_barnett_pair()
ordering.verify_theorem1(gx, gy)
ordering.verify_theorem2(*demos.clayton_pair())
b = gx.model.baseline
for verify, model in ((ordering.verify_prop_mphrs, SemiParamModel("mphrs", b, alpha=0.5, lam=1.0)),
                      (ordering.verify_prop_ls, SemiParamModel("ls", b, lam=0.5))):
    verify(*(SystemSpec(s.n, model, s.theta, s.generator) for s in (gx, gy)))
values = tracing.layer_metrics(tracing.self_times(rec.spans), rec.counters, {},
                               time.perf_counter() - start)
json.dump(values, sys.stdout)
"""


def test_traced_verifiers_report_every_layer(tracing):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the harness adds the cli and trace metrics itself, as `extra`
    harness = {name for name in listed if name.split(".")[0] in ("cli", "trace")}
    assert listed - harness <= set(values), sorted(listed - harness - set(values))
    assert values["ordering.verify.calls"] == 4
    # verify decides the shape hypotheses from the tables directly
    for name in ("check_theorem1_condition2", "check_theorem2_condition2"):
        assert values[f"models.{name}.calls"] == 0
        assert values[f"models.{name}.cells"] == 0


@pytest.mark.parametrize("route, pair, probe", [
    ("verify_theorem1", "gumbel_barnett_pair", "check_theorem1_condition2"),
    ("verify_theorem2", "clayton_pair", "check_theorem2_condition2"),
])
def test_condition2_probes_take_grids_positionally(monkeypatch, route, pair, probe):
    """The ``.cells`` counters read a probe's args[1] and args[2]: verify
    must not call the probe (it reads the shape tables directly), and the
    probe called as (model, grid, tol) positionally must give the verdict
    verify reports as ``survival_shape``."""
    from failsafekit import demos, models, ordering
    from failsafekit.gridpolicy import GridPolicy

    calls = []
    real = getattr(models, probe)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(models, probe, record)
    monkeypatch.setattr(ordering, probe, record, raising=False)
    sx, sy = getattr(demos, pair)()
    policy = GridPolicy()
    report = getattr(ordering, route)(sx, sy, policy)
    assert calls == []

    verdict = record(sx.model, policy.shape_x_grid, policy.shape_tol)
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 3
    model, grid, tol = args
    assert model == sx.model and tol == policy.shape_tol
    assert np.shape(grid(model)) == (models.PROBE_POINTS,)
    shape = next(c for c in report.checks if c.name == "survival_shape")
    assert (shape.holds, shape.evidence) == (verdict.holds, verdict.rule)
