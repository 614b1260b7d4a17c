"""The benchmark's traced run wraps package functions by name.

``perfbench/tracing.py`` lists them in ``FUNCTIONS`` and ``METHODS``; a
rename or a deletion in the package would silently drop a layer from
``perfbench/run.py --trace 1``, so every listed name must still exist.  The
cell counters of the two condition-2 probes read the probes' positional
arguments, so the verifiers must keep passing their grids that way.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


@pytest.mark.parametrize("route, pair, probe", [
    ("verify_theorem1", "gumbel_barnett_pair", "check_theorem1_condition2"),
    ("verify_theorem2", "clayton_pair", "check_theorem2_condition2"),
])
def test_condition2_probes_take_grids_positionally(monkeypatch, route, pair, probe):
    """The ``.cells`` counters multiply the sizes of a probe's args[1] and
    args[2], so the verifiers must pass (model, x grid, parameter grid, tol)
    positionally."""
    from failsafekit import demos, ordering
    from failsafekit.gridpolicy import GridPolicy

    calls = []
    real = getattr(ordering, probe)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(ordering, probe, record)
    sx, sy = getattr(demos, pair)()
    policy = GridPolicy()
    getattr(ordering, route)(sx, sy, policy)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 4
    model, xs, grid, tol = args
    assert model == sx.model and tol == policy.shape_tol
    assert np.shape(xs) == (policy.shape_x_points,)
    assert np.shape(grid) == (policy.param_points,)
