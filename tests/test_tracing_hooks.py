"""The benchmark's traced run wraps package functions by name.

``perfbench/tracing.py`` lists them in ``FUNCTIONS`` and ``METHODS``; a
rename or a deletion in the package would silently drop a layer from
``perfbench/run.py --trace 1``, so every listed name must still exist.
"""

import importlib
import importlib.util
from pathlib import Path

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
