"""Bundled demonstration configurations.

Three ready-made system pairs exercise the comparison machinery end to
end: a log-concave-generator pair whose fail-safe curves order cleanly, a
strongly dependent log-convex pair whose gap narrows to 2.8e-3 at x=0.01,
and a cable-strength pair built from the bundled reference manifest.
Figure data for all three is exported by ``failsafekit curve
--emit-figures``.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .generators import GeneratorSpec
from .gridpolicy import GridPolicy
from .models import BaselineSpec, SemiParamModel
from .systems import SystemSpec


def load_reference_manifest() -> dict:
    """Bundled expected-value manifest for the cable-strength dataset."""
    with resources.files("failsafekit.data").joinpath("cable_reference.json").open() as fh:
        return json.load(fh)


#: 1000-point grid over (0, 10], shared by the first two demos.
def demo_grid(points: int = 1000) -> np.ndarray:
    return np.linspace(10.0 / points, 10.0, points)


def gumbel_barnett_pair() -> tuple[SystemSpec, SystemSpec]:
    """Five scaled exponentiated-Weibull components under a log-concave
    generator; the X parameters are p-larger than Y's and the X curve
    stays above Y's everywhere."""
    model = SemiParamModel("scale", BaselineSpec("exp_weibull", (0.9, 0.9)))
    gen = GeneratorSpec("gumbel_barnett", 0.2)
    x = SystemSpec(5, model, (0.12, 0.28, 0.51, 0.62, 0.73), gen)
    y = SystemSpec(5, model, (0.21, 0.42, 0.73, 0.89, 0.92), gen)
    return x, y


def clayton_pair() -> tuple[SystemSpec, SystemSpec]:
    """Five scaled Weibull(shape 0.9) components under a strongly
    dependent log-convex generator; the gap narrows towards the grid's
    left end (2.8e-3 at x=0.01, 7.4e-5 at x=1e-3) but never changes sign
    (the componentwise-ordered parameters force dominance for every
    generator)."""
    model = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 0.9)))
    gen = GeneratorSpec("clayton", 10.0)
    x = SystemSpec(5, model, (0.13, 0.31, 0.49, 0.61, 0.72), gen)
    y = SystemSpec(5, model, (0.22, 0.41, 0.71, 0.88, 0.92), gen)
    return x, y


def cable_pair() -> tuple[SystemSpec, SystemSpec]:
    """Four-wire cable subsets from the reference manifest: pooled Weibull
    baseline (transposed parameter reading), Clayton dependence, per-wire
    scale multipliers relative to the pooled scale."""
    manifest = load_reference_manifest()
    wb = manifest["weibull_estimates"]["transposed"]
    baseline = BaselineSpec("weibull", (wb["scale"], wb["shape"]))
    model = SemiParamModel("scale", baseline)
    gen = GeneratorSpec("clayton", manifest["copulas"]["clayton"]["theta"])
    groups = manifest["wire_groups"]
    scale = wb["scale"]
    theta_a = tuple(scale / t for t in groups["A"]["theta"])
    theta_b = tuple(scale / t for t in groups["B"]["theta"])
    x = SystemSpec(len(theta_a), model, theta_a, gen)
    y = SystemSpec(len(theta_b), model, theta_b, gen)
    return x, y


def cable_grid() -> np.ndarray:
    """The default 1000-point lifetime grid over every wire of both subsets."""
    x, y = cable_pair()
    return GridPolicy().curve_grid(x.model, x.theta, y.theta)


#: Name -> (pair builder, grid builder); the fixed --emit-figures layout.
FIGURE_CONFIGS = {
    "gumbel_barnett_dominance": (gumbel_barnett_pair, demo_grid),
    "clayton_near_tangency": (clayton_pair, demo_grid),
    "cable_fail_safe": (cable_pair, cable_grid),
}
