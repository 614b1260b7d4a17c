"""Shared grid and tolerance policy for probes, curves and verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import SemiParamModel, default_x_grid, sp_quantile


@dataclass(frozen=True)
class GridPolicy:
    """Ranges, point counts and tolerances used by the verifiers.

    One policy object travels through a verification so every hypothesis
    probe and the dominance confirmation share consistent grids.
    """

    # class constants, the same for every policy
    q_lo = 0.001
    q_hi = 0.999
    shape_tol = 1e-9
    preorder_tol = 1e-12

    curve_points: int = 1000
    shape_x_points: int = 200
    param_points: int = 100
    dominance_tol: float = 1e-10
    crossing_gap: float = 1e-8

    def __post_init__(self):
        if self.curve_points < 2 or self.shape_x_points < 3 or self.param_points < 3:
            raise ValidationError("grid point counts too small")

    def curve_grid(self, model: SemiParamModel, *theta_vectors) -> np.ndarray:
        """Log-spaced lifetime grid over the mixture bulk of all components."""
        return self._bulk_grid([(model, np.concatenate(
            [np.asarray(t, dtype=float) for t in theta_vectors]))])

    def _bulk_grid(self, components) -> np.ndarray:
        """The default lifetime grid over every (model, thetas) entry: log-spaced from
        the smallest q_lo to the largest q_hi quantile, floored at hi * 1e-9."""
        lo = min(np.min(sp_quantile(m, self.q_lo, th)) for m, th in components)
        hi = max(np.max(sp_quantile(m, self.q_hi, th)) for m, th in components)
        return np.geomspace(max(lo, hi * 1e-9), hi, self.curve_points)

    def shape_x_grid(self, model: SemiParamModel) -> np.ndarray:
        return default_x_grid(model.baseline, self.shape_x_points, self.q_lo, self.q_hi)

    def a_grid(self, *theta_vectors) -> np.ndarray:
        """Log-parameter grid spanning all supplied vectors, padded 10%."""
        allth = np.concatenate([np.asarray(t, dtype=float) for t in theta_vectors])
        if np.any(allth <= 0.0):
            raise ValidationError("log-parameter grid requires positive thetas")
        lo, hi = np.log(allth.min()), np.log(allth.max())
        pad = 0.1 * (hi - lo) if hi > lo else 0.5
        return np.linspace(lo - pad, hi + pad, self.param_points)

    def theta_grid(self, *theta_vectors) -> np.ndarray:
        """Linear parameter grid spanning all supplied vectors, padded 10%."""
        allth = np.concatenate([np.asarray(t, dtype=float) for t in theta_vectors])
        lo, hi = allth.min(), allth.max()
        pad = 0.1 * (hi - lo) if hi > lo else 0.5 * abs(lo) + 0.1
        lo = lo - pad
        hi = hi + pad
        if np.all(allth > 0.0):
            lo = max(lo, 0.05 * allth.min())
        return np.linspace(lo, hi, self.param_points)
