"""Shared grid and tolerance policy for probes, curves and verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import SemiParamModel, default_x_grid, sp_quantile


@dataclass(frozen=True)
class GridPolicy:
    """Ranges, point counts and tolerances used by the verifiers.

    One policy object travels through a verification so the hypothesis
    probe and the dominance confirmation share consistent grids.
    """

    # class constants, the same for every policy
    q_lo = 0.001
    q_hi = 0.999
    shape_tol = 1e-9
    preorder_tol = 1e-12

    curve_points: int = 1000
    shape_x_points: int = 200
    dominance_tol: float = 1e-10
    crossing_gap: float = 1e-8

    def __post_init__(self):
        if self.curve_points < 2 or self.shape_x_points < 3:
            raise ValidationError("grid point counts too small")

    def curve_grid(self, model: SemiParamModel, *theta_vectors) -> np.ndarray:
        """Log-spaced lifetime grid over the mixture bulk of all components."""
        return self._bulk_grid([(model, np.concatenate(
            [np.asarray(t, dtype=float) for t in theta_vectors]))])

    def _bulk_grid(self, components) -> np.ndarray:
        """The default lifetime grid over every (model, thetas) entry: log-spaced from
        the smallest q_lo to the largest q_hi quantile, floored at hi * 1e-9."""
        lo = np.min([np.min(sp_quantile(m, self.q_lo, th)) for m, th in components])
        hi = np.max([np.max(sp_quantile(m, self.q_hi, th)) for m, th in components])
        if not (np.isfinite(lo) and 0.0 < hi < np.inf):
            names = ", ".join(dict.fromkeys(
                f"{m.kind} {m.baseline.family}{m.baseline.params}" for m, _ in components))
            raise ValidationError(f"{names} has no finite positive bulk quantile range "
                                  f"[{lo:.3g}, {hi:.3g}] for a lifetime grid")
        return np.geomspace(max(lo, hi * 1e-9), hi, self.curve_points)

    def shape_x_grid(self, model: SemiParamModel) -> np.ndarray:
        """Lifetimes of the one shape probe left, mphrs with alpha > 1."""
        return default_x_grid(model.baseline, self.shape_x_points, self.q_lo, self.q_hi)
