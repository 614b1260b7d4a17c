"""Shared grid and tolerance policy for probes, curves and verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import SHAPE_TOL, SemiParamModel, _check_points, bulk_grid, default_x_grid
from .preorders import DEFAULT_TOL


@dataclass(frozen=True)
class GridPolicy:
    """Point counts and tolerances used by the verifiers.

    One policy object travels through a verification so the hypothesis
    probe and the dominance confirmation share consistent grids.
    """

    # class constants, the same for every policy, owned by the modules that use them
    shape_tol = SHAPE_TOL
    preorder_tol = DEFAULT_TOL

    curve_points: int = 1000
    dominance_tol: float = 1e-10
    crossing_gap: float = 1e-8

    def __post_init__(self):
        _check_points(self.curve_points)
        if not (self.dominance_tol >= 0.0 and self.crossing_gap >= 0.0):  # NaN fails too
            raise ValidationError("dominance and crossing tolerances must be nonnegative")

    def curve_grid(self, model: SemiParamModel, *theta_vectors) -> np.ndarray:
        """``models.bulk_grid`` over every component, at curve_points."""
        return bulk_grid([(model, np.concatenate(theta_vectors))], self.curve_points)

    def shape_x_grid(self, model: SemiParamModel) -> np.ndarray:
        """Lifetimes of the one shape probe left, mphrs with alpha > 1."""
        return default_x_grid(model.baseline)
