"""The grids and dominance tolerances of one verdict."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_ARRAY_MAX, NONNEGATIVE, real_number, whole_number
from .models import SemiParamModel, bulk_grid, default_x_grid


@dataclass(frozen=True)
class GridPolicy:
    """The curve grid and dominance tolerances of a verdict, and the grid
    of the one shape probe left; the shape and preorder tolerances are
    ``models.SHAPE_TOL`` and ``preorders.DEFAULT_TOL``, not policy."""

    curve_points: int = 1000
    dominance_tol: float = 1e-10
    crossing_gap: float = 1e-8

    def __post_init__(self):
        points = whole_number(self.curve_points, "curve_points", 2, FLOAT_ARRAY_MAX)
        object.__setattr__(self, "curve_points", points)
        for name in ("dominance_tol", "crossing_gap"):
            object.__setattr__(self, name, real_number(getattr(self, name), name, *NONNEGATIVE))

    def curve_grid(self, model: SemiParamModel, *theta_vectors) -> np.ndarray:
        """``models.bulk_grid`` over every component, at curve_points."""
        return bulk_grid([(model, np.concatenate(theta_vectors))], self.curve_points)

    def shape_x_grid(self, model: SemiParamModel) -> np.ndarray:
        """Lifetimes of the one shape probe left, mphrs with alpha > 1."""
        return default_x_grid(model.baseline)
