"""Shared grid and tolerance policy for probes, curves and verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import BULK_Q_HI, BULK_Q_LO, SHAPE_TOL, SemiParamModel, default_x_grid, sp_quantile
from .preorders import DEFAULT_TOL


@dataclass(frozen=True)
class GridPolicy:
    """Ranges, point counts and tolerances used by the verifiers.

    One policy object travels through a verification so the hypothesis
    probe and the dominance confirmation share consistent grids.
    """

    # class constants, the same for every policy, owned by the modules that use them
    q_lo = BULK_Q_LO
    q_hi = BULK_Q_HI
    shape_tol = SHAPE_TOL
    preorder_tol = DEFAULT_TOL

    curve_points: int = 1000
    dominance_tol: float = 1e-10
    crossing_gap: float = 1e-8

    def __post_init__(self):
        if self.curve_points < 2:
            raise ValidationError(f"curve_points must be at least 2, got {self.curve_points}")
        if not (self.dominance_tol >= 0.0 and self.crossing_gap >= 0.0):  # NaN fails too
            raise ValidationError("dominance and crossing tolerances must be nonnegative")

    def curve_grid(self, model: SemiParamModel, *theta_vectors) -> np.ndarray:
        """Log-spaced lifetime grid over the mixture bulk of all components."""
        return self._bulk_grid([(model, np.concatenate(
            [np.asarray(t, dtype=float) for t in theta_vectors]))])

    def _bulk_grid(self, components) -> np.ndarray:
        """The default lifetime grid over every (model, thetas) entry: log-spaced from
        the smallest q_lo to the largest q_hi quantile, floored at hi * 1e-9."""
        # one quantile call per entry for both ends: gamma's inverse costs per call
        ends = [sp_quantile(m, [[self.q_lo], [self.q_hi]], th) for m, th in components]
        lo = np.min([np.min(q[0]) for q in ends])
        hi = np.max([np.max(q[1]) for q in ends])
        if not (np.isfinite(lo) and 0.0 < hi < np.inf):
            names = ", ".join(dict.fromkeys(
                f"{m.kind} {m.baseline.family}{m.baseline.params}" for m, _ in components))
            raise ValidationError(f"{names} has no finite positive bulk quantile range "
                                  f"[{lo:.3g}, {hi:.3g}] for a lifetime grid")
        return np.geomspace(max(lo, hi * 1e-9), hi, self.curve_points)

    def shape_x_grid(self, model: SemiParamModel) -> np.ndarray:
        """Lifetimes of the one shape probe left, mphrs with alpha > 1."""
        return default_x_grid(model.baseline)
