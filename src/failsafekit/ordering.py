"""Stochastic-order verdicts between systems.

Grid dominance, crossing detection, the hypothesis verifiers, and a
finite-difference probe of the Schur-convexity inequality their proofs
rely on.

Each comparison result (the two theorems and the two model propositions)
is a row of ``ROUTES``, run by the one engine ``verify``;
``verify_theorem1`` and its three siblings are wrappers naming a row.
Verifiers never claim dominance from hypotheses alone: when every
hypothesis verifies they evaluate both curves and confirm on the grid,
escalating disagreement as InconsistencyError.  The implementation is its
own audit.

A verdict reads the min and max of the gap S_X - S_Y over the policy grid,
which it checks once and does not copy.  When the grid fits in one block of
the survival kernel it is evaluated in one call, and both rows take the
``SurvivalCurve`` checks with no curve built.  A wider grid is evaluated in
two: every _STRIDE-th point and the last first, then the interior of each
interval that could still hold the min or the max gap.  Both survivals are
nonincreasing, so on [x_a, x_b] the gap lies in [S_X(x_b) - S_Y(x_a),
S_X(x_a) - S_Y(x_b)], widened by a slack of 2 ``systems.CLAMP_TOL`` for the
rounding rises the curve checks let through.  Every point gets the same
bits in any call, so the verdict equals the one from the whole grid; a
crossing is still bracketed on the whole grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE_FINITE, InconsistencyError, ValidationError, point_array, real_number, shown
from .generators import classify_log_shape, is_log_concave, is_log_convex
from .gridpolicy import GridPolicy
from .models import HypothesisCheck, check_dpfr, survival_shape
from .preorders import Preorder, holds
from .systems import (CLAMP_TOL, SurvivalCurve, SystemSpec, _block_columns, _check_grid,
                      _check_survival, _lifetimes, _survivals, default_grid)

#: A verdict over more than one kernel block first evaluates every _STRIDE-th
#: grid point and the last; see ``_grid_verdict``.
_STRIDE = 8


class Relation(enum.Enum):
    X_DOMINATES_Y = "x_dominates_y"
    Y_DOMINATES_X = "y_dominates_x"
    CROSSING = "crossing"
    TIES_WITHIN_TOL = "ties_within_tol"


@dataclass(frozen=True)
class DominanceVerdict:
    relation: Relation
    min_gap: float
    max_gap: float
    crossings: tuple[tuple[float, float], ...]
    grid_size: int

    def to_json(self) -> dict:
        return {
            "relation": self.relation.value,
            "min_gap": self.min_gap,
            "max_gap": self.max_gap,
            "crossings": [list(c) for c in self.crossings],
            "grid_size": self.grid_size,
        }


def compare_curves(
    cx: SurvivalCurve, cy: SurvivalCurve, policy: GridPolicy | None = None
) -> DominanceVerdict:
    """Pointwise verdict on cx vs cy over their (identical) grid.

    Gaps within ``policy.dominance_tol`` are ties.  A crossing needs the gap
    to change sign beyond ``policy.crossing_gap`` on both sides; smaller
    wiggles leave the dominance verdict standing, X's first.
    """
    if not np.array_equal(cx.xs, cy.xs):
        raise ValidationError("curves live on different grids")
    return _gap_verdict(cx.xs, cx.values - cy.values, policy or GridPolicy())


def _gap_verdict(xs: np.ndarray, gap: np.ndarray, policy: GridPolicy) -> DominanceVerdict:
    """The verdict of a gap S_X - S_Y, finite after the curve checks, on xs."""
    min_gap, max_gap = float(gap.min()), float(gap.max())
    relation = _relation(min_gap, max_gap, policy)
    # both signs reach beyond crossing_gap, so some pair brackets a change
    crossings = (_bracket_crossings(xs, gap, policy.crossing_gap)
                 if relation is Relation.CROSSING else ())
    return DominanceVerdict(relation, min_gap, max_gap, crossings, xs.size)


def _relation(min_gap: float, max_gap: float, policy: GridPolicy) -> Relation:
    """The relation of a gap that spans [min_gap, max_gap] under policy.

    CROSSING is max_gap > wiggle and min_gap < -wiggle, so the extremes of
    any subset of the points that shows it show it on the whole grid too.
    """
    tol = policy.dominance_tol
    wiggle = max(tol, policy.crossing_gap)
    if max_gap <= tol and min_gap >= -tol:
        return Relation.TIES_WITHIN_TOL
    if max_gap > tol and min_gap >= -wiggle:
        return Relation.X_DOMINATES_Y
    if max_gap <= wiggle:
        return Relation.Y_DOMINATES_X
    return Relation.CROSSING  # NaN too, which the full grid then refuses


def _grid_verdict(systems, xs: np.ndarray, policy: GridPolicy) -> DominanceVerdict:
    """``compare_curves(*curves(systems, xs), policy)`` for the two systems
    of a verdict, on an uncopied policy grid xs, from the two passes of the
    module docstring when the grid spans more than one kernel block."""
    _check_grid(xs)
    if _block_columns(systems[0].n, len(systems)) < xs.size:  # more than one kernel block
        coarse = np.r_[0:xs.size - 1:_STRIDE, xs.size - 1]
        sx, sy = _survivals(systems, xs[coarse])
        gap = sx - sy
        lo, hi = gap.min(), gap.max()
        if _relation(lo, hi, policy) is not Relation.CROSSING:
            slack = 2.0 * CLAMP_TOL
            reach = (sx[1:] - sy[:-1] - slack <= lo) | (sx[:-1] - sy[1:] + slack >= hi)
            # every point but the last, flagged by the interval it starts or lies in
            inside = np.repeat(reach, np.diff(coarse))
            inside[coarse[:-1]] = False
            fine = np.flatnonzero(inside)
            vals = np.empty((2, xs.size))
            vals[:, coarse] = sx, sy
            vals[:, fine] = _survivals(systems, xs[fine])
            vals = vals[:, np.sort(np.concatenate((coarse, fine)))]
            _check_survival(vals)  # the SurvivalCurve checks, on every evaluated point in x order
            gap = vals[0] - vals[1]
            min_gap, max_gap = float(gap.min()), float(gap.max())
            relation = _relation(min_gap, max_gap, policy)
            if relation is not Relation.CROSSING:
                return DominanceVerdict(relation, min_gap, max_gap, (), xs.size)
    # one kernel block, or a crossing to bracket on the whole grid
    vals = _survivals(systems, xs)
    _check_survival(vals)
    return _gap_verdict(xs, vals[0] - vals[1], policy)


def _bracket_crossings(xs, gap, thresh) -> tuple[tuple[float, float], ...]:
    """Intervals bracketing sign changes whose ends both exceed thresh:
    consecutive points beyond thresh whose signs differ."""
    sig = np.where(gap > thresh, 1, np.where(gap < -thresh, -1, 0))
    idx = np.flatnonzero(sig)
    turn = np.flatnonzero(sig[idx[:-1]] != sig[idx[1:]])
    return tuple(zip(xs[idx[turn]].tolist(), xs[idx[turn + 1]].tolist()))


@dataclass(frozen=True)
class ConditionReport:
    """Named hypothesis checks plus the confirmed dominance verdict."""

    result: str
    checks: tuple[HypothesisCheck, ...]
    overall: bool
    dominance: DominanceVerdict | None

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "result": self.result,
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
            "dominance": self.dominance.to_json() if self.dominance else None,
        }


@dataclass(frozen=True)
class _Route:
    """One comparison result: which hypotheses to check and how.

    ``log_concave`` picks the generator hypothesis (else log-convex);
    ``sign`` is the direction F(x; theta) must move in theta, checked with
    the model's DFR as ``survival_shape``; a proposition row has no sign and
    checks ``baseline_dpfr`` instead, which fails for every baseline, so it
    certifies no pair of any kind.
    """

    log_concave: bool
    sign: str | None
    preorder: Preorder


#: The two comparison theorems and the two model propositions.  Checks call
#: module-level names at run time, so call-site wrappers see every call.
ROUTES = {
    "theorem1": _Route(True, "nonincreasing", Preorder.P_LARGER),
    "theorem2": _Route(False, "nondecreasing", Preorder.RECIPROCAL_MAJORIZE),
    "prop_mphrs": _Route(True, None, Preorder.P_LARGER),
    "prop_ls": _Route(True, None, Preorder.P_LARGER),
}


def verify(
    route: str,
    sysX: SystemSpec,
    sysY: SystemSpec,
    policy: GridPolicy | None = None,
) -> ConditionReport:
    """Check the hypotheses of ``ROUTES[route]`` and confirm its conclusion.

    Checks, in order: shared generator, shared model, generator log-shape,
    survival/baseline shape, parameter preorder; a failed one is reported,
    never raised.  If all hold, both curves are evaluated on the policy grid
    and X must dominate Y or tie; anything else raises InconsistencyError.
    """
    if not isinstance(route, str) or route not in ROUTES:
        raise ValidationError(f"unknown route {shown(route)}, not one of {', '.join(ROUTES)}")
    row = ROUTES[route]
    policy = policy or GridPolicy()
    mx, my = sysX.model, sysY.model
    shape = classify_log_shape(sysX.generator)
    gen_check, gen_ok = (("generator_log_concave", is_log_concave) if row.log_concave
                         else ("generator_log_convex", is_log_convex))
    model_shape = (check_dpfr(mx.baseline) if row.sign is None
                   else survival_shape(mx, row.sign, policy.shape_x_grid))
    try:  # holds refuses thetas outside the preorder's domain; no other check reads theta
        order_ok = (holds(row.preorder, sysX.theta, sysY.theta), f"{sysX.theta} vs {sysY.theta}")
    except ValidationError as exc:
        order_ok = (False, str(exc))
    checks = (
        HypothesisCheck("shared_generator", sysX.generator == sysY.generator,
                        f"{sysX.generator.to_json()} vs {sysY.generator.to_json()}"),
        HypothesisCheck("shared_model", mx == my and sysX.n == sysY.n,
                        f"{mx.kind}/n={sysX.n} vs {my.kind}/n={sysY.n}" if mx == my
                        else f"{mx.to_json()} vs {my.to_json()}"),
        HypothesisCheck(gen_check, gen_ok(shape), f"shape={shape.shape.value}: {shape.rule}"),
        model_shape,
        HypothesisCheck(row.preorder.value, *order_ok),
    )
    overall = all(c.holds for c in checks)
    if not overall:
        return ConditionReport(route, checks, overall, None)
    xs = policy.curve_grid(mx, sysX.theta, sysY.theta)
    # the hypotheses above hold, so the two systems share model, generator and n
    dominance = _grid_verdict((sysX, sysY), xs, policy)
    report = ConditionReport(route, checks, overall, dominance)
    if dominance.relation not in (Relation.X_DOMINATES_Y, Relation.TIES_WITHIN_TOL):
        raise InconsistencyError(
            f"{route}: hypotheses verified but dominance failed "
            f"({dominance.relation.value}, min gap {dominance.min_gap:.3e})",
            report,
        )
    return report


def verify_theorem1(
    sysX: SystemSpec, sysY: SystemSpec, policy: GridPolicy | None = None
) -> ConditionReport:
    """Log-concave generator + shape condition + p-larger => X dominates."""
    return verify("theorem1", sysX, sysY, policy)


def verify_theorem2(
    sysX: SystemSpec, sysY: SystemSpec, policy: GridPolicy | None = None
) -> ConditionReport:
    """Log-convex generator + shape condition + reciprocal majorization."""
    return verify("theorem2", sysX, sysY, policy)


def verify_prop_mphrs(
    sysX: SystemSpec, sysY: SystemSpec, policy: GridPolicy | None = None
) -> ConditionReport:
    """mphrs model: log-concave generator + baseline DPFR + p-larger."""
    return verify("prop_mphrs", sysX, sysY, policy)


def verify_prop_ls(
    sysX: SystemSpec, sysY: SystemSpec, policy: GridPolicy | None = None
) -> ConditionReport:
    """Location-scale model, with the hypotheses of ``verify_prop_mphrs``."""
    return verify("prop_ls", sysX, sysY, policy)


def schur_condition_probe(sys: SystemSpec, step: float = 1e-5, xs=None) -> float:
    """Worst value of (a_p - a_q)(dS/da_p - dS/da_q) over pairs and grid.

    S is the fail-safe survival as a function of the componentwise
    log-parameters a = log(theta), probed on xs (default:
    ``default_grid(sys)``); partials are central finite differences with a
    relative step.  Schur-convexity of S in a demands the result be >= 0;
    a symmetric point returns exactly 0.
    """
    step = real_number(step, "step", lambda h: 1e-9 <= h < np.inf, "be finite and at least 1e-9")
    a = np.log(point_array(sys.theta, "log-parameter probe theta", *POSITIVE_FINITE))
    xs = default_grid(sys) if xs is None else _lifetimes(xs)

    # a moved up, then down, in each entry in turn; each SystemSpec checks its
    # theta, and one kernel pass evaluates all 2n systems
    h = step * (1.0 + np.abs(a))
    specs = []
    for i in range(sys.n):
        for move in (h[i], -h[i]):
            shifted = a.copy(); shifted[i] += move
            specs.append(SystemSpec(sys.n, sys.model, tuple(np.exp(shifted)), sys.generator))
    s = _survivals(specs, np.atleast_1d(xs)).reshape(sys.n, 2, -1)
    partials = ((s[:, 0] - s[:, 1]) / (2.0 * h)[:, None]).T

    p, q = np.triu_indices(sys.n, 1)
    prod = (a[p] - a[q]) * (partials[:, p] - partials[:, q])
    return float(np.where(a[p] == a[q], 0.0, prod).min())
