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
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InconsistencyError, ValidationError
from .generators import classify_log_shape, is_log_concave, is_log_convex
from .gridpolicy import GridPolicy
from .models import check_dpfr, survival_shape
from .preorders import Preorder, holds
from .systems import SurvivalCurve, SystemSpec, curve, default_grid, survival_x2n


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
    policy = policy or GridPolicy()
    tol, crossing_gap = policy.dominance_tol, policy.crossing_gap
    xs = cx.xs
    gap = cx.values - cy.values  # finite: SurvivalCurve refuses NaN
    min_gap, max_gap = float(gap.min()), float(gap.max())
    wiggle = max(tol, crossing_gap)
    crossings = ()
    if max_gap <= tol and min_gap >= -tol:
        relation = Relation.TIES_WITHIN_TOL
    elif max_gap > tol and min_gap >= -wiggle:
        relation = Relation.X_DOMINATES_Y
    elif max_gap <= wiggle:
        relation = Relation.Y_DOMINATES_X
    else:
        # both signs reach beyond crossing_gap, so some pair brackets a change
        relation = Relation.CROSSING
        crossings = _bracket_crossings(xs, gap, crossing_gap)
    return DominanceVerdict(relation, min_gap, max_gap, crossings, xs.size)


def _bracket_crossings(xs, gap, thresh) -> tuple[tuple[float, float], ...]:
    """Intervals bracketing sign changes whose ends both exceed thresh."""
    sig = np.where(gap > thresh, 1, np.where(gap < -thresh, -1, 0))
    idx = np.nonzero(sig)[0]
    out = []
    for a, b in zip(idx[:-1], idx[1:]):
        if sig[a] != sig[b]:
            out.append((float(xs[a]), float(xs[b])))
    return tuple(out)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool
    evidence: str

    def to_json(self) -> dict:
        return asdict(self)


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
    the model's DFR and reported as ``survival_shape``; a row with a
    ``kind`` has no sign and checks ``baseline_dpfr`` instead, and restricts
    both systems to one shared model of that kind.
    """

    log_concave: bool
    sign: str | None
    preorder: Preorder
    kind: str | None = None


#: The two comparison theorems and the two model propositions.  Checks call
#: module-level names at run time, so call-site wrappers see every call.
ROUTES = {
    "theorem1": _Route(True, "nonincreasing", Preorder.P_LARGER),
    "theorem2": _Route(False, "nondecreasing", Preorder.RECIPROCAL_MAJORIZE),
    "prop_mphrs": _Route(True, None, Preorder.P_LARGER, kind="mphrs"),
    "prop_ls": _Route(True, None, Preorder.P_LARGER, kind="ls"),
}


def verify(
    route: str,
    sysX: SystemSpec,
    sysY: SystemSpec,
    policy: GridPolicy | None = None,
) -> ConditionReport:
    """Check the hypotheses of ``ROUTES[route]`` and confirm its conclusion.

    Checks, in order: shared generator, shared model, generator log-shape,
    survival/baseline shape, parameter preorder.  If all hold, both curves
    are evaluated on the policy grid and X must dominate Y or tie; anything
    else raises InconsistencyError with the report.
    """
    row = ROUTES[route]
    policy = policy or GridPolicy()
    mx, my = sysX.model, sysY.model
    if row.kind is not None:
        if mx.kind != row.kind or my.kind != row.kind:
            raise ValidationError(f"both systems must use the {row.kind} kind")
        if mx != my:
            raise ValidationError(f"mismatched fixed {row.kind} parameters")
        if row.kind == "mphrs" and not (0.0 < mx.alpha <= 1.0):
            raise ValidationError("fixed alpha must lie in (0, 1]")
    shape = classify_log_shape(sysX.generator)
    gen_check, gen_ok = (("generator_log_concave", is_log_concave) if row.log_concave
                         else ("generator_log_convex", is_log_convex))
    v = (check_dpfr(mx.baseline) if row.sign is None
         else survival_shape(mx, row.sign, policy.shape_x_grid, policy.shape_tol))
    # the preorders are defined on positive vectors only; no other check reads theta
    if all(t > 0.0 for t in sysX.theta + sysY.theta):
        order_ok = (holds(row.preorder, sysX.theta, sysY.theta, policy.preorder_tol),
                    f"{sysX.theta} vs {sysY.theta}")
    else:
        order_ok = (False, f"{row.preorder.value} needs positive thetas")
    checks = (
        HypothesisCheck("shared_generator", sysX.generator == sysY.generator,
                        f"{sysX.generator.to_json()} vs {sysY.generator.to_json()}"),
        HypothesisCheck("shared_model", mx == my and sysX.n == sysY.n,
                        f"{mx.kind}/n={sysX.n} vs {my.kind}/n={sysY.n}"),
        HypothesisCheck(gen_check, gen_ok(shape), f"shape={shape.shape.value}: {shape.rule}"),
        HypothesisCheck("survival_shape" if row.sign else "baseline_dpfr", v.holds, v.rule),
        HypothesisCheck(row.preorder.value, *order_ok),
    )
    overall = all(c.holds for c in checks)
    if not overall:
        return ConditionReport(route, checks, overall, None)
    xs = policy.curve_grid(mx, sysX.theta, sysY.theta)
    dominance = compare_curves(curve(sysX, xs), curve(sysY, xs), policy)
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
    if step < 1e-9:
        raise ValidationError("relative step below float resolution")
    th = np.asarray(sys.theta, dtype=float)
    if np.any(th <= 0.0):
        raise ValidationError("log-parameter probe needs positive thetas")
    a = np.log(th)
    xs = default_grid(sys) if xs is None else np.asarray(xs, dtype=float)

    partials = np.empty((xs.size, sys.n))
    for i in range(sys.n):
        h = step * (1.0 + abs(a[i]))
        hi = a.copy(); hi[i] += h
        lo = a.copy(); lo[i] -= h
        s_hi = survival_x2n(SystemSpec(sys.n, sys.model, tuple(np.exp(hi)), sys.generator), xs)
        s_lo = survival_x2n(SystemSpec(sys.n, sys.model, tuple(np.exp(lo)), sys.generator), xs)
        partials[:, i] = (s_hi - s_lo) / (2.0 * h)

    p, q = np.triu_indices(sys.n, 1)
    prod = (a[p] - a[q]) * (partials[:, p] - partials[:, q])
    return float(np.where(a[p] == a[q], 0.0, prod).min())
