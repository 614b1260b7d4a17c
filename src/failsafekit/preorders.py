"""Vector preorders: majorization family, p-larger, reciprocal majorization.

All relations are evaluated on the ascending rearrangements of the two
vectors; each defining prefix inequality is relaxed by an absolute
tolerance that only absorbs float noise (the relations themselves are
exact).  Everything here is a pure function of immutable inputs and safe
under concurrent callers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_TOL = 1e-12


class Preorder(enum.Enum):
    MAJORIZE = "majorize"
    WEAK_SUPER = "weak_super"
    WEAK_SUB = "weak_sub"
    P_LARGER = "p_larger"
    RECIPROCAL_MAJORIZE = "reciprocal_majorize"


#: Relations defined only on the positive orthant.
POSITIVE_ONLY = frozenset({Preorder.P_LARGER, Preorder.RECIPROCAL_MAJORIZE})


def _ascending(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.sort(arr)


def holds(kind: Preorder, a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff the prefix inequalities of ``kind`` hold for a over b.

    ``a`` relates to ``b`` (e.g. ``a`` p-larger ``b``) when every prefix
    statistic of the ascending rearrangement of ``a`` is on the required
    side of ``b``'s, within ``tol``.  Majorization additionally requires
    equal totals.
    """
    if not tol >= 0.0:  # NaN fails too
        raise ValidationError("tol must be nonnegative")
    sa, sb = _ascending(a, "a"), _ascending(b, "b")
    if sa.size != sb.size:
        raise ValidationError(f"length mismatch: {sa.size} != {sb.size}")
    if kind in POSITIVE_ONLY and (sa[0] <= 0.0 or sb[0] <= 0.0):
        raise ValidationError(f"{kind.value} requires strictly positive entries")

    if kind is Preorder.MAJORIZE:
        ca, cb = np.cumsum(sa), np.cumsum(sb)
        return bool(np.all(ca[:-1] <= cb[:-1] + tol) and abs(ca[-1] - cb[-1]) <= tol)
    if kind is Preorder.WEAK_SUPER:
        return bool(np.all(np.cumsum(sa) <= np.cumsum(sb) + tol))
    if kind is Preorder.WEAK_SUB:
        return bool(np.all(np.cumsum(sa) >= np.cumsum(sb) - tol))
    if kind is Preorder.P_LARGER:
        return bool(np.all(np.cumprod(sa) <= np.cumprod(sb) + tol))
    if kind is Preorder.RECIPROCAL_MAJORIZE:
        return bool(np.all(np.cumsum(1.0 / sa) >= np.cumsum(1.0 / sb) - tol))
    raise ValidationError(f"unknown preorder {kind!r}")


@dataclass(frozen=True)
class OrderReport:
    """All five relations in both directions, plus the arrangements used.

    ``forward[kind]`` answers "a ⪰ b", ``reverse[kind]`` answers "b ⪰ a".
    Entries are None (and listed in ``skipped``) when a relation does not
    apply, i.e. a positive-orthant relation saw a nonpositive entry.
    """

    ascending_a: tuple[float, ...]
    ascending_b: tuple[float, ...]
    forward: dict
    reverse: dict
    skipped: tuple[str, ...]
    tol: float

    def to_json(self) -> dict:
        rel = {}
        for kind in Preorder:
            rel[kind.value] = {
                "a_over_b": self.forward[kind],
                "b_over_a": self.reverse[kind],
            }
        return {
            "ascending_a": list(self.ascending_a),
            "ascending_b": list(self.ascending_b),
            "relations": rel,
            "skipped": list(self.skipped),
            "tol": self.tol,
        }


def classify(a, b, tol: float = DEFAULT_TOL) -> OrderReport:
    """Evaluate all ten (kind, direction) relations between a and b."""
    sa, sb = _ascending(a, "a"), _ascending(b, "b")
    if sa.size != sb.size:
        raise ValidationError(f"length mismatch: {sa.size} != {sb.size}")
    positive = sa[0] > 0.0 and sb[0] > 0.0
    forward, reverse = {}, {}
    skipped = []
    for kind in Preorder:
        if kind in POSITIVE_ONLY and not positive:
            forward[kind] = None
            reverse[kind] = None
            skipped.append(kind.value)
            continue
        forward[kind] = holds(kind, sa, sb, tol)
        reverse[kind] = holds(kind, sb, sa, tol)
    return OrderReport(
        ascending_a=tuple(sa),
        ascending_b=tuple(sb),
        forward=forward,
        reverse=reverse,
        skipped=tuple(skipped),
        tol=tol,
    )
