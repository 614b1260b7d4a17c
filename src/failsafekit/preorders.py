"""Vector preorders: majorization family, p-larger, reciprocal majorization.

All relations are evaluated on the ascending rearrangements of the two
vectors; each defining prefix inequality is relaxed by an absolute
tolerance that only absorbs float noise (the relations themselves are
exact).  Everything here is a pure function of immutable inputs and safe
under concurrent callers.

The vectors the audits compare hold a system's n parameters, a handful in
practice, so the relations are computed on Python floats: a numpy call on
so few numbers costs far more than the arithmetic.  The price is paid on
long vectors, which reach this module through ``failsafekit preorder
--a-file/--b-file`` or a large ``SystemSpec.n``: from about 70 entries on,
``holds`` is slower than the numpy form was, about 5x at 10^4 entries
(5 ms instead of 1 ms).  Prefix sums, products and reciprocal
sums are taken left to right with ``itertools.accumulate``, which is the
order in which numpy's 1-d ``cumsum`` and ``cumprod`` add and multiply,
and each step is the same IEEE double operation, so every prefix, and so
every comparison with ``tol``, has the bits the numpy form would give.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

from .errors import NONNEGATIVE, ValidationError, real_array, real_number, shown

DEFAULT_TOL = 1e-12


class Preorder(enum.Enum):
    MAJORIZE = "majorize"
    WEAK_SUPER = "weak_super"
    WEAK_SUB = "weak_sub"
    P_LARGER = "p_larger"
    RECIPROCAL_MAJORIZE = "reciprocal_majorize"


#: Relations defined only on the positive orthant.
POSITIVE_ONLY = frozenset({Preorder.P_LARGER, Preorder.RECIPROCAL_MAJORIZE})


def _ascending(v, name: str) -> list[float]:
    """v as an ascending list of finite Python floats."""
    arr = real_array(v, name)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    xs = arr.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValidationError(f"{name} contains non-finite entries")
    xs.sort()
    return xs


def _checked_pair(a, b) -> tuple[list[float], list[float]]:
    sa, sb = _ascending(a, "a"), _ascending(b, "b")
    if len(sa) != len(sb):
        raise ValidationError(f"length mismatch: {len(sa)} != {len(sb)}")
    return sa, sb


def holds(kind: Preorder, a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff the prefix inequalities of ``kind`` hold for a over b.

    ``a`` relates to ``b`` (e.g. ``a`` p-larger ``b``) when every prefix
    statistic of the ascending rearrangement of ``a`` is on the required
    side of ``b``'s, within ``tol``.  Majorization additionally requires
    equal totals.
    """
    tol = real_number(tol, "tol", *NONNEGATIVE)
    sa, sb = _checked_pair(a, b)
    if not isinstance(kind, Preorder):
        raise ValidationError(f"unknown preorder {shown(kind)}")
    if kind in POSITIVE_ONLY and (sa[0] <= 0.0 or sb[0] <= 0.0):
        raise ValidationError(f"{kind.value} requires strictly positive entries")
    return _holds(kind, sa, sb, tol)


def _holds(kind: Preorder, sa: list, sb: list, tol: float) -> bool:
    """``holds`` on the checked ascending lists and tol of ``holds``."""
    if kind is Preorder.MAJORIZE:
        ca, cb = list(accumulate(sa)), list(accumulate(sb))
        return (all(x <= y + tol for x, y in zip(ca[:-1], cb[:-1]))
                and bool(abs(ca[-1] - cb[-1]) <= tol))
    if kind is Preorder.WEAK_SUPER:
        return all(x <= y + tol for x, y in zip(accumulate(sa), accumulate(sb)))
    if kind is Preorder.WEAK_SUB:
        return all(x >= y - tol for x, y in zip(accumulate(sa), accumulate(sb)))
    if kind is Preorder.P_LARGER:
        pa, pb = accumulate(sa, operator.mul), accumulate(sb, operator.mul)
        return all(x <= y + tol for x, y in zip(pa, pb))
    ra, rb = accumulate(1.0 / x for x in sa), accumulate(1.0 / x for x in sb)
    return all(x >= y - tol for x, y in zip(ra, rb))


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
        rel = {k.value: {"a_over_b": self.forward[k], "b_over_a": self.reverse[k]} for k in Preorder}
        return {"ascending_a": list(self.ascending_a), "ascending_b": list(self.ascending_b),
                "relations": rel, "skipped": list(self.skipped), "tol": self.tol}


def classify(a, b, tol: float = DEFAULT_TOL) -> OrderReport:
    """Evaluate all ten (kind, direction) relations between a and b, checked once."""
    tol = real_number(tol, "tol", *NONNEGATIVE)
    sa, sb = _checked_pair(a, b)
    skip = () if sa[0] > 0.0 and sb[0] > 0.0 else [k for k in Preorder if k in POSITIVE_ONLY]
    forward = {k: None if k in skip else _holds(k, sa, sb, tol) for k in Preorder}
    reverse = {k: None if k in skip else _holds(k, sb, sa, tol) for k in Preorder}
    return OrderReport(tuple(sa), tuple(sb), forward, reverse, tuple(k.value for k in skip), tol)
