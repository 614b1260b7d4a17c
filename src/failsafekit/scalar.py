"""Scalar routines of the fit pipeline, so that ``fitlab`` needs no scipy.

Each is a port of the routine SciPy runs, doing the same IEEE double
operations in the same order, so its results equal SciPy's bit for bit:

- ``minimize_bounded``: Brent's bounded minimisation (Brent 1973,
  *Algorithms for Minimization Without Derivatives*, ch. 5), from SciPy's
  ``optimize._optimize._minimize_scalar_bounded``;
- ``brentq``: Brent's root finder (ch. 4), from SciPy's C ``brentq`` loop
  (``scipy/optimize/Zeros/brentq.c``) at its default rtol = 4 eps and
  maxiter = 100;
- ``spence``: the dilogarithm of Cephes (Moshier), as ``scipy.special.spence``
  evaluates it for a real argument; its polynomials go through
  ``models._horner``, which does Cephes' ``polevl`` operations in its order.

SciPy is BSD-3-Clause licensed (Copyright (c) 2001-2002 Enthought, Inc.,
2003 onwards SciPy Developers); Cephes is Copyright 1984-2000 Stephen L.
Moshier, distributed with SciPy under the same terms.  Where SciPy raises
(non-finite or reversed bounds, a bracket without a sign change, a NaN
value in brentq), the port raises a ValidationError; so it does for a NaN
value in the bounded search, which SciPy carries on to a failed result.
Logarithms come from ``math.log``, the C library's, as in Cephes; numpy's
may round differently.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .models import _horner

_SQRT_EPS = math.sqrt(2.2e-16)  # SciPy's constant, not sqrt of the float epsilon
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BOUNDED_MAXITER = 500  # SciPy's default for the bounded search


def _value(func, x) -> float:
    fx = func(x)
    if math.isnan(fx):
        raise ValidationError(f"the function value at x={x!r} is NaN; the search cannot continue")
    return fx


def minimize_bounded(func, lo: float, hi: float, xatol: float) -> tuple[float, float, bool]:
    """(x, func(x), success) for a local minimum of func on [lo, hi] to
    within xatol, by golden-section and parabolic steps; success is False
    when 500 evaluations ran out first."""
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("search bounds must be finite")
    if a > b:
        raise ValidationError("the lower search bound exceeds the upper one")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(func, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * ((xm > xf) - (xm < xf) + (xm == xf))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + ((rat > 0.0) - (rat < 0.0) + (rat == 0.0)) * max(abs(rat), tol1)
        fu = _value(func, x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXITER:
            return xf, fx, False
    return xf, fx, True


_BRENTQ_RTOL = 4 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100


def brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb], whose ends f must give opposite signs, to
    within xtol + 4 eps |root|, by inverse quadratic interpolation, secant
    and bisection steps."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValidationError("the function must change sign between the bracket ends")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise ValidationError(f"the root search did not converge in {_BRENTQ_MAXITER} iterations")


_SPENCE_A = (
    4.65128586073990045278e-5, 7.31589045238094711071e-3, 1.33847639578309018650e-1,
    8.79691311754530315341e-1, 2.71149851196553469920e0, 4.25697156008121755724e0,
    3.29771340985225106936e0, 1.00000000000000000126e0,
)
_SPENCE_B = (
    6.90990488912553276999e-4, 2.54043763932544379113e-2, 2.82974860602568089943e-1,
    1.41172597751831069617e0, 3.63800533345137075418e0, 5.03278880143316990390e0,
    3.54771340985225096217e0, 9.99999999999999998740e-1,
)


def spence(x: float) -> float:
    """The dilogarithm -int_1^x log(t) / (t - 1) dt, so Li_2(z) = spence(1 - z);
    NaN outside [0, inf), as in SciPy."""
    if not 0.0 <= x < math.inf:
        return math.nan
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return math.pi * math.pi / 6.0
    flag = 0
    if x > 2.0:
        x = 1.0 / x
        flag |= 2
    if x > 1.5:
        w = (1.0 / x) - 1.0
        flag |= 2
    elif x < 0.5:
        w = -x
        flag |= 1
    else:
        w = x - 1.0
    y = -w * _horner(w, _SPENCE_A) / _horner(w, _SPENCE_B)
    if flag & 1:
        y = (math.pi * math.pi) / 6.0 - math.log(x) * math.log(1.0 - x) - y
    if flag & 2:
        z = math.log(x)
        y = -0.5 * z * z - y
    return y
