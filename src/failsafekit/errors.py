"""Exception hierarchy shared across the package, the checks of numeric
inputs that raise it, and their JSON-ready form.  Every public numeric
argument goes through ``real_number`` or ``real_array`` (an evaluator's
points through ``point_array``, its kernel through ``evaluate``).  A domain
is an ``(ok, rule)`` pair: a test that fails at NaN (elementwise on an array)
and its text.  ``real_number`` and ``point_array`` refuse a value outside as
"<what> must <rule>, got <value>", by ``shown``; shared pairs are kept here."""

import contextlib
import math
import numbers
import reprlib

import numpy as np

#: Entries of the largest float64 array numpy can index (2**63 - 1 bytes on 64-bit).
FLOAT_ARRAY_MAX = np.iinfo(np.intp).max // np.dtype(float).itemsize
#: Entry types that ``real_array`` converts in one numpy call: of a flat list, of any list.
_FLOATS, _NUMBERS = frozenset({float, np.float64}), frozenset({float, np.float64, int})


class FailsafeKitError(Exception):
    """Base class for all package errors."""


class ValidationError(FailsafeKitError):
    """Bad input: out-of-range parameter, malformed spec, mismatched grids."""


class UnsupportedGeneratorError(FailsafeKitError):
    """The requested generator has no frailty sampler in float64.

    Sampling is a declared limitation for generators that are not
    completely monotone (gumbel_barnett, gumbel_hougaard, amh with
    negative dependence) and for clayton, gumbel and frank above
    ``mcsim.THETA_MAX``; the analytic survival path still covers them.
    ``mcsim._refusal`` alone decides it, before any draw.
    """


class InconsistencyError(FailsafeKitError):
    """Hypotheses of a comparison result verified, but grid dominance failed.

    This is the audit trip-wire: verifiers never trust hypotheses alone,
    they confirm dominance numerically and escalate disagreement.  The
    offending report is attached as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class _Display(reprlib.Repr):
    """A value as a refusal shows it, with ``reprlib.repr``'s bounds: whole
    when short, a long list by its first entries, a long text by its ends
    (past ``maxstring`` characters).  An int that ``str`` may refuse (past
    640 digits, 4300 by default) is shown by its size, and the whole is cut
    to its ends past 120 characters, as nesting multiplies reprlib's
    bounds.  Never raises."""

    def __init__(self, maxstring: int):
        super().__init__()
        self.maxstring = maxstring

    def repr(self, x):
        s = super().repr(x)
        return s if len(s) <= 120 else s[:58] + self.fillvalue + s[-59:]

    def repr_int(self, x, level):
        if x.bit_length() > 2000:  # about 602 digits
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


#: shown(value) -> str: value as every refusal of the package shows it (see ``_Display``);
#: shown_path(path) -> str: a file's path, whole up to the 120 characters of a whole display.
shown, shown_path = _Display(30).repr, _Display(120).repr


def is_number(value) -> bool:
    """Whether value is a real number: a Python or numpy int or float, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: The (ok, rule) domains of more than one module (see the module docstring).
NONNEGATIVE = (lambda v: v >= 0.0, "be nonnegative")
POSITIVE_FINITE = (lambda v: (v > 0.0) & (v < math.inf), "be positive and finite")
OPEN_UNIT = (lambda v: (v > 0.0) & (v < 1.0), "lie in (0, 1)")


def real_number(value, what: str, ok=None, rule: str = "") -> float:
    """value as a Python float, when ``is_number(value)`` and it passes the
    domain test ``ok``, if given.  Anything else (a string, None, a bool, a
    list) is a ValidationError naming ``what`` and showing the value (see
    ``shown``), as the JSON schemas type these fields "number".  An int too
    large for a float is judged as the infinity of its sign."""
    if not isinstance(value, float) and not is_number(value):  # a float skips the ABC check
        raise ValidationError(f"{what} must be a number, got {shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if ok is not None and not ok(number):
        raise ValidationError(f"{what} must {rule}, got {shown(plain_number(value))}")
    return number


def real_array(value, what: str) -> np.ndarray:
    """value as a float64 array, when it is a number (see ``real_number``), a
    list, tuple or ndarray of numbers, nested lists and tuples too, or what
    numpy reads as one (a range, a buffer, an object with ``__array__``).
    Anything else, such as text, a bool or None at any depth, a ragged row,
    a set or a generator, is a ValidationError naming ``what``, the name of
    one entry.  A float64 ndarray comes back uncopied."""
    if type(value) is np.ndarray and value.dtype == float:  # verify's grids, past the dispatch below
        return value
    if not isinstance(value, (list, tuple)):
        value = np.asarray(value)
        if value.dtype.kind in "fiu":
            return value.astype(float, copy=False)
    elif _FLOATS.issuperset(map(type, value)):  # a flat list of floats
        return np.array(value, dtype=float)
    # entry by entry, as numpy reads a bool among numbers as 0 or 1; a ragged row is one entry
    try:
        entries = np.array(value, dtype=object)
    except ValueError:  # arrays whose shapes differ past their first axis
        raise ValidationError(f"{what} must be a number, got {shown(value)}") from None
    flat = entries.ravel().tolist()
    with contextlib.suppress(OverflowError):  # an int beyond float range: ±inf below
        if _NUMBERS.issuperset(map(type, flat)):
            return entries.astype(float)
    return np.array([real_number(v, what) for v in flat], dtype=float).reshape(entries.shape)


def point_array(value, what: str, ok=None, rule: str = "not be NaN") -> np.ndarray:
    """A public evaluator's points: value as a float64 array (see ``real_array``),
    0-d for a number, unless an entry is NaN or fails the domain test ``ok``:
    a ValidationError "<what> must <rule>, got <the first such entry>", shown
    as the caller gave it (an int too large for a float is judged as ±inf)."""
    arr = real_array(value, what)
    good = ~np.isnan(arr) if ok is None else ok(arr)
    if not good.all():
        entry = np.array(value, dtype=object).ravel()[np.argmin(good)]
        raise ValidationError(f"{what} must {rule}, got {shown(plain_number(entry))}")
    return arr


def evaluate(kernel, *args):
    """kernel(*args) under the evaluators' one ``np.errstate(all="ignore")``.  Each ndarray
    in args, a checked point or theta, goes in at least 1-d, so a number rounds as in a batch
    (numpy's ``**`` on 0-d is libm's pow); the result is out[0] as a float if all were 0-d."""
    with np.errstate(all="ignore"):
        out = kernel(*(np.atleast_1d(a) if isinstance(a, np.ndarray) else a for a in args))
    return out if any(a.ndim for a in args if isinstance(a, np.ndarray)) else float(out[0])


def whole_number(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as a Python int, when it is an integer from ``minimum`` to
    ``maximum``: a Python or numpy int, or a float of integral value (a JSON
    Schema integer, as 3.0), not a bool.  Anything else is a ValidationError
    naming ``what`` and showing the value (see ``shown``).  A count of
    array entries takes ``FLOAT_ARRAY_MAX`` as its maximum."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {shown(value)}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{what} must be at least {minimum}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{what} must be at most {maximum}, got {shown(value)}")
    return value


def plain_number(value):
    """value, or the equal Python number of a numpy scalar, which json
    cannot write; a spec echoes any other value as given."""
    return value.item() if isinstance(value, np.generic) else value
