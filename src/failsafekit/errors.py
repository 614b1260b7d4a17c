"""Exception hierarchy shared across the package."""


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
