"""Exception hierarchy shared across the package."""


class PocError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PocError):
    """A delimited-text cell could not be parsed (message names the line),
    or the input could not be read (message names the path or the byte)."""


class SchemaError(PocError):
    """A declared role column is missing or the role mapping is inconsistent."""


class ConfigError(PocError):
    """A config document cannot be read or has the wrong shape: a value of
    the wrong type or a missing key."""


class EmptyDataError(PocError):
    """The input table contains a header but no data rows."""


class PositivityError(PocError):
    """A conditioning cell (treatment level, mediator level, or covariate
    stratum) contains no observations, so a conditional frequency is
    undefined.  Every identification formula presumes positive support,
    hence this is a hard error rather than a silent zero."""


class InvalidEvidenceError(PocError):
    """An evidence record or a query is malformed (a NaN or infinite number,
    an empty interval, a wrong field combination)."""


class UnsupportedSpecError(PocError):
    """An exact computation was requested on a structural model that is not
    expressed through threshold (step-function) nodes."""


class ConditioningError(PocError):
    """The conditioning event has zero probability under the model."""


class BootstrapFailureError(PocError):
    """Every bootstrap replicate was degenerate; no interval can be formed."""


class AssumptionError(PocError):
    """An operation requires an assumption the caller has not asserted."""
