"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input/configuration problems exit 2,
numerically degenerate data exits 3.
"""


class TsalError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TsalError):
    """Invalid configuration value (negative weight, bad factor, ...)."""


class ShapeMismatchError(TsalError):
    """Operands have incompatible shapes."""


class NonFiniteError(TsalError):
    """A tensor or map contains NaN or Inf."""


class FormatError(TsalError):
    """A data file (JSONL, CSV, map binary) is malformed."""


class GraphError(TsalError):
    """Invalid use of the autodiff tape (non-scalar loss, foreign node, ...)."""


class PreconditionError(TsalError):
    """An operation's stated precondition does not hold for the given data."""


class DegenerateMapError(TsalError):
    """A map is constant, all-zero, or otherwise unusable for the metric."""


class UnrecoverableObserverError(TsalError):
    """An observer has fixations but no gaze samples to recover time from."""


class CheckpointError(TsalError):
    """A parameter checkpoint is malformed or incompatible."""
