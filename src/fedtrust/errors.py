"""Exception taxonomy shared by all modules.

Each exception class carries the process exit code the CLI maps it to:
0 ok, 2 configuration error, 3 data error, 4 numeric error, 5 output error.
"""


class FedTrustError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(FedTrustError):
    """Invalid configuration: bad shapes, thresholds, option values."""

    exit_code = 2


class InputError(ConfigError):
    """A call violated an operation precondition (dimension mismatch etc.)."""


class DataError(FedTrustError):
    """External data could not be read or parsed."""

    exit_code = 3


class SchemaError(DataError):
    """A declared CSV column role is missing or unusable."""


class NumericError(FedTrustError):
    """A computation produced non-finite values."""

    exit_code = 4


class OutputError(FedTrustError):
    """An output file or directory could not be written."""

    exit_code = 5


class MetricUndefinedError(FedTrustError):
    """A metric has no defined value on the given model/test set.

    Raised e.g. when the fairness gap is requested on a one-sided group or
    when no test sample is correctly classified. Callers decide whether to
    propagate or substitute a fallback value.
    """

    exit_code = 3
