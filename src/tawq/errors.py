"""Exception taxonomy shared across the library and the CLI exit codes."""


class TawqError(Exception):
    """Base class for all library errors."""


class ConfigError(TawqError):
    """Invalid run configuration or hyperparameter (CLI exit code 2)."""


class DataError(TawqError):
    """Bad dataset, input file, or shape mismatch (CLI exit code 3)."""


class NumericError(TawqError):
    """Non-finite value encountered during computation (CLI exit code 4)."""


class ShapeError(DataError):
    """Tensor shape incompatible with the operation."""


class StateError(DataError):
    """Required forward trace or checkpoint section is missing."""
