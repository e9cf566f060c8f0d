"""Exception taxonomy shared across the library and the CLI exit codes."""

import dataclasses


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


def refuse_unread(cfg, mode: str, *names: str) -> None:
    """Refuse a non-default value in a field of dataclass `cfg` that `mode`
    never reads, since it would have no effect; defaults stay accepted."""
    for f in dataclasses.fields(cfg):
        if f.name in names and getattr(cfg, f.name) != f.default:
            raise ConfigError(f"{f.name} is not read {mode}; got {getattr(cfg, f.name)!r}")
