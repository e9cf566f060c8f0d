"""Exception taxonomy shared across the library and the CLI exit codes."""

import dataclasses
import math


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


# Range rules for `require`: the phrase a refusal states, and its test,
# written as a comparison that NaN fails.
RULES = {
    "be positive": lambda x: x > 0,
    "be >= 0": lambda x: x >= 0,
    "be >= 1": lambda x: x >= 1,
    "exceed 1": lambda x: x > 1,
    "be in (0, 1)": lambda x: 0 < x < 1,
    "lie in [0, 1)": lambda x: 0 <= x < 1,
    "lie in [0, 1]": lambda x: 0 <= x <= 1,
    "be finite": lambda x: abs(x) < math.inf,
}


def require(cfg, rule: str, *names: str) -> None:
    """Refuse a field of `cfg` among `names` whose value is a non-finite
    float or breaks `rule`, a phrase of `RULES`; the refusal names the
    field and its value."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if not RULES[rule](value):
            raise ConfigError(f"{name} must {rule}, got {value}")
