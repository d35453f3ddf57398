"""Exception types shared across the package, and the JSON type check that raises ConfigError.

The CLI maps these onto process exit codes: configuration problems exit 2,
infeasible hardware or size limits exit 3, numeric failures exit 4.
"""

import json
import typing


class MixbitError(Exception):
    """Base class for package errors."""


class ConfigError(MixbitError):
    """Invalid configuration value; the message carries the field path."""


class ShapeMismatchError(MixbitError):
    """Tensor shapes do not compose."""


class UnsupportedLayerError(MixbitError):
    """Layer kind outside the supported set, or a model missing a required kind."""


class ModelFormatError(MixbitError):
    """Malformed model manifest or weight blob."""


class NumericFailureError(MixbitError):
    """Non-finite value produced during computation."""

    def __init__(self, message: str, layer_index: int | None = None):
        super().__init__(message)
        self.layer_index = layer_index


class DivergenceError(MixbitError):
    """Gradient descent diverged; retry with a smaller learning rate."""


class InfeasibleHardwareError(MixbitError):
    """On-chip memory cannot host even the smallest tile."""


class InfeasiblePlanError(MixbitError):
    """Size limit below the smallest achievable model size."""


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


def checked(value, hint, where: str):
    """value if its JSON type matches the type hint, else ConfigError naming `where`.

    hint is int, float, str or list, optionally `| None`. bool is not an int,
    and an int widens to float where a float is expected.
    """
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value
