"""Exception types shared across the package, and the checked JSON reader that raises ConfigError.

The CLI maps these onto process exit codes: configuration problems exit 2,
infeasible hardware or size limits exit 3, numeric failures exit 4.
"""

import dataclasses
import functools
import json
import typing


class MixbitError(Exception):
    """Base class for package errors."""


class ConfigError(MixbitError):
    """Invalid configuration value; the message carries the field path."""


class RangeError(ConfigError):
    """A value that its config section's own check refuses.

    The message is a str.format template filled with values; each `{at}`
    in it marks where a key's section path goes. `build` fills it with the
    path it read the section under ("hardware.", or "config." in
    profile.json), and a dataclass built directly leaves it empty.
    """

    def __init__(self, template: str, *values):
        super().__init__(template.format(*values, at=""))
        self.template, self.values = template, values

    def under(self, path: str) -> ConfigError:
        return ConfigError(self.template.format(*self.values, at=path))


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


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list",
               dict: "an object"}


def checked(value, hint, where: str):
    """value if its JSON type matches the type hint, else ConfigError naming `where`.

    hint is int, float, str, bool, list, dict or a dataclass, optionally
    `| None`, or list[T]. A dataclass is read by `build` under `where.`, and
    the elements of a list[T] are each checked against T, under `where[i].`
    for a dataclass T and under the same `where` otherwise. bool is not an
    int, and an int widens to float where a float is expected. Any other
    hinted class, such as the weight arrays load_model merges into a layer's
    header, passes only a value of exactly that class.
    """
    if typing.get_origin(hint) is list:
        item = typing.get_args(hint)[0]
        items = checked(value, list, where)
        if dataclasses.is_dataclass(item):
            return [build(item, v, f"{where}[{i}].") for i, v in enumerate(items)]
        return [checked(v, item, where) for v in items]
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if dataclasses.is_dataclass(kind):
        return build(kind, value, f"{where}.")
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


# each class's field hints, evaluated once: a model load builds every layer
_type_hints = functools.cache(typing.get_type_hints)


def build(cls, doc, path: str = "", defaults: dict | None = None):
    """Dataclass cls from the JSON object doc, each value through `checked`; errors name path + key.

    A missing key takes defaults[key], else the field's default; without
    defaults, as for an artifact written with every key, it is an error. A
    RangeError from cls's own checks is raised with path as its keys' prefix.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path.rstrip('.')}: must be a JSON object, got {json.dumps(doc)}")
    hints = _type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    for key in doc:
        if key not in names:
            raise ConfigError(f"{path}{key}: unknown key")
    kwargs = {}
    for name in names:
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = build(hints[name], doc.get(name, {}), f"{path}{name}.", defaults and defaults.get(name, {}))
        elif name in doc:
            kwargs[name] = checked(doc[name], hints[name], f"{path}{name}")
        elif defaults is None:
            raise ConfigError(f"{path}{name}: missing key")
        elif name in defaults:
            kwargs[name] = defaults[name]
    try:
        return cls(**kwargs)
    except RangeError as exc:
        raise exc.under(path) from None
