"""Reading JSON config objects: values checked against types, and dataclasses
built from config objects with the echo of the values used. Every error
names the full key path."""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import ConfigurationError

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
               dict: "an object", list: "a list", tuple: "a list"}


def check(value, want, path: str):
    """`value` read as the type `want`, else a ConfigurationError naming `path`.

    `float` takes any finite non-bool number (JSON's NaN and Infinity are
    refused), `int` a non-bool int, `tuple[T, ...]` a list of T, a schema
    dict an object (see `read`), and null is allowed only where `want` is
    `T | None`.
    """
    if isinstance(want, dict):
        return read(value, want, path + ".")
    if typing.get_origin(want) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(want):
            return None
        want = next(t for t in typing.get_args(want) if t is not type(None))
    kind = typing.get_origin(want) or want
    accepted = (int, float) if kind is float else list if kind is tuple else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        got = "null" if value is None else type(value).__name__
        raise ConfigurationError(f"config key {path} must be {_TYPE_NAMES[kind]}, got {got}")
    if kind is float:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigurationError(f"config key {path} must be a finite number, got {number}")
        return number
    if kind is tuple:
        item = typing.get_args(want)[0]
        return tuple(check(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    return value


def read(node, schema: dict, path: str) -> dict:
    """The config object `node` at key path `path`, every entry checked
    against `schema` (key -> type, see `check`)."""
    if not isinstance(node, dict):
        raise ConfigurationError(f"config key {path.rstrip('.') or '<root>'} must be an object")
    for key in node:
        if key not in schema:
            raise ConfigurationError(f"unknown config key {path}{key}")
    return {key: check(value, schema[key], path + key) for key, value in node.items()}


def require(cfg: dict, key: str, context: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigurationError(f"missing config key {context}{key}")
    return cfg[key]


def from_config(cls, node, path: str, defaults: dict | None = None,
                keys: dict | None = None, **given):
    """The dataclass `cls` built from the config object `node` at key path
    `path`, with the echo of the values it was built from.

    The keys are the fields of `cls` less those the caller sets in `given`,
    renamed where `keys` (field -> key) says so; each value is checked
    against its field's annotation (see `check`). An absent key takes its
    entry in `defaults`, called with the other values when it is a function,
    or else the field's default; a field with neither is required.
    """
    hints = typing.get_type_hints(cls)
    fields = {(keys or {}).get(f.name, f.name): f for f in dataclasses.fields(cls)
              if f.init and f.name not in given}
    values = read(node, {key: hints[f.name] for key, f in fields.items()}, path)
    derived = {}
    for key, f in fields.items():
        if key not in values:
            default = (defaults or {}).get(key, f.default)
            if default is dataclasses.MISSING:
                raise ConfigurationError(f"missing config key {path}{key}")
            (derived if callable(default) else values)[key] = default
    values.update({key: fn(values) for key, fn in derived.items()})
    return cls(**{fields[key].name: v for key, v in values.items()}, **given), values
