"""Configuration file loading and defaults for the CLI.

Precedence per setting: command-line flag > environment variable >
config file > built-in default. The config file is a flat JSON object;
unknown keys are rejected so typos fail loudly. `load_config` merges
the sources and builds one immutable `Config`, which checks them once.
It decodes the file with `model.decode_json`, not `model.load_document`:
a config file has no `schema_version`, and its errors are `ConfigError`s.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError, SchemaViolation
from .model import (
    DEFAULT_DEVICE_NODE, MIN_CONFIDENCE, DeviceProfile, Frozen, Rules, decode_json,
    valid_device_node,
)

ENV_BRIDGE = "TRACEREPLAY_BRIDGE"
ENV_OUT_DIR = "TRACEREPLAY_OUT_DIR"

#: The synthetic generator's screens (scripts, benchmark); not a setting.
DEVICE_PRESETS = {
    "nexus5": DeviceProfile(name="nexus5", screen_width=1080,
                            screen_height=1920, fps=30),
    "nexus6p": DeviceProfile(name="nexus6p", screen_width=1440,
                             screen_height=2560, fps=30),
}

#: Accepted value types per field annotation; bool is never a number.
_FIELD_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
}


class Config(Frozen):
    """The settings of one run: the annotated attributes below, with
    their defaults. The constructor takes settings by name, leaves the
    rest at their defaults and raises ConfigError for an unknown setting,
    a value not of its setting's type, a `min_confidence` or
    `duration_based_cutoff` that `model.Rules` rejects, a `device_node`
    that cannot head a script log line, or any other empty string.
    `rules`, their `Rules` built once, is no setting. `min_confidence`
    and `device_node` default to `model`'s constants; `replay` reads
    its defaults of `remote_dir` and `bridge_path` from here."""

    bridge_path: str = "adb"
    device_serial: str | None = None
    agent_path: str | None = None
    remote_dir: str = "/data/local/tmp"
    device_node: str = DEFAULT_DEVICE_NODE
    noise_preset: str = "clean"
    seed: int = 0
    out_dir: str = "out"
    min_confidence: float = MIN_CONFIDENCE
    extended_alphabet: bool = False
    duration_based_cutoff: bool = False

    #: Setting -> the text of its annotated type.
    _types = __annotations__
    _fields = tuple(_types)

    def __init__(self, /, **settings):
        self._set(*[settings.pop(name, getattr(self, name)) for name in self._fields])
        if settings:  # what is left names no setting
            raise ConfigError(f"unknown config key {next(iter(settings))!r}")
        for name, type_text in self._types.items():
            value = getattr(self, name)
            allowed = _FIELD_TYPES[type_text]
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                raise ConfigError(
                    f"config value {name!r} must be {type_text}, got {value!r}"
                )
        try:
            rules = Rules(self.min_confidence, self.duration_based_cutoff)
        except SchemaViolation as exc:
            raise ConfigError(str(exc)) from None
        if not valid_device_node(self.device_node):
            raise ConfigError(
                f"device_node must be non-empty ASCII without whitespace, "
                f"got {self.device_node!r}"
            )
        for name in self._fields:
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")
        self._set(rules=rules)


def load_config(path: str | None, flags: dict | None = None) -> Config:
    """The `Config` of the JSON object in the file at `path` (if given),
    the environment and `flags` (setting -> value), each overriding the one before."""
    settings = {}
    if path is not None:
        settings = decode_json(read_file("--config", path), ConfigError,
                               "config is not valid JSON")
        if not isinstance(settings, dict):
            raise ConfigError("config must be a JSON object")
    if ENV_BRIDGE in os.environ:
        settings["bridge_path"] = os.environ[ENV_BRIDGE]
    if ENV_OUT_DIR in os.environ:
        settings["out_dir"] = os.environ[ENV_OUT_DIR]
    settings.update(flags or {})
    return Config(**settings)


def read_file(flag: str, path: str, text: bool = True) -> str | bytes:
    """The file that command-line flag `flag` names, as UTF-8 text or,
    if `text` is false, as bytes. Raises ConfigError naming the flag
    and the path when the file cannot be read or decoded."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8") if text else data
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{flag} {path}: {exc}") from exc
