"""Configuration file loading and defaults for the CLI.

Precedence per setting: command-line flag > environment variable >
config file > built-in default. The config file is a flat JSON object;
unknown keys are rejected so typos fail loudly. `load_config` does not
use `model.load_document`: a config file has no `schema_version`, and
its errors are `ConfigError`s.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import ConfigError
from .model import DeviceProfile, Record, valid_device_node

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


#: Settings that may be unset (None) or given, but never empty.
_NON_EMPTY = ("out_dir", "bridge_path", "agent_path", "device_serial",
              "noise_preset", "remote_dir")


class Config(Record):
    """The settings of one run: `__init__`'s parameters, with their
    defaults and the types `validate` accepts."""

    def __init__(
        self,
        bridge_path: str = "adb",
        device_serial: str | None = None,
        agent_path: str | None = None,
        remote_dir: str = "/data/local/tmp",
        device_node: str = "/dev/input/event2",
        noise_preset: str = "clean",
        seed: int = 0,
        out_dir: str = "out",
        min_confidence: float = 0.7,
        extended_alphabet: bool = False,
        duration_based_cutoff: bool = False,
    ):
        self.bridge_path = bridge_path
        self.device_serial = device_serial
        self.agent_path = agent_path
        self.remote_dir = remote_dir
        self.device_node = device_node
        self.noise_preset = noise_preset
        self.seed = seed
        self.out_dir = out_dir
        self.min_confidence = min_confidence
        self.extended_alphabet = extended_alphabet
        self.duration_based_cutoff = duration_based_cutoff

    #: Setting -> the text of its annotated type.
    _types = __init__.__annotations__
    _fields = tuple(_types)

    def validate(self) -> None:
        """Raise ConfigError unless every setting has its field's type,
        `min_confidence` is a finite number in [0, 1], no path, serial
        or preset name is empty and `device_node` can head a script log
        line."""
        for name, type_text in self._types.items():
            value = getattr(self, name)
            allowed = _FIELD_TYPES[type_text]
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                raise ConfigError(
                    f"config value {name!r} must be {type_text}, got {value!r}"
                )
        # The range check is false for NaN and the infinities too.
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be a finite number in [0, 1], "
                f"got {self.min_confidence!r}"
            )
        for name in _NON_EMPTY:
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")
        if not valid_device_node(self.device_node):
            raise ConfigError(
                f"device_node must be non-empty ASCII without whitespace, "
                f"got {self.device_node!r}"
            )


def load_config(path: str | None) -> Config:
    """Build a Config from an optional JSON file plus the environment."""
    config = Config()
    if path is not None:
        try:
            doc = json.loads(read_file("--config", path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in doc.items():
            if key not in Config._types:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, key, value)
    if ENV_BRIDGE in os.environ:
        config.bridge_path = os.environ[ENV_BRIDGE]
    if ENV_OUT_DIR in os.environ:
        config.out_dir = os.environ[ENV_OUT_DIR]
    config.validate()
    return config


def read_file(flag: str, path: str, text: bool = True) -> str | bytes:
    """The file that command-line flag `flag` names, as UTF-8 text or,
    if `text` is false, as bytes. Raises ConfigError naming the flag
    and the path when the file cannot be read or decoded."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8") if text else data
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{flag} {path}: {exc}") from exc
