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
from dataclasses import dataclass, fields
from pathlib import Path

from .codegen import valid_device_node
from .errors import ConfigError
from .model import DeviceProfile

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


@dataclass
class Config:
    bridge_path: str = "adb"
    device_serial: str | None = None
    agent_path: str | None = None
    remote_dir: str = "/data/local/tmp"
    device_node: str = "/dev/input/event2"
    noise_preset: str = "clean"
    seed: int = 0
    out_dir: str = "out"
    min_confidence: float = 0.7
    extended_alphabet: bool = False
    duration_based_cutoff: bool = False

    def validate(self) -> None:
        """Raise ConfigError unless every setting has its field's type,
        `min_confidence` is a finite number in [0, 1], no path, serial
        or preset name is empty and `device_node` can head a script log
        line."""
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = _FIELD_TYPES[f.type]
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                raise ConfigError(
                    f"config value {f.name!r} must be {f.type}, got {value!r}"
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
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(Config)}
        for key, value in doc.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, key, value)
    if ENV_BRIDGE in os.environ:
        config.bridge_path = os.environ[ENV_BRIDGE]
    if ENV_OUT_DIR in os.environ:
        config.out_dir = os.environ[ENV_OUT_DIR]
    config.validate()
    return config
