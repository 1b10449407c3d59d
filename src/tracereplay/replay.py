"""Push the runnable script and replay agent to a device and execute.

The transport is an abstraction over the platform debug bridge so the
driver is fully testable without hardware: `BridgeTransport` shells out
to the bridge binary, `MockTransport` records every call in memory.
"""

from __future__ import annotations

import shlex
import time
from pathlib import Path
from typing import NamedTuple

from .codegen import parse_runnable, validate_events
from .config import Config
from .errors import ConfigError, NonZeroExit, TransportError
from .model import Frozen

#: File names the agent and the script get in the remote directory.
AGENT_NAME = "replay-agent"
SCRIPT_NAME = "scenario.bin"


class TransportCall(NamedTuple):
    """One logged transport invocation (op is 'push' or 'exec')."""

    op: str
    argument: str


class DeviceTransport:
    """Push files to and run commands on a target device."""

    def __init__(self):
        self.calls: list[TransportCall] = []

    def push(self, data: bytes, remote_path: str) -> None:
        raise NotImplementedError

    def exec(self, command: str) -> tuple[int, str]:
        raise NotImplementedError


class MockTransport(DeviceTransport):
    """In-memory transport that records calls for assertions; every
    push succeeds and every command exits 0."""

    def __init__(self):
        super().__init__()
        self.pushed: dict[str, bytes] = {}

    def push(self, data: bytes, remote_path: str) -> None:
        self.calls.append(TransportCall("push", remote_path))
        self.pushed[remote_path] = data

    def exec(self, command: str) -> tuple[int, str]:
        self.calls.append(TransportCall("exec", command))
        return 0, ""


class BridgeTransport(DeviceTransport):
    """Transport backed by the debug-bridge executable (adb-compatible).
    `bridge_path` must be a non-empty string and `serial` None or one;
    the constructor raises ConfigError otherwise.

    `subprocess` and `tempfile` are imported by the calls that use them,
    so that a dry run never loads them.
    """

    def __init__(self, bridge_path: str = Config.bridge_path,
                 serial: str | None = None):
        _setting("bridge_path", bridge_path)
        if serial is not None:
            _setting("serial", serial, "str | None")
        super().__init__()
        self.bridge_path = bridge_path
        self.serial = serial

    def push(self, data: bytes, remote_path: str) -> None:
        import tempfile

        self.calls.append(TransportCall("push", remote_path))
        with tempfile.NamedTemporaryFile() as tmp:
            tmp.write(data)
            tmp.flush()
            proc = self._run("push", tmp.name, remote_path)
        if proc.returncode != 0:
            # The temporary file is gone by now: name the data by its size.
            args = [*proc.args[:-2], f"<{len(data)} bytes>", remote_path]
            message = f"{' '.join(args)} exited {proc.returncode}"
            stderr = proc.stderr.strip()
            raise TransportError(f"{message}: {stderr}" if stderr else message)

    def exec(self, command: str) -> tuple[int, str]:
        self.calls.append(TransportCall("exec", command))
        proc = self._run("shell", command)
        return proc.returncode, proc.stdout + proc.stderr

    def _run(self, *args: str):
        """The finished bridge process for `args`, after `-s SERIAL` when
        a serial is set, its output captured as text."""
        import subprocess

        serial = ["-s", self.serial] if self.serial else []
        try:
            return subprocess.run(
                [self.bridge_path, *serial, *args], capture_output=True, text=True
            )
        except OSError as exc:
            raise TransportError(f"cannot run bridge binary: {exc}") from exc


def _setting(name: str, value, type_text: str = "str") -> None:
    """Raise ConfigError, in `Config`'s words, unless `value` is a non-empty str."""
    if not isinstance(value, str):
        raise ConfigError(f"config value {name!r} must be {type_text}, got {value!r}")
    if not value:
        raise ConfigError(f"{name} must not be empty")


class ReplayConfig(Frozen):
    """Where the agent lives locally and where artifacts land on device;
    the constructor raises ConfigError unless each is a non-empty str."""

    _fields = ("agent_path", "remote_dir")

    def __init__(self, agent_path: str, remote_dir: str = Config.remote_dir):
        _setting("agent_path", agent_path)
        _setting("remote_dir", remote_dir)
        self._set(agent_path, remote_dir)


class ReplayReport(NamedTuple):
    exit_code: int
    duration_ms: float
    transcript: tuple[TransportCall, ...]


def push_and_replay(
    script: bytes, transport: DeviceTransport, config: ReplayConfig
) -> ReplayReport:
    """Validate, push, and execute a runnable script on the device.

    The runnable is parsed and checked by `validate_events` (positions
    within i32: it carries no profile) and the agent binary read before
    any transport call happens; `config` checked its paths when it was
    built. The device shell gets each remote path quoted. Raises
    TransportError on push/exec failure and NonZeroExit when the agent
    reports failure.
    """
    validate_events(parse_runnable(script))  # raises ScriptFormatError
    agent_file = Path(config.agent_path)
    if not agent_file.is_file():
        raise ConfigError(f"replay agent not found: {config.agent_path}")
    agent_bytes = agent_file.read_bytes()

    remote_agent = f"{config.remote_dir.rstrip('/')}/{AGENT_NAME}"
    remote_script = f"{config.remote_dir.rstrip('/')}/{SCRIPT_NAME}"
    first_call = len(transport.calls)

    start = time.perf_counter()
    transport.push(agent_bytes, remote_agent)
    transport.push(script, remote_script)
    agent, script_path = shlex.quote(remote_agent), shlex.quote(remote_script)
    exit_code, output = transport.exec(f"chmod 755 {agent} && {agent} {script_path}")
    duration_ms = (time.perf_counter() - start) * 1000.0

    if exit_code != 0:
        raise NonZeroExit(exit_code, output)
    return ReplayReport(exit_code, duration_ms, tuple(transport.calls[first_call:]))
