"""Push the runnable script and replay agent to a device and execute.

The transport is an abstraction over the platform debug bridge so the
driver is fully testable without hardware: `BridgeTransport` shells out
to the bridge binary, `MockTransport` records every call in memory.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .codegen import parse_runnable
from .errors import ConfigError, NonZeroExit, TransportError

#: File names the agent and the script get in the remote directory.
AGENT_NAME = "replay-agent"
SCRIPT_NAME = "scenario.bin"


@dataclass(frozen=True)
class TransportCall:
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
    """In-memory transport that records calls for assertions."""

    def __init__(
        self,
        exec_results: list[tuple[int, str]] | None = None,
        fail_on_push: bool = False,
        fail_on_exec: bool = False,
    ):
        super().__init__()
        self.pushed: dict[str, bytes] = {}
        self.exec_results = list(exec_results or [])
        self.fail_on_push = fail_on_push
        self.fail_on_exec = fail_on_exec

    def push(self, data: bytes, remote_path: str) -> None:
        self.calls.append(TransportCall("push", remote_path))
        if self.fail_on_push:
            raise TransportError(f"push to {remote_path} failed")
        self.pushed[remote_path] = data

    def exec(self, command: str) -> tuple[int, str]:
        self.calls.append(TransportCall("exec", command))
        if self.fail_on_exec:
            raise TransportError(f"exec {command!r} failed")
        if self.exec_results:
            return self.exec_results.pop(0)
        return 0, ""


class BridgeTransport(DeviceTransport):
    """Transport backed by the debug-bridge executable (adb-compatible)."""

    def __init__(self, bridge_path: str = "adb", serial: str | None = None):
        super().__init__()
        self.bridge_path = bridge_path
        self.serial = serial

    def _base(self) -> list[str]:
        cmd = [self.bridge_path]
        if self.serial:
            cmd += ["-s", self.serial]
        return cmd

    def push(self, data: bytes, remote_path: str) -> None:
        self.calls.append(TransportCall("push", remote_path))
        with tempfile.NamedTemporaryFile() as tmp:
            tmp.write(data)
            tmp.flush()
            self._run(self._base() + ["push", tmp.name, remote_path])

    def exec(self, command: str) -> tuple[int, str]:
        self.calls.append(TransportCall("exec", command))
        try:
            proc = subprocess.run(
                self._base() + ["shell", command],
                capture_output=True,
                text=True,
            )
        except OSError as exc:
            raise TransportError(f"cannot run bridge binary: {exc}") from exc
        return proc.returncode, proc.stdout + proc.stderr

    def _run(self, cmd: list[str]) -> None:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise TransportError(f"cannot run bridge binary: {exc}") from exc
        if proc.returncode != 0:
            raise TransportError(
                f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}"
            )


@dataclass
class ReplayConfig:
    """Where the agent lives locally and where artifacts land on device."""

    agent_path: str
    remote_dir: str = "/data/local/tmp"


@dataclass(frozen=True)
class ReplayReport:
    exit_code: int
    duration_ms: float
    transcript: tuple[TransportCall, ...]


def push_and_replay(
    script: bytes, transport: DeviceTransport, config: ReplayConfig
) -> ReplayReport:
    """Validate, push, and execute a runnable script on the device.

    The script is parsed, the remote directory checked and the agent
    binary read before any transport call happens. The device shell
    gets each remote path quoted. Raises TransportError on push/exec
    failure and NonZeroExit when the agent reports failure.
    """
    parse_runnable(script)  # raises ScriptFormatError before any transport call
    if not config.remote_dir:
        raise ConfigError("remote_dir must not be empty")
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

    transcript = tuple(transport.calls[first_call:])
    if exit_code != 0:
        error = NonZeroExit(exit_code, output)
        error.report = ReplayReport(exit_code, duration_ms, transcript)
        raise error
    return ReplayReport(exit_code, duration_ms, transcript)
