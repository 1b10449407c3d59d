import json
import re
import struct
import sys

import pytest

from tracereplay.classify import ClassifiedScenario, classify_action
from tracereplay.codegen import (
    ABS_MT_POSITION_X,
    ABS_MT_POSITION_Y,
    ABS_MT_TRACKING_ID,
    BTN_TOUCH,
    EV_ABS,
    EV_KEY,
    EV_SYN,
    RUNNABLE_MAGIC,
    SYN_REPORT,
    assemble_script,
    translate_runnable,
)
from tracereplay.errors import (
    ConfigError,
    NonZeroExit,
    ScriptFormatError,
    TransportError,
)
from tracereplay.replay import (
    BridgeTransport,
    MockTransport,
    ReplayConfig,
    push_and_replay,
)

from conftest import fake_bridge, make_sequence


class FailingPush(MockTransport):
    """A device that refuses every push."""

    def push(self, data, remote_path):
        super().push(data, remote_path)
        raise TransportError(f"push to {remote_path} failed")


class CrashingAgent(MockTransport):
    """A device whose replay agent exits 1."""

    def exec(self, command):
        super().exec(command)
        return 1, "segfault"


@pytest.fixture
def runnable(profile):
    action = classify_action(make_sequence(0, 5, 100, 100), profile)
    scenario = ClassifiedScenario(profile=profile, items=(action,))
    return translate_runnable(assemble_script(scenario))


@pytest.fixture
def agent(tmp_path):
    path = tmp_path / "replay-agent"
    path.write_bytes(b"\x7fELF fake agent")
    return str(path)


class TestPushAndReplay:
    def test_call_order(self, runnable, agent):
        transport = MockTransport()
        report = push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))
        ops = [(c.op, c.argument) for c in report.transcript]
        assert ops[0] == ("push", "/data/local/tmp/replay-agent")
        assert ops[1] == ("push", "/data/local/tmp/scenario.bin")
        assert ops[2] == ("exec", "chmod 755 /data/local/tmp/replay-agent && "
                          "/data/local/tmp/replay-agent /data/local/tmp/scenario.bin")
        assert len(ops) == 3
        assert report.exit_code == 0
        assert report.duration_ms >= 0

    def test_push_failure_propagates(self, runnable, agent):
        transport = FailingPush()
        with pytest.raises(TransportError):
            push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))

    def test_nonzero_exit(self, runnable, agent):
        transport = CrashingAgent()
        with pytest.raises(NonZeroExit) as err:
            push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))
        assert err.value.exit_code == 1
        assert err.value.output == "segfault"

    def test_validation_precedes_transport(self, agent):
        transport = MockTransport()
        with pytest.raises(ScriptFormatError):
            push_and_replay(b"not a script", transport,
                            ReplayConfig(agent_path=agent))
        assert transport.calls == []

    @pytest.mark.parametrize("records, message", [
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, -1), (0, EV_SYN, SYN_REPORT, 0)],
         "release on empty slot 0"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1),
          (0, EV_ABS, ABS_MT_TRACKING_ID, -1), (0, EV_SYN, SYN_REPORT, 0)],
         "BTN_TOUCH stale at 0us"),
        ([(0, 7, 0, 0), (0, EV_SYN, SYN_REPORT, 0)],
         "event (0, 7, 0, 0) outside the type-B vocabulary"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1),
          (0, EV_ABS, ABS_MT_TRACKING_ID, -1), (0, EV_KEY, BTN_TOUCH, 0)],
         "last window has no SYN_REPORT"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1),
          (0, EV_ABS, ABS_MT_POSITION_X, 5), (3, EV_ABS, ABS_MT_POSITION_Y, 5)],
         "window at 0us holds an event at 3us"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1),
          (0, EV_ABS, ABS_MT_POSITION_X, 5), (0, EV_ABS, ABS_MT_POSITION_X, 6)],
         "two positions in one window at 0us"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_KEY, BTN_TOUCH, 1),
          (0, EV_ABS, ABS_MT_POSITION_X, 5), (0, EV_SYN, SYN_REPORT, 0)],
         "half a position at 0us"),
        ([(0, EV_ABS, ABS_MT_TRACKING_ID, 1), (0, EV_SYN, SYN_REPORT, 0)],
         "BTN_TOUCH stale at 0us"),
    ], ids=["release-on-empty-slot", "button-left-down", "event-type-7",
            "no-closing-sync", "two-timestamps-in-a-window",
            "two-x-in-a-window", "x-without-y", "button-stale"])
    def test_bad_runnable_precedes_transport(self, agent, records, message):
        """A runnable whose framing is sound but whose events the script
        check rejects is never pushed."""
        runnable = RUNNABLE_MAGIC + b"".join(struct.pack("<IHHi", *r) for r in records)
        transport = MockTransport()
        with pytest.raises(ScriptFormatError, match=f"^{re.escape(message)}$"):
            push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))
        assert transport.calls == []

    def test_missing_agent_is_config_error(self, runnable):
        transport = MockTransport()
        with pytest.raises(ConfigError):
            push_and_replay(runnable, transport,
                            ReplayConfig(agent_path="/nope/agent"))
        assert transport.calls == []

    def test_idempotent_call_sequence(self, runnable, agent):
        transport = MockTransport()
        config = ReplayConfig(agent_path=agent)
        first = push_and_replay(runnable, transport, config)
        second = push_and_replay(runnable, transport, config)
        assert [c.op for c in first.transcript] == [c.op for c in second.transcript]
        assert [c.argument for c in first.transcript] == \
            [c.argument for c in second.transcript]

    def test_custom_remote_dir(self, runnable, agent):
        transport = MockTransport()
        config = ReplayConfig(agent_path=agent, remote_dir="/sdcard/tmp/")
        report = push_and_replay(runnable, transport, config)
        assert report.transcript[0].argument == "/sdcard/tmp/replay-agent"

    @pytest.mark.parametrize("remote_dir, command", [
        ("/data/my dir", "chmod 755 '/data/my dir/replay-agent' && "
         "'/data/my dir/replay-agent' '/data/my dir/scenario.bin'"),
        ("/tmp;reboot", "chmod 755 '/tmp;reboot/replay-agent' && "
         "'/tmp;reboot/replay-agent' '/tmp;reboot/scenario.bin'"),
    ], ids=["space", "semicolon"])
    def test_remote_paths_quoted_for_the_shell(self, runnable, agent,
                                               remote_dir, command):
        transport = MockTransport()
        config = ReplayConfig(agent_path=agent, remote_dir=remote_dir)
        push_and_replay(runnable, transport, config)
        assert transport.calls[2].op == "exec"
        assert transport.calls[2].argument == command

    def test_empty_remote_dir_is_config_error(self, runnable, agent):
        transport = MockTransport()
        with pytest.raises(ConfigError, match="remote_dir"):
            push_and_replay(runnable, transport,
                            ReplayConfig(agent_path=agent, remote_dir=""))
        assert transport.calls == []

    @pytest.mark.parametrize("fields, message", [
        (dict(agent_path=5), "config value 'agent_path' must be str, got 5"),
        (dict(agent_path=None), "config value 'agent_path' must be str, got None"),
        (dict(agent_path=""), "agent_path must not be empty"),
        (dict(remote_dir=5), "config value 'remote_dir' must be str, got 5"),
    ], ids=["int-agent", "none-agent", "empty-agent", "int-remote-dir"])
    def test_replay_config_checks_itself(self, runnable, agent, fields, message):
        transport = MockTransport()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            push_and_replay(runnable, transport,
                            ReplayConfig(**{"agent_path": agent, **fields}))
        assert transport.calls == []

    def test_script_of_another_type_precedes_transport(self, agent):
        transport = MockTransport()
        with pytest.raises(ScriptFormatError, match="^runnable must be bytes"):
            push_and_replay(None, transport, ReplayConfig(agent_path=agent))
        assert transport.calls == []

    def test_script_bytes_pushed_verbatim(self, runnable, agent):
        transport = MockTransport()
        push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))
        assert transport.pushed["/data/local/tmp/scenario.bin"] == runnable


class TestBridgeTransport:
    def test_serial_prefix_and_push_arguments(self, tmp_path):
        bridge, log = fake_bridge(tmp_path)
        transport = BridgeTransport(bridge_path=str(bridge), serial="emu-5554")
        transport.push(b"payload", "/data/local/tmp/x.bin")
        (argv,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert argv[:3] == ["-s", "emu-5554", "push"]
        assert argv[4] == "/data/local/tmp/x.bin"
        assert len(argv) == 5
        assert transport.calls == [("push", "/data/local/tmp/x.bin")]

    def test_no_serial_no_prefix(self, tmp_path):
        bridge, log = fake_bridge(tmp_path)
        BridgeTransport(bridge_path=str(bridge)).exec("true")
        assert json.loads(log.read_text()) == ["shell", "true"]

    def test_failing_push_names_command_and_stderr(self, tmp_path):
        bridge, _ = fake_bridge(tmp_path, push_code=1)
        transport = BridgeTransport(bridge_path=str(bridge), serial="emu-5554")
        with pytest.raises(TransportError) as err:
            transport.push(b"payload", "/data/local/tmp/x.bin")
        message = str(err.value)
        assert message.startswith(f"{bridge} -s emu-5554 push ")
        assert message.endswith(" /data/local/tmp/x.bin exited 1: push said no")

    def test_silent_failing_push_names_the_data_by_size(self, tmp_path):
        # A bridge that exits 1 and writes nothing: the message ends at the
        # exit status and names no temporary file, which is deleted by then.
        bridge = tmp_path / "silent-bridge"
        bridge.write_text(f"#!{sys.executable}\nimport sys\nsys.exit(1)\n")
        bridge.chmod(0o755)
        with pytest.raises(TransportError) as err:
            BridgeTransport(bridge_path=str(bridge)).push(b"payload", "/data/x.bin")
        assert str(err.value) == f"{bridge} push <7 bytes> /data/x.bin exited 1"

    def test_exec_returns_code_and_output_without_raising(self, tmp_path):
        bridge, _ = fake_bridge(tmp_path, shell_code=3)
        transport = BridgeTransport(bridge_path=str(bridge))
        assert transport.exec("ls") == (3, "shell out\nshell said no\n")

    def test_missing_binary_is_transport_error(self, tmp_path):
        transport = BridgeTransport(bridge_path=str(tmp_path / "absent"))
        for call in (lambda: transport.push(b"x", "/tmp/x"),
                     lambda: transport.exec("ls")):
            with pytest.raises(TransportError, match="^cannot run bridge binary: "):
                call()

    @pytest.mark.parametrize("fields, message", [
        (dict(bridge_path=5), "config value 'bridge_path' must be str, got 5"),
        (dict(bridge_path=""), "bridge_path must not be empty"),
        (dict(serial=5), "config value 'serial' must be str | None, got 5"),
        (dict(serial=""), "serial must not be empty"),
    ], ids=["int-bridge", "empty-bridge", "int-serial", "empty-serial"])
    def test_bad_setting_is_config_error(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BridgeTransport(**fields)
