import pytest

from tracereplay.classify import ClassifiedScenario, SingleFingerItem, classify_action
from tracereplay.codegen import assemble_script, translate_runnable
from tracereplay.errors import (
    ConfigError,
    NonZeroExit,
    ScriptFormatError,
    TransportError,
)
from tracereplay.replay import (
    MockTransport,
    ReplayConfig,
    push_and_replay,
)

from conftest import make_sequence


@pytest.fixture
def runnable(profile):
    action = classify_action(make_sequence(0, 5, 100, 100), profile)
    scenario = ClassifiedScenario(profile=profile, items=(SingleFingerItem(action),))
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
        transport = MockTransport(fail_on_push=True)
        with pytest.raises(TransportError):
            push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))

    def test_nonzero_exit(self, runnable, agent):
        transport = MockTransport(exec_results=[(1, "segfault")])
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

    def test_script_bytes_pushed_verbatim(self, runnable, agent):
        transport = MockTransport()
        push_and_replay(runnable, transport, ReplayConfig(agent_path=agent))
        assert transport.pushed["/data/local/tmp/scenario.bin"] == runnable
