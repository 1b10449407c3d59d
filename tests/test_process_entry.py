"""The process entry, `cli.run`, behind `python -m tracereplay` and the
`tracereplay` console script. It runs one command with the cyclic
collector off and exits without interpreter teardown, so each test here
starts a child and checks that a caller sees what an in-process `main`
gives: the same stdout, stderr, exit code and written files."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracereplay.cli import main
from tracereplay.model import serialize_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

ROOT = Path(__file__).resolve().parents[1]
#: Without PYTHONUNBUFFERED a child's piped stdout is block-buffered, so
#: output that `run` failed to flush before exiting would be lost.
ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(ROOT / "src"),
}
#: The two ways a shell starts the CLI; the console script that pip
#: writes calls `sys.exit(run())`.
ENTRIES = {
    "module": [sys.executable, "-m", "tracereplay"],
    "console-script": [sys.executable, "-c",
                       "import sys; from tracereplay.cli import run; sys.exit(run())"],
}
#: `main`'s return code through `sys.exit`: the ordinary exit, no `run`.
MAIN_ENTRY = [sys.executable, "-c",
              "import sys; from tracereplay.cli import main; sys.exit(main())"]
OUTPUTS = ("classified.json", "predicted.txt", "script.log", "script.bin")


def child(command, args, cwd, **kwargs):
    return subprocess.run(command + list(args), cwd=cwd, env=ENV, timeout=60,
                          capture_output="stdout" not in kwargs, **kwargs)


def in_process(args, capsys):
    """`main(args)`'s exit code, stdout and stderr, usage errors included."""
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trace_file(tmp_path, profile):
    scenario = random_scenario(profile, seed=3, n_actions=12)
    trace, _ = synthesize_trace(scenario, noise_preset("emulator", seed=3))
    path = tmp_path / "recording.json"
    path.write_bytes(serialize_trace(trace))
    return path


def test_console_script_is_the_process_entry():
    assert 'tracereplay = "tracereplay.cli:run"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("entry", ENTRIES)
def test_pipeline_child_prints_and_writes_what_main_does(tmp_path, trace_file, capsys,
                                                         monkeypatch, entry):
    args = ["pipeline", "--trace", str(trace_file), "--out-dir", "out", "--dry-run"]
    (tmp_path / "in-process").mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    code, out, err = in_process(args, capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 5
    assert out.splitlines()[-1].startswith("replay (dry-run): exit=0 ")

    (tmp_path / "child").mkdir()
    proc = child(ENTRIES[entry], args, cwd=tmp_path / "child")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == out
    for name in OUTPUTS:
        assert ((tmp_path / "child" / "out" / name).read_bytes()
                == (tmp_path / "in-process" / "out" / name).read_bytes()), name


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case, code, err_start", [
    ("slot-exhaustion", 2, "error (generate): more than 10 contacts down at frame 0"),
    ("missing-trace", 2, "error (pipeline): --trace absent.json: "),
    ("usage-error", 2, "usage: tracereplay pipeline "),
    ("failing-bridge", 1, "error (replay): false push "),
])
def test_failing_child_exits_as_main_does(tmp_path, trace_file, capsys, monkeypatch,
                                          overlapping_taps, entry, case, code, err_start):
    args = {
        "slot-exhaustion": ["generate", "--scenario-file", overlapping_taps.name,
                            "--out-dir", "out"],
        "missing-trace": ["pipeline", "--trace", "absent.json", "--out-dir", "out"],
        "usage-error": ["pipeline", "--out-dir", "out"],  # no --trace
        # `false` fails the push: the one device-side failure a child can reach.
        "failing-bridge": ["replay", "--script", "staged/script.bin", "--agent",
                           "staged/agent.stub", "--bridge", "false", "--out-dir", "out"],
    }[case]
    monkeypatch.chdir(tmp_path)
    # A dry run writes script.bin and stages agent.stub.
    assert main(["pipeline", "--trace", str(trace_file), "--out-dir", "staged",
                 "--dry-run"]) == 0
    expected = in_process(args, capsys)
    assert expected[0] == code
    assert expected[2].startswith(err_start)

    proc = child(ENTRIES[entry], args, cwd=tmp_path)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("stdout", ["broken-pipe", "closed"])
def test_unflushable_stdout_exits_the_ordinary_way(tmp_path, trace_file, stdout):
    """When stdout cannot be flushed, `run` leaves through `sys.exit`, so
    the child exits as `sys.exit(main())` does: 120 with Python's
    "Exception ignored" line for a broken pipe, 0 for a closed stdout."""
    args = ["pipeline", "--trace", str(trace_file), "--out-dir", "out", "--dry-run"]
    results = []
    for command in (ENTRIES["module"], MAIN_ENTRY):
        if stdout == "closed":
            proc = child(command, args, cwd=tmp_path, stdout=None,
                         stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = child(command, args, cwd=tmp_path, stdout=write,
                             stderr=subprocess.PIPE)
            finally:
                os.close(write)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == (120 if stdout == "broken-pipe" else 0)


def test_only_a_normal_return_skips_teardown(tmp_path):
    """An exit hook runs at interpreter teardown: `run` skips it after
    `main` returns, whatever the exit code, and a usage error, which
    argparse raises as SystemExit, still reaches it."""
    sequences = tmp_path / "seq.txt"
    sequences.write_text("a TG\n")
    entry = [sys.executable, "-c",
             "import atexit, sys; atexit.register(print, 'teardown', file=sys.stderr); "
             "from tracereplay.cli import run; sys.exit(run())"]
    for args, code, teardown in [
        (["evaluate", "--pred", str(sequences), "--truth", str(sequences)], 0, False),
        (["evaluate", "--pred", "absent.txt", "--truth", str(sequences)], 2, False),
        (["evaluate", "--pred", str(sequences)], 2, True),
    ]:
        proc = child(entry, args, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.endswith(b"teardown\n") == teardown, proc.stderr


def test_main_leaves_the_collector_on(tmp_path, trace_file, overlapping_taps):
    assert gc.isenabled()
    assert main(["pipeline", "--trace", str(trace_file), "--out-dir", str(tmp_path / "out"),
                 "--dry-run"]) == 0
    assert gc.isenabled()
    assert main(["generate", "--scenario-file", str(overlapping_taps),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert gc.isenabled()
