import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracereplay.cli import main
from tracereplay.config import load_config
from tracereplay.errors import ConfigError
from tracereplay.model import DeviceProfile
from tracereplay.synth import GroundTruthAction, GroundTruthScenario, random_scenario


@pytest.fixture
def fixture_scenario(tmp_path, profile):
    path = tuple((k, 300.0, 400.0) for k in range(8))
    swipe = tuple((20 + k, 100.0 + 30.0 * k, 900.0) for k in range(12))
    scenario = GroundTruthScenario(
        profile=profile,
        actions=(
            GroundTruthAction(kind="tap", paths=(path,)),
            GroundTruthAction(kind="gesture", paths=(swipe,)),
        ),
    )
    file = tmp_path / "fixture.json"
    file.write_bytes(scenario.to_json())
    return file


def test_synthesize_classify_evaluate_round_trip(tmp_path, fixture_scenario, capsys):
    out = tmp_path / "out"
    assert main([
        "synthesize", "--scenario", str(fixture_scenario),
        "--noise", "clean", "--out-dir", str(out),
    ]) == 0
    assert (out / "trace.json").is_file()
    assert (out / "truth.txt").is_file()

    assert main([
        "classify", "--trace", str(out / "trace.json"), "--out-dir", str(out),
    ]) == 0
    assert (out / "classified.json").is_file()

    # Scenario ids differ (file stems), so align them for evaluation.
    truth = (out / "truth.txt").read_text().split()[1]
    pred = (out / "predicted.txt").read_text().split()[1]
    (out / "truth.txt").write_text(f"scn {truth}\n")
    (out / "predicted.txt").write_text(f"scn {pred}\n")
    assert main([
        "evaluate", "--pred", str(out / "predicted.txt"),
        "--truth", str(out / "truth.txt"),
        "--json-out", str(out / "metrics.json"),
    ]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["mean_levenshtein"] == 0
    assert report["mean_lcs_ratio"] == 1.0


def test_classify_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--trace", str(bad)]) == 2


def test_classify_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["classify", "--trace", str(bad), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400],
                         ids=["nan", "inf", "huge-int"])
def test_pipeline_non_finite_bbox_exits_2(tmp_path, capsys, bad):
    detections = [
        {"frame": f, "bbox": [300.0, 400.0, 40.0, 40.0], "confidence": 0.9,
         "opacity": "high"}
        for f in range(6)
    ]
    detections[3]["bbox"][0] = bad
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "schema_version": 1,
        "device": {"name": "nexus5", "width": 1080, "height": 1920, "fps": 30},
        "frame_count": 10,
        "detections": detections,
    }))
    assert main(["pipeline", "--trace", str(trace), "--out-dir",
                 str(tmp_path / "out"), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (pipeline): ")
    assert "Traceback" not in err


def test_runtime_path_does_not_import_numpy(tmp_path, fixture_scenario):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import tracereplay\n"
        "package = sorted(set(sys.modules) - before)\n"
        "from tracereplay.cli import main\n"
        f"code = main(['pipeline', '--trace', {str(out / 'trace.json')!r},\n"
        f"             '--out-dir', {str(out)!r}, '--dry-run'])\n"
        "assert code == 0, code\n"
        "print(json.dumps([package, sorted(sys.modules)]))\n"
    )
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, pipeline = json.loads(proc.stdout.splitlines()[-1])
    assert package == ["tracereplay"]  # no submodule, no dependency
    # The interpreter's own start-up (site, .pth files) may load any of
    # these; only what tracereplay adds counts.
    added = set(pipeline) - set(bare.stdout.split())
    unused = {"dataclasses", "inspect", "subprocess", "tracereplay.synth", "numpy"}
    assert added & unused == set()


def test_missing_input_exits_2(tmp_path):
    assert main(["classify", "--trace", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("case", [
    "config-not-utf8", "pred-not-utf8", "truth-not-utf8", "trace-is-directory",
    "out-dir-is-file", "trace-not-utf8", "scenario-not-utf8",
    "scenario-file-is-directory", "script-is-directory",
])
def test_unreadable_input_exits_2(tmp_path, capsys, fixture_scenario, case):
    main(["synthesize", "--scenario", str(fixture_scenario),
          "--out-dir", str(tmp_path / "in")])
    capsys.readouterr()
    trace = str(tmp_path / "in" / "trace.json")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("scn T  # caf\u00e9\n".encode("latin-1"))
    sequences = tmp_path / "seq.txt"
    sequences.write_text("scn T\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    argv, bad = {
        "config-not-utf8": (["--config", str(latin1), "classify", "--trace", trace],
                            latin1),
        "pred-not-utf8": (["evaluate", "--pred", str(latin1),
                           "--truth", str(sequences)], latin1),
        "truth-not-utf8": (["evaluate", "--pred", str(sequences),
                            "--truth", str(latin1)], latin1),
        "trace-is-directory": (["classify", "--trace", str(tmp_path)], tmp_path),
        "out-dir-is-file": (["classify", "--trace", trace, "--out-dir", str(taken)],
                            taken),
        "trace-not-utf8": (["pipeline", "--trace", str(latin1)], latin1),
        "scenario-not-utf8": (["synthesize", "--scenario", str(latin1)], latin1),
        "scenario-file-is-directory": (["generate", "--scenario-file", str(tmp_path)],
                                       tmp_path),
        "script-is-directory": (["replay", "--script", str(tmp_path), "--dry-run"],
                                tmp_path),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    command = argv[2] if case == "config-not-utf8" else argv[0]
    assert err.startswith(f"error ({command}): ")
    assert "Traceback" not in err
    if case == "out-dir-is-file":
        assert str(bad) in err
    else:  # the flag that names the file, then its path
        flag = argv[argv.index(str(bad)) - 1]
        assert f"{flag} {bad}: " in err


@pytest.mark.parametrize("items", [
    5,
    [{"type": "mfa", "actions": [], "finger_count": 2}],
    [{"type": "sfa"}],
], ids=["int-items", "empty-mfa-actions", "sfa-without-action"])
def test_generate_bad_classified_structure_exits_2(tmp_path, capsys, profile, items):
    doc = tmp_path / "classified.json"
    doc.write_text(json.dumps(
        {"schema_version": 1, "device": profile.to_dict(), "items": items}
    ))
    assert main(["generate", "--scenario-file", str(doc),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (generate): ")
    assert "Traceback" not in err


def test_generate_from_classified(tmp_path, fixture_scenario):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    main(["classify", "--trace", str(out / "trace.json"), "--out-dir", str(out)])
    assert main([
        "generate", "--scenario-file", str(out / "classified.json"),
        "--out-dir", str(out),
    ]) == 0
    assert (out / "script.log").is_file()
    assert (out / "script.bin").is_file()


def test_pipeline_dry_run_writes_all_artifacts(tmp_path, fixture_scenario):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    assert main([
        "pipeline", "--trace", str(out / "trace.json"),
        "--out-dir", str(out), "--dry-run",
    ]) == 0
    for name in ("classified.json", "predicted.txt", "script.log", "script.bin"):
        assert (out / name).is_file(), name


def test_replay_dry_run(tmp_path, fixture_scenario):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    main(["pipeline", "--trace", str(out / "trace.json"), "--out-dir", str(out)])
    assert main([
        "replay", "--script", str(out / "script.bin"),
        "--out-dir", str(out), "--dry-run",
    ]) == 0


def test_replay_without_agent_exits_2(tmp_path, fixture_scenario):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    main(["pipeline", "--trace", str(out / "trace.json"), "--out-dir", str(out)])
    assert main(["replay", "--script", str(out / "script.bin")]) == 2


def test_extended_alphabet_flag(tmp_path, profile):
    scenario = random_scenario(profile, seed=41, n_actions=6,
                               weights=(0.2, 0.1, 0.2, 0.5))
    fixture = tmp_path / "two_finger.json"
    fixture.write_bytes(scenario.to_json())
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture), "--out-dir", str(out),
          "--extended"])
    truth = (out / "truth.txt").read_text()
    assert "G2" in truth


def test_duration_cutoff_flag(tmp_path):
    # At 60fps a 30-frame stationary press is a long tap by the frame
    # rule but a tap by the wall-clock rule (30 frames = 500ms < 667ms).
    profile60 = DeviceProfile(name="fast", screen_width=1080,
                              screen_height=1920, fps=60)
    press = tuple((k, 300.0, 400.0) for k in range(30))
    scenario = GroundTruthScenario(
        profile=profile60,
        actions=(GroundTruthAction(kind="long_tap", paths=(press,)),),
    )
    fixture = tmp_path / "press.json"
    fixture.write_bytes(scenario.to_json())
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture), "--out-dir", str(out)])

    main(["classify", "--trace", str(out / "trace.json"), "--out-dir", str(out)])
    assert (out / "predicted.txt").read_text().split()[1] == "L"
    main(["classify", "--trace", str(out / "trace.json"), "--out-dir", str(out),
          "--duration-cutoff"])
    assert (out / "predicted.txt").read_text().split()[1] == "T"


def test_deterministic_given_seed(tmp_path, fixture_scenario):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        main(["synthesize", "--scenario", str(fixture_scenario),
              "--noise", "emulator", "--seed", "7", "--out-dir", str(out)])
    assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()


class TestConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.remote_dir == "/data/local/tmp"
        assert config.device_node == "/dev/input/event2"
        assert config.min_confidence == 0.7

    def test_file_overrides(self, tmp_path):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"remote_dir": "/sdcard/tmp", "seed": 9}))
        config = load_config(str(file))
        assert config.remote_dir == "/sdcard/tmp"
        assert config.seed == 9

    def test_device_key_rejected(self, tmp_path, capsys, fixture_scenario):
        # Device presets are the generator's; a config file cannot pick one.
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"device": "nexus5"}))
        with pytest.raises(ConfigError, match="unknown config key 'device'"):
            load_config(str(file))
        assert main(["--config", str(file), "synthesize", "--scenario",
                     str(fixture_scenario), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error (synthesize): ")

    def test_unknown_key_rejected(self, tmp_path):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"devcie": "nexus5"}))
        with pytest.raises(ConfigError):
            load_config(str(file))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nope/config.json")

    def test_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TRACEREPLAY_BRIDGE", "/custom/adb")
        monkeypatch.setenv("TRACEREPLAY_OUT_DIR", str(tmp_path / "env-out"))
        config = load_config(None)
        assert config.bridge_path == "/custom/adb"
        assert config.out_dir == str(tmp_path / "env-out")

    @pytest.mark.parametrize("var", ["TRACEREPLAY_OUT_DIR", "TRACEREPLAY_BRIDGE"])
    def test_empty_env_value_rejected(self, monkeypatch, var):
        monkeypatch.setenv(var, "")
        with pytest.raises(ConfigError, match="must not be empty"):
            load_config(None)

    @pytest.mark.parametrize("command, flag", [
        ("pipeline", "--out-dir"),
        ("pipeline", "--bridge"),
        ("pipeline", "--serial"),
        ("pipeline", "--agent"),
        ("synthesize", "--noise"),
    ])
    def test_empty_flag_exits_2(self, tmp_path, monkeypatch, capsys,
                                fixture_scenario, command, flag):
        # An empty value used to be dropped: `--out-dir ""` wrote to out/.
        main(["synthesize", "--scenario", str(fixture_scenario),
              "--out-dir", str(tmp_path / "in")])
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        source = (["--trace", str(tmp_path / "in" / "trace.json"), "--dry-run"]
                  if command == "pipeline"
                  else ["--scenario", str(fixture_scenario)])
        assert main([command, *source, flag, ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error ({command}): ")
        assert "must not be empty" in err
        assert not (tmp_path / "out").exists()

    def test_flag_beats_config_file(self, tmp_path, profile, fixture_scenario):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"out_dir": str(tmp_path / "from-config")}))
        flag_out = tmp_path / "from-flag"
        assert main([
            "--config", str(file),
            "synthesize", "--scenario", str(fixture_scenario),
            "--out-dir", str(flag_out),
        ]) == 0
        assert (flag_out / "trace.json").is_file()
        assert not (tmp_path / "from-config").exists()

    @pytest.mark.parametrize("doc", [
        {"min_confidence": "0.7"},
        {"min_confidence": True},
        {"min_confidence": 1.5},
        {"min_confidence": -0.1},
        {"device_node": 5},
        {"seed": 1.0},
        {"seed": False},
        {"extended_alphabet": 1},
        {"device_serial": 7},
        {"device_node": ""},
        {"device_node": "/dev/a b"},
        {"device_node": "/dev/input/event2\n"},
        {"device_node": "/dev/\u00e9"},
        {"out_dir": ""},
        {"bridge_path": ""},
        {"agent_path": ""},
        {"device_serial": ""},
        {"noise_preset": ""},
        {"remote_dir": ""},
    ], ids=["str-confidence", "bool-confidence", "confidence-above-1",
            "negative-confidence", "int-device-node", "float-seed", "bool-seed",
            "int-bool-flag", "int-serial", "empty-device-node",
            "space-in-device-node", "newline-in-device-node",
            "non-ascii-device-node", "empty-out-dir", "empty-bridge",
            "empty-agent", "empty-serial", "empty-noise", "empty-remote-dir"])
    def test_mistyped_or_out_of_range_value_rejected(self, tmp_path, doc):
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=next(iter(doc))):
            load_config(str(file))

    def test_well_typed_values_accepted(self, tmp_path):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({
            "min_confidence": 1, "device_serial": None, "device_node": "/dev/x",
            "extended_alphabet": True, "seed": 3,
        }))
        config = load_config(str(file))
        assert (config.min_confidence, config.seed) == (1, 3)

    @pytest.mark.parametrize("doc", [{"min_confidence": "0.7"}, {"device_node": 5}],
                             ids=["str-confidence", "int-device-node"])
    def test_pipeline_with_mistyped_config_exits_2(self, tmp_path, capsys,
                                                   fixture_scenario, doc):
        out = tmp_path / "out"
        main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
        capsys.readouterr()
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["--config", str(file), "pipeline", "--trace",
                     str(out / "trace.json"), "--out-dir", str(out), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (pipeline): ")
        assert "Traceback" not in err
        assert not (out / "classified.json").exists()

    @pytest.mark.parametrize("command", ["pipeline", "generate"])
    @pytest.mark.parametrize("node", ["/dev/\u00e9", "/dev/a b", ""],
                             ids=["non-ascii", "space", "empty"])
    def test_bad_device_node_flag_exits_2(self, tmp_path, capsys,
                                          fixture_scenario, command, node):
        out = tmp_path / "out"
        main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
        main(["classify", "--trace", str(out / "trace.json"), "--out-dir", str(out)])
        capsys.readouterr()
        source = (["--trace", str(out / "trace.json")] if command == "pipeline"
                  else ["--scenario-file", str(out / "classified.json")])
        assert main([command, *source, "--out-dir", str(out),
                     "--device-node", node]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error ({command}): device_node")
        assert "Traceback" not in err
        assert not (out / "script.log").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.5"])
    def test_pipeline_rejects_min_confidence_flag_out_of_range(
        self, tmp_path, capsys, fixture_scenario, value
    ):
        out = tmp_path / "out"
        main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["pipeline", "--trace", str(out / "trace.json"),
                     "--out-dir", str(out), f"--min-confidence={value}"]) == 2
        assert "min_confidence" in capsys.readouterr().err
        assert not (out / "classified.json").exists()
