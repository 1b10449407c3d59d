import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereplay.classify import classify_trace
from tracereplay.cli import _build_parser, main
from tracereplay.config import Config, load_config
from tracereplay.errors import ConfigError, SchemaViolation
from tracereplay.model import DeviceProfile, Rules, serialize_trace
from tracereplay.synth import (
    GroundTruthAction,
    GroundTruthScenario,
    noise_preset,
    random_scenario,
    synthesize_trace,
)

from conftest import UNDECODABLE_JSON, fake_bridge


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

    assert main([
        "evaluate", "--pred", str(out / "predicted.txt"),
        "--truth", str(out / "truth.txt"),
        "--json-out", str(out / "metrics.json"),
    ]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["mean_levenshtein"] == 0
    assert report["mean_lcs_ratio"] == 1.0


#: `evaluate`'s table for the files `test_evaluate_report_is_pinned` writes.
EVALUATE_TABLE = """\
scenario  lev   lcs_ratio  precision  recall
--------  ----  ---------  ---------  ------
ext       0     1.0000     1.0000     1.0000
sub       1     0.6667     0.6667     0.5000
ins       1     1.0000     0.7500     1.0000
MEAN      0.67  0.8889     0.8056     0.8333
"""

#: The bytes `evaluate --json-out` writes for the same files.
EVALUATE_JSON = b"""\
{
  "scenarios": {
    "ext": {
      "levenshtein": 0,
      "lcs_ratio": 1.0,
      "per_type": {
        "G2": {
          "tp": 1,
          "fp": 0,
          "fn": 0,
          "precision": 1.0,
          "recall": 1.0
        },
        "T": {
          "tp": 1,
          "fp": 0,
          "fn": 0,
          "precision": 1.0,
          "recall": 1.0
        }
      },
      "macro_precision": 1.0,
      "macro_recall": 1.0
    },
    "sub": {
      "levenshtein": 1,
      "lcs_ratio": 0.6666666666666666,
      "per_type": {
        "G": {
          "tp": 0,
          "fp": 1,
          "fn": 0,
          "precision": 0.0,
          "recall": 0.0
        },
        "L": {
          "tp": 1,
          "fp": 0,
          "fn": 0,
          "precision": 1.0,
          "recall": 1.0
        },
        "T": {
          "tp": 1,
          "fp": 0,
          "fn": 1,
          "precision": 1.0,
          "recall": 0.5
        }
      },
      "macro_precision": 0.6666666666666666,
      "macro_recall": 0.5
    },
    "ins": {
      "levenshtein": 1,
      "lcs_ratio": 1.0,
      "per_type": {
        "G": {
          "tp": 1,
          "fp": 0,
          "fn": 0,
          "precision": 1.0,
          "recall": 1.0
        },
        "T": {
          "tp": 1,
          "fp": 1,
          "fn": 0,
          "precision": 0.5,
          "recall": 1.0
        }
      },
      "macro_precision": 0.75,
      "macro_recall": 1.0
    }
  },
  "mean_levenshtein": 0.6666666666666666,
  "mean_lcs_ratio": 0.8888888888888888,
  "mean_macro_precision": 0.8055555555555555,
  "mean_macro_recall": 0.8333333333333334
}"""


def test_evaluate_report_is_pinned(tmp_path, capsys):
    # An extended G2, a substitution, an insertion, and a prediction
    # with no truth line, which the report leaves out.
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("ext TG2\nsub TGL\nins TTG\nextra G\n")
    truth.write_text("ext TG2\nsub TTL\nins TG\n")
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                 "--json-out", str(out)]) == 0
    assert capsys.readouterr().out == f"{EVALUATE_TABLE}wrote {out}\n"
    assert out.read_bytes() == EVALUATE_JSON


def test_empty_ground_truth_names_its_scenario(tmp_path, capsys, profile):
    fixture = tmp_path / "empty.json"
    fixture.write_bytes(GroundTruthScenario(profile=profile, actions=()).to_json())
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(fixture), "--out-dir", str(out)]) == 0
    assert (out / "truth.txt").read_text() == "trace -\n"
    assert main(["classify", "--trace", str(out / "trace.json"),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(out / "predicted.txt"),
                 "--truth", str(out / "truth.txt")]) == 2
    assert capsys.readouterr().err == (
        "error (evaluate): scenario 'trace' has an empty ground truth\n")


def test_classify_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--trace", str(bad)]) == 2


def test_classify_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["classify", "--trace", str(bad), "--out-dir", str(tmp_path)]) == 2


V1_TOUCH = {"frame": 0, "bbox": [10.0, 10.0, 40.0, 40.0], "confidence": 0.9,
            "opacity": "high"}


@pytest.mark.parametrize("document, version, message", [
    ("trace", True, "unsupported schema_version True, expected 1"),
    ("classified", 1, "unsupported schema_version 1, expected 2"),
], ids=["trace-version-true", "classified-v1"])
def test_unsupported_schema_version_exits_2(tmp_path, capsys, profile, document,
                                            version, message):
    # `True == 1`, but a bool is no version; a v1 classified.json is not read.
    path = tmp_path / f"{document}.json"
    device = profile.to_dict()
    path.write_text(json.dumps({"schema_version": version, "device": device, **(
        {"frame_count": 20, "detections": [dict(V1_TOUCH, frame=f) for f in range(8)]}
        if document == "trace" else
        {"items": [{"type": "sfa", "action": {"kind": "tap", "touches": [V1_TOUCH]}}]}
    )}))
    argv = (["pipeline", "--trace", str(path), "--dry-run"] if document == "trace"
            else ["generate", "--scenario-file", str(path)])
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    command = argv[0]
    assert capsys.readouterr().err == f"error ({command}): {message}\n"


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


@pytest.mark.parametrize("copied_frames", [range(8), range(3, 10)],
                         ids=["whole-press", "from-frame-3"])
def test_pipeline_detection_twice_in_a_frame_exits_2(tmp_path, capsys, copied_frames):
    # One box in frames 0-9, and an equal copy of it in `copied_frames`.
    def box(frame):
        return {"frame": frame, "bbox": [300.0, 400.0, 40.0, 40.0], "confidence": 0.9,
                "opacity": "high"}
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "schema_version": 1,
        "device": {"name": "nexus5", "width": 1080, "height": 1920, "fps": 30},
        "frame_count": 20,
        "detections": [box(f) for f in range(10)] + [box(f) for f in copied_frames],
    }))
    assert main(["pipeline", "--trace", str(trace), "--out-dir",
                 str(tmp_path / "out"), "--dry-run"]) == 2
    frame = copied_frames[0]
    assert capsys.readouterr().err == (
        f"error (pipeline): frame {frame} holds one detection twice\n")


@pytest.mark.parametrize("doc", UNDECODABLE_JSON, ids=UNDECODABLE_JSON)
@pytest.mark.parametrize("command", ["classify", "pipeline", "generate", "synthesize",
                                     "--config"])
def test_undecodable_json_exits_2(tmp_path, capsys, command, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(UNDECODABLE_JSON[doc])
    out = ["--out-dir", str(tmp_path / "out")]
    argv = {
        "classify": ["classify", "--trace", str(bad)] + out,
        "pipeline": ["pipeline", "--trace", str(bad), "--dry-run"] + out,
        "generate": ["generate", "--scenario-file", str(bad)] + out,
        "synthesize": ["synthesize", "--scenario", str(bad)] + out,
        "--config": ["--config", str(bad), "classify", "--trace", str(bad)] + out,
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if command == "--config":
        assert err.startswith("error (classify): config is not valid JSON: ")
    else:
        assert err.startswith(f"error ({command}): invalid JSON: ")
    assert err.count("\n") == 1  # one line: no traceback
    assert not (tmp_path / "out").exists()


def test_synthesize_list_kind_exits_2(tmp_path, capsys, profile):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"schema_version": 1, "device": profile.to_dict(),
                                   "actions": [{"kind": [], "paths": [[[0, 1, 2]]]}]}))
    assert main(["synthesize", "--scenario", str(fixture),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error (synthesize): unknown action kind []\n"


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
    unused = {"dataclasses", "inspect", "subprocess", "tracereplay.synth", "numpy",
              "tracereplay.metrics"}
    assert added & unused == set()


def test_synthesize_does_not_import_dataclasses(tmp_path, fixture_scenario):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = (
        "import json, sys\n"
        "from tracereplay.cli import main\n"
        f"code = main(['synthesize', '--scenario', {str(fixture_scenario)!r},\n"
        f"             '--noise', 'emulator', '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "numpy" not in loaded
    added = loaded - set(bare.stdout.split())
    assert added & {"dataclasses", "inspect", "ast", "dis"} == set()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_exits_2(tmp_path, capsys, fixture_scenario, how):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    argv = ["synthesize", "--scenario", str(fixture_scenario),
            "--out-dir", str(tmp_path / "out")]
    argv = (argv + ["--seed", "-1"] if how == "flag"
            else ["--config", str(config)] + argv)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error (synthesize): field 'seed' must be in [0, 2**1000), got -1\n"
    assert not (tmp_path / "out").exists()


def test_seed_in_a_config_file_lies_below_2_to_the_1000(tmp_path, capsys,
                                                       fixture_scenario):
    config = tmp_path / "config.json"
    argv = ["--config", str(config), "synthesize", "--scenario", str(fixture_scenario),
            "--out-dir", str(tmp_path / "out")]
    config.write_text(json.dumps({"seed": 2**1000 - 1}))
    assert main(argv) == 0
    capsys.readouterr()
    config.write_text(json.dumps({"seed": 2**1000}))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error (synthesize): field 'seed' must be in [0, 2**1000)\n")


def test_negative_seed_exits_2_in_a_fresh_interpreter(tmp_path, fixture_scenario):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "tracereplay", "synthesize", "--scenario",
         str(fixture_scenario), "--seed", "-1", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == (  # one line, no traceback
        "error (synthesize): field 'seed' must be in [0, 2**1000), got -1\n")


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


TAP = {"kind": "tap", "touches": [[0, 10.0, 10.0, 40.0, 40.0, 0.9, "high"]]}
OTHER_TAP = {"kind": "tap", "touches": [[0, 90.0, 10.0, 40.0, 40.0, 0.9, "high"]]}


_TWICE = "scenario actions must not share a detection"
_FADED = "every scenario action needs a high-opacity touch"


def _box(frame, x, y, opacity="high"):
    return [frame, x - 20.0, y - 20.0, 40.0, 40.0, 0.9, opacity]


#: Two gestures that share their frame-4 detection, at (320, 520).
SWIPE = {"kind": "gesture", "touches": [_box(f, 320.0, 400.0 + 30.0 * f) for f in range(5)]}
CROSSING = {"kind": "gesture", "touches": [
    SWIPE["touches"][4] if f == 4 else _box(f, 700.0, 100.0 * f) for f in range(2, 7)]}
#: A tap that is all fade.
FADE = {"kind": "tap", "touches": [_box(f, 500.0, 500.0, "low") for f in range(5)]}


@pytest.mark.parametrize("items, message", [
    (5, ""),
    ([{"type": "mfa", "actions": [], "finger_count": 2}], ""),
    ([{"type": "mfa", "actions": [TAP, OTHER_TAP], "finger_count": 9}], ""),
    ([{"type": "mfa", "actions": [TAP, TAP], "finger_count": 2}], _TWICE),
    ([{"type": "sfa", **TAP}, {"type": "sfa", **TAP}], _TWICE),
    ([{"type": "sfa"}], ""),
    ([{"type": "sfa", **SWIPE}, {"type": "sfa", **CROSSING}], _TWICE),
    ([{"type": "sfa", **FADE}], _FADED),
    ([{"type": "mfa", "actions": [SWIPE, FADE], "finger_count": 2}], _FADED),
], ids=["int-items", "empty-mfa-actions", "more-fingers-than-actions",
        "mfa-action-twice", "sfa-action-twice", "sfa-without-action",
        "shared-later-detection", "fade-only-sfa", "fade-only-mfa-finger"])
def test_generate_bad_classified_structure_exits_2(tmp_path, capsys, profile, items,
                                                   message):
    doc = tmp_path / "classified.json"
    doc.write_text(json.dumps(
        {"schema_version": 2, "device": profile.to_dict(), "items": items}
    ))
    assert main(["generate", "--scenario-file", str(doc),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (generate): ")
    assert message in err
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


def test_eleven_overlapping_taps_exit_2(tmp_path, capsys, overlapping_taps):
    assert main(["generate", "--scenario-file", str(overlapping_taps),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (generate): more than 10 contacts down at frame 0")


def test_eleven_finger_trace_is_an_input_error(tmp_path, capsys, profile):
    """`parse_trace` accepts eleven fingers held at once, and the
    classifier makes them one G item that no ten-slot script can hold:
    the trace cannot be compiled, which exits 2 like any other input."""
    detections = [{"frame": f, "bbox": [50.0 + 90.0 * k, 500.0, 40.0, 40.0],
                   "confidence": 0.9, "opacity": "high"}
                  for f in range(12) for k in range(11)]
    trace = tmp_path / "eleven.json"
    trace.write_text(json.dumps({"schema_version": 1, "device": profile.to_dict(),
                                 "frame_count": 20, "detections": detections}))
    out = tmp_path / "out"
    assert main(["pipeline", "--trace", str(trace), "--out-dir", str(out),
                 "--dry-run"]) == 2
    assert capsys.readouterr().err == (
        "error (pipeline): more than 10 contacts down at frame 0\n")
    assert (out / "predicted.txt").read_text() == "eleven G\n"


def _extreme_base():
    """A small trace, a tap, a swipe and a pinch, its classified.json and
    its frame count."""
    profile = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)
    tap = tuple((k, 300.0, 400.0) for k in range(8))
    swipe = tuple((20 + k, 100.0 + 30.0 * k, 900.0) for k in range(12))
    pinch = tuple(tuple((45 + k, 540.0 + s * (100.0 + 10.0 * k), 1200.0)
                        for k in range(12)) for s in (1, -1))
    scenario = GroundTruthScenario(profile, (
        GroundTruthAction("tap", (tap,)), GroundTruthAction("gesture", (swipe,)),
        GroundTruthAction("gesture", pinch),
    ))
    trace, _ = synthesize_trace(scenario)
    return serialize_trace(trace), classify_trace(trace).to_json(), trace.frame_count


EXTREME_TRACE, EXTREME_CLASSIFIED, EXTREME_FRAME_COUNT = _extreme_base()
#: The integer fields, each set to a value from EXTREME_INTS, and a bbox
#: whose entries may be set to +-HUGE, which can overflow its center.
EXTREME_FIELDS = ("frame", "frame_count", "width", "height", "fps", "touch_slop")
EXTREME_INTS = (2**1000 - 1, 2**1000, 10**400, 10**4000)
HUGE = 1.7e308


@st.composite
def extreme_changes(draw):
    field = draw(st.sampled_from(EXTREME_FIELDS + ("bbox",)))
    if field == "bbox":
        return field, draw(st.tuples(*[st.sampled_from([None, HUGE, -HUGE])] * 4))
    return field, draw(st.sampled_from(EXTREME_INTS))


def _with_change(text, change):
    """Trace or classified.json `text` with `change` applied. A `frame`
    moves the whole recording to end there, its detections still
    actions: a lone far detection is a blip that never reaches codegen.
    A `bbox` changes the first touch's entries that are not None."""
    doc = json.loads(text)
    # A trace detection object, or a classified.json row.
    frame, bbox = ("frame", "bbox") if "detections" in doc else (0, slice(1, 5))
    touches = doc.get("detections") or [
        touch for item in doc["items"]
        for action in item.get("actions", [item])
        for touch in action["touches"]
    ]
    field, value = change
    if field == "frame":
        for touch in touches:
            touch[frame] += value - EXTREME_FRAME_COUNT
        field = "frame_count"
    if field == "bbox":
        box = touches[0][bbox]
        touches[0][bbox] = [old if new is None else new for old, new in zip(box, value)]
    elif field in doc["device"]:
        doc["device"][field] = value
    elif field in doc:  # frame_count; classified.json has none
        doc[field] = value
    return json.dumps(doc)


def _assert_exits_0_or_2(argv):
    """`main(argv)` returns 0, or 2 after one `error (<command>): ` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error ({argv[0]}): ")


@settings(max_examples=40, deadline=None)
@given(extreme_changes())
@example(("frame", 10**400))  # the frame offset overflowed
@example(("touch_slop", 10**400))  # the linker's float(touch_slop) overflowed
@example(("fps", 10**400))  # the duration cutoff overflowed
@example(("bbox", (HUGE, None, HUGE, None)))  # an infinite center, checked path
@example(("bbox", (HUGE, -HUGE, HUGE, None)))  # an infinite center, fast path
def test_extreme_numbers_exit_0_or_2(change):
    """Every integer field at, below and far past the ceiling, and bbox
    entries whose center may overflow: `pipeline` and `generate` accept
    the input or exit 2, and never raise."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, classified = Path(tmp, "trace.json"), Path(tmp, "classified.json")
        trace.write_text(_with_change(EXTREME_TRACE, change))
        classified.write_text(_with_change(EXTREME_CLASSIFIED, change))
        out = ["--out-dir", str(Path(tmp, "out"))]
        pipeline = ["pipeline", "--trace", str(trace), "--dry-run", *out]
        for cutoff in ([], ["--duration-cutoff"]):
            _assert_exits_0_or_2(pipeline + cutoff)
        _assert_exits_0_or_2(["generate", "--scenario-file", str(classified), *out])


@pytest.mark.parametrize("push_code, shell_code, reason", [
    (1, 0, "{bridge} push "), (0, 1, "replay agent exited with code 1"),
], ids=["push-fails", "agent-exits-1"])
def test_replay_through_failing_bridge_exits_1(tmp_path, capsys, fixture_scenario,
                                               push_code, shell_code, reason):
    out = tmp_path / "out"
    main(["synthesize", "--scenario", str(fixture_scenario), "--out-dir", str(out)])
    main(["pipeline", "--trace", str(out / "trace.json"), "--out-dir", str(out),
          "--dry-run"])  # also stages out/agent.stub
    bridge, _ = fake_bridge(tmp_path, push_code, shell_code)
    capsys.readouterr()
    assert main(["replay", "--script", str(out / "script.bin"),
                 "--agent", str(out / "agent.stub"), "--bridge", str(bridge),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (replay): " + reason.format(bridge=bridge))


def test_extended_alphabet_flag(tmp_path, profile):
    # One two-finger spread: both fingers move apart along one line.
    spread = tuple(
        tuple((k, 540.0 + sign * (100.0 + 8.0 * k), 960.0) for k in range(12))
        for sign in (1.0, -1.0)
    )
    scenario = GroundTruthScenario(
        profile=profile, actions=(GroundTruthAction(kind="gesture", paths=spread),)
    )
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


@pytest.mark.parametrize("threshold, cutoff", [
    ("0.7", False), ("0.85", False), ("0", True), ("0.85", True),
])
def test_pipeline_rule_flags_classify_like_the_library(tmp_path, threshold, cutoff):
    # At 60 fps the duration cutoff (40 frames) differs from the frame cutoff.
    profile60 = DeviceProfile(name="fast", screen_width=1080,
                              screen_height=1920, fps=60)
    trace, _ = synthesize_trace(random_scenario(profile60, seed=1),
                                noise_preset("physical-device", seed=1))
    file = tmp_path / "trace.json"
    file.write_bytes(serialize_trace(trace))
    out = tmp_path / "out"
    assert main(["pipeline", "--trace", str(file), "--out-dir", str(out), "--dry-run",
                 "--min-confidence", threshold, *["--duration-cutoff"] * cutoff]) == 0
    want = classify_trace(trace, Rules(float(threshold), cutoff)).to_json()
    assert (out / "classified.json").read_bytes() == want
    assert (want == classify_trace(trace).to_json()) == (threshold == "0.7" and not cutoff)


@pytest.mark.parametrize("command", ["classify", "pipeline"])
@pytest.mark.parametrize("name", ["my trace.json", "#t.json", "tab\tname.json"],
                         ids=["space", "comment", "tab"])
def test_trace_name_no_sequence_file_can_hold_exits_2(tmp_path, capsys,
                                                      fixture_scenario, command, name):
    # The prediction is keyed by the trace file's stem: one the sequence
    # file reader would split or skip is an input error, and no file is written.
    main(["synthesize", "--scenario", str(fixture_scenario),
          "--out-dir", str(tmp_path / "in")])
    trace = tmp_path / name
    trace.write_bytes((tmp_path / "in" / "trace.json").read_bytes())
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--trace", str(trace), "--out-dir", str(out)]) == 2
    stem = Path(name).stem
    assert capsys.readouterr().err == (
        f"error ({command}): scenario id {stem!r} must be non-empty, "
        f"without whitespace or a leading '#'\n")
    assert not out.exists()


def test_deterministic_given_seed(tmp_path, fixture_scenario):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        main(["synthesize", "--scenario", str(fixture_scenario),
              "--noise", "emulator", "--seed", "7", "--out-dir", str(out)])
    assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()


@pytest.mark.parametrize("actions", [
    5,
    [{"kind": "tap", "paths": 5}],
    [{"kind": "tap", "paths": [[[0, 1]]]}],
    [{"kind": "tap", "paths": [[["a", 1, 2]]]}],
    [{"kind": "tap", "paths": [[[0, None, 2]]]}],
    [{"kind": "tap", "paths": [[[True, 1, 2]]]}],
    [{"kind": "tap", "paths": [[[0.0, 1, 2]]]}],
    [{"kind": "tap", "paths": [[[0, float("nan"), 2]]]}],
    [{"kind": "tap", "paths": [[[0, 10**400, 2]]]}],
], ids=["int-actions", "int-paths", "two-value-point", "string-frame", "null-x",
        "bool-frame", "float-frame", "nan-x", "huge-int-x"])
def test_synthesize_malformed_fixture_exits_2(tmp_path, capsys, profile, actions):
    data = json.dumps({"schema_version": 1, "device": profile.to_dict(),
                       "actions": actions})
    with pytest.raises(SchemaViolation):
        GroundTruthScenario.from_json(data)
    fixture = tmp_path / "fixture.json"
    fixture.write_text(data)
    assert main(["synthesize", "--scenario", str(fixture),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (synthesize): ")
    assert "Traceback" not in err


#: The option strings of each command, `-h`/`--help` aside: only the
#: flags its handler reads.
COMMAND_FLAGS = {
    "synthesize": {"--scenario", "--noise", "--seed", "--out-dir", "--extended"},
    "classify": {"--trace", "--out-dir", "--min-confidence", "--extended",
                 "--duration-cutoff"},
    "generate": {"--scenario-file", "--device-node", "--out-dir"},
    "replay": {"--script", "--agent", "--bridge", "--serial", "--dry-run",
               "--out-dir"},
    "evaluate": {"--pred", "--truth", "--json-out"},
    "pipeline": {"--trace", "--device-node", "--agent", "--bridge", "--serial",
                 "--replay", "--dry-run", "--out-dir", "--min-confidence",
                 "--extended", "--duration-cutoff"},
}

#: Flag dests that are a command's own inputs rather than settings.
COMMAND_INPUTS = {"trace", "scenario", "scenario_file", "script", "pred", "truth",
                  "json_out", "replay", "dry_run", "help"}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def test_each_command_has_the_flags_it_reads():
    commands = subparsers()
    assert set(commands) == set(COMMAND_FLAGS)
    for command, parser in commands.items():
        options = {option for action in parser._actions
                   for option in action.option_strings}
        assert options - {"-h", "--help"} == COMMAND_FLAGS[command], command


def test_every_setting_flag_stores_into_a_config_field():
    for command, parser in subparsers().items():
        for action in parser._actions:
            if action.dest not in COMMAND_INPUTS:
                assert action.dest in Config._fields, (command, action.option_strings)


@pytest.mark.parametrize("argv", [
    ["generate", "--scenario-file", "classified.json", "--extended"],
    ["evaluate", "--pred", "p.txt", "--truth", "t.txt", "--out-dir", "x"],
], ids=["generate-extended", "evaluate-out-dir"])
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.remote_dir == "/data/local/tmp"
        assert config.device_node == "/dev/input/event2"
        assert config.min_confidence == 0.7
        assert config.rules == Rules()

    def test_rules_are_built_from_the_merged_settings(self, tmp_path):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"min_confidence": 0.2, "duration_based_cutoff": True}))
        config = load_config(str(file), {"min_confidence": 0.9})
        assert config.rules == Rules(0.9, True)
        assert "rules" not in Config._fields and "rules" not in repr(config)

    def test_config_rejects_assignment(self):
        config = load_config(None)
        with pytest.raises(AttributeError):
            config.seed = 3
        assert config.seed == 0

    def test_help_states_the_config_defaults(self):
        flags = subparsers()["pipeline"]._option_string_actions
        assert flags["--min-confidence"].help.endswith(
            f"(default {Config.min_confidence})")
        assert flags["--out-dir"].help.endswith(f"(default: {Config.out_dir})")

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

    @pytest.mark.parametrize("key", ["devcie", "self"])
    def test_unknown_key_of_the_merged_settings_rejected(self, tmp_path, key):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({key: "nexus5"}))
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            load_config(str(file), {"out_dir": "x"})

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

    @pytest.mark.parametrize("doc, flag, value", [
        ({"out_dir": ""}, "--out-dir", "x"),
        ({"min_confidence": "0.7"}, "--min-confidence", "0.5"),
        ({"device_node": 5}, "--device-node", "/dev/input/event3"),
    ], ids=["empty-out-dir", "str-confidence", "int-device-node"])
    def test_flag_overrides_a_mistyped_file_value(self, tmp_path, monkeypatch,
                                                  fixture_scenario, doc, flag, value):
        # The merged settings are checked once: an overridden value is not.
        main(["synthesize", "--scenario", str(fixture_scenario),
              "--out-dir", str(tmp_path / "in")])
        monkeypatch.chdir(tmp_path)
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["--config", str(file), "pipeline", "--trace",
                     str(tmp_path / "in" / "trace.json"), "--dry-run",
                     "--out-dir", "x", flag, value]) == 0
        assert (tmp_path / "x" / "script.bin").is_file()

    @pytest.mark.parametrize("flag, value, message", [
        ("--out-dir", "", "out_dir must not be empty"),
        ("--min-confidence", "1.5", "min_confidence must be a finite number"),
        ("--device-node", "/dev/a b", "device_node must be non-empty ASCII"),
    ], ids=["empty-out-dir", "confidence-above-1", "space-in-device-node"])
    def test_bad_flag_over_a_mistyped_file_value_exits_2(
        self, tmp_path, monkeypatch, capsys, fixture_scenario, flag, value, message
    ):
        main(["synthesize", "--scenario", str(fixture_scenario),
              "--out-dir", str(tmp_path / "in")])
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"out_dir": "", "min_confidence": "0.7",
                                    "device_node": 5}))
        flags = {"--out-dir": "x", "--min-confidence": "0.5",
                 "--device-node": "/dev/input/event3", flag: value}
        assert main(["--config", str(file), "pipeline", "--trace",
                     str(tmp_path / "in" / "trace.json"), "--dry-run",
                     *(part for item in flags.items() for part in item)]) == 2
        assert capsys.readouterr().err.startswith(f"error (pipeline): {message}")
        assert not (tmp_path / "x").exists() and not (tmp_path / "out").exists()

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
