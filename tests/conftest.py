import json
import sys

import pytest

from tracereplay.model import HIGH, LOW, DeviceProfile, TouchDetection
from tracereplay.segment import TouchSequence

INDICATOR = 40.0

#: Well-formed JSON that the decoder still rejects: nesting far past the
#: recursion limit, and an integer past CPython's int-digit limit.
UNDECODABLE_JSON = {
    "deep": "[" * 100_000 + "]" * 100_000,
    "huge-int": '{"schema_version": ' + "9" * 5000 + "}",
}


@pytest.fixture
def profile():
    return DeviceProfile(name="nexus5", screen_width=1080, screen_height=1920, fps=30)


@pytest.fixture
def overlapping_taps(tmp_path, profile):
    """A classified scenario of eleven taps held at once: one contact
    more than the ten slots, so `generate` raises SlotExhaustion."""
    def tap(x):
        touches = [[f, x, 500.0, 40.0, 40.0, 0.9, "high"] for f in range(5)]
        return {"type": "sfa", "kind": "tap", "touches": touches}

    path = tmp_path / "classified.json"
    path.write_text(json.dumps({"schema_version": 2, "device": profile.to_dict(),
                                "items": [tap(50.0 + 90.0 * k) for k in range(11)]}))
    return path


def row(touch: dict) -> list:
    """The classified.json row of a trace detection object:
    `[frame, x, y, w, h, confidence, opacity]`."""
    return [touch["frame"], *touch["bbox"], touch["confidence"], touch["opacity"]]


def make_touch(frame, x, y, opacity=HIGH, confidence=0.9, size=INDICATOR):
    """Detection whose bbox center is exactly (x, y)."""
    return TouchDetection(
        frame=frame,
        bbox=(x - size / 2, y - size / 2, size, size),
        confidence=confidence,
        opacity=opacity,
    )


def distinct_detections(items):
    """`items` (actions or MFA items) less each one whose actions hold a
    detection twice, or one equal to a detection of an earlier kept
    item: no detection of a scenario belongs to two actions."""
    kept, seen = [], set()
    for item in items:
        touches = [t for action in getattr(item, "actions", (item,))
                   for t in action.touches]
        if len(set(touches)) == len(touches) and seen.isdisjoint(touches):
            kept.append(item)
            seen.update(touches)
    return kept


def make_sequence(start, high_frames, x, y, fade_frames=0, dx=0.0, dy=0.0):
    """Sequence at (x, y) drifting (dx, dy) per frame, plus a fade tail."""
    touches = []
    for k in range(high_frames):
        touches.append(make_touch(start + k, x + dx * k, y + dy * k))
    lx, ly = x + dx * (high_frames - 1), y + dy * (high_frames - 1)
    for k in range(fade_frames):
        touches.append(
            make_touch(start + high_frames + k, lx, ly, opacity=LOW)
        )
    return TouchSequence(touches=tuple(touches))


def fake_bridge(directory, push_code=0, shell_code=0):
    """An executable debug bridge in `directory` that appends its argv,
    as one JSON line, to the log file it returns with it. `push` exits
    `push_code` and `shell` exits `shell_code`, each writing a line to
    stdout and, when failing, one to stderr."""
    bridge, log = directory / "fake-bridge", directory / "bridge-argv.log"
    bridge.write_text(f"""#!{sys.executable}
import json, sys
argv = sys.argv[1:]
with open({str(log)!r}, "a") as log:
    log.write(json.dumps(argv) + "\\n")
op = argv[2] if argv[0] == "-s" else argv[0]
code = {{"push": {push_code}, "shell": {shell_code}}}[op]
print(op + " out")
if code:
    print(op + " said no", file=sys.stderr)
sys.exit(code)
""")
    bridge.chmod(0o755)
    return bridge, log
