"""Golden-bytes regression: every encoder's output is pinned by sha256.

The digests in `golden_digests.json` were re-recorded when the
generator moved to the standard library's `random.Random`, which
changed every seeded `trace.json`. The encoders did not change with
it: the classify and codegen of the commit before that move, run on
the new `trace.json` bytes, give the same `classified.json`,
`script.log` and `script.bin` digests and `mfa_items` counts as pinned
here. The `classified.json` digests, and only those, were re-recorded
again when that document moved to schema version 2 (one row per
touch). The `script.log` and `script.bin` digests, and only those (all
120), were re-recorded when codegen moved to one timestamp grid (every
window at its frame's `frame_offset_us`) and one release rule (every
contact, an MFA finger too, released the frame after its last active
frame). The `trace.json` digests, and only those, were re-recorded
when a trace came to hold and write its detections sorted by value
(frame, bbox, confidence, opacity), not in the generator's order within
a frame; no `classified.json`, `script.log` or `script.bin` digest and
no `mfa_items` count moved. Any change to a single output byte of `trace.json`,
`classified.json`, `script.log` or `script.bin` fails here. Cases are
fixed `random_scenario` seeds under each noise preset, on three device
profiles (one with a non-ASCII name and a 60 fps rate).

To print the digests of the current code (only after a deliberate
format change):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_trace,
)
from tracereplay.codegen import (
    assemble_script,
    parse_runnable,
    serialize_script,
    translate_runnable,
    validate_events,
)
from tracereplay.config import DEVICE_PRESETS
from tracereplay.errors import TraceReplayError
from tracereplay.model import DeviceProfile, parse_trace, serialize_trace
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from type_b import check_type_b, samples_by_id

GOLDEN = Path(__file__).with_name("golden_digests.json")

PRESETS = ("clean", "physical-device", "emulator")
SEEDS = range(1, 21)
PROFILES = (
    DEVICE_PRESETS["nexus5"],
    DEVICE_PRESETS["nexus6p"],
    DeviceProfile(name="Pixel «Ünïcødé» 手机", screen_width=1080,
                  screen_height=2400, fps=60, touch_slop=10),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_trace(seed: int, preset: str) -> bytes:
    """The trace.json of one case."""
    profile = PROFILES[seed % len(PROFILES)]
    scenario = random_scenario(profile, seed=seed)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=1000 + seed))
    return serialize_trace(trace)


def case_digests(seed: int, preset: str) -> dict:
    """Digests of every encoded output for one case; a compile that
    fails records its error type in place of the script digests."""
    trace_bytes = case_trace(seed, preset)
    classified = classify_trace(parse_trace(trace_bytes))
    result = {
        "trace.json": _sha(trace_bytes),
        "classified.json": _sha(classified.to_json()),
        "mfa_items": sum(isinstance(i, MultiFingerItem) for i in classified.items),
    }
    try:
        script = assemble_script(classified)
    except TraceReplayError as exc:
        result["assemble_error"] = type(exc).__name__
    else:
        result["script.log"] = _sha(serialize_script(script))
        result["script.bin"] = _sha(translate_runnable(script))
    return result


def all_digests() -> dict:
    return {
        f"{preset}/{seed}": case_digests(seed, preset)
        for preset in PRESETS
        for seed in SEEDS
    }


def test_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = all_digests()
    assert sorted(actual) == sorted(expected)
    mismatches = {
        case: {k: (expected[case].get(k), v) for k, v in digests.items()
               if expected[case].get(k) != v}
        for case, digests in actual.items()
        if digests != expected[case]
    }
    assert not mismatches


def test_items_are_actions_or_multi_finger_items():
    """A single-fingered item is its `AtomicAction`: the classifier and
    the classified.json loader build no other item type."""
    for preset in PRESETS:
        for seed in SEEDS:
            classified = classify_trace(parse_trace(case_trace(seed, preset)))
            loaded = ClassifiedScenario.from_json(classified.to_json())
            for item in classified.items + loaded.items:
                assert type(item) in (AtomicAction, MultiFingerItem), (preset, seed)


def test_script_check_decodes_what_the_decoder_decodes():
    """Each golden script.bin's contacts, as the script check returns
    them, hold the type-B decoder's samples and release times, in the
    order they open, and those are the scenario's (see `check_type_b`)."""
    expected = json.loads(GOLDEN.read_text())
    compiled = 0
    for preset in PRESETS:
        for seed in SEEDS:
            classified = classify_trace(parse_trace(case_trace(seed, preset)))
            try:
                runnable = translate_runnable(assemble_script(classified))
            except TraceReplayError:
                continue
            assert _sha(runnable) == expected[f"{preset}/{seed}"]["script.bin"]
            contacts = validate_events(parse_runnable(runnable))
            want = check_type_b(runnable, classified)
            assert list(samples_by_id(contacts).items()) == list(want.items())
            compiled += 1
    assert compiled >= 40


def test_golden_cases_cover_mfa_and_compiled_scripts():
    expected = json.loads(GOLDEN.read_text())
    assert sum(case["mfa_items"] > 0 for case in expected.values()) >= 20
    assert sum("script.bin" in case for case in expected.values()) >= 40


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
