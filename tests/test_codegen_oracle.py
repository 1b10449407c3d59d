"""Differential test of script assembly and both script encodings
against reference implementations.

The `_oracle_*` functions and `_OracleEvent` are these stages as they
were when each event was a frozen dataclass built through its
`__init__`, read by attribute, and every log line was formatted in
full; `_oracle_assemble_script` is the assembler of that time, which
emitted each item on its own and rejected items that overlap in time.
Both emitters follow `assemble_script`'s one timestamp grid and one
release rule: each window at its frame's `frame_offset_us`, and each
contact, an MFA finger too, released the frame after its last active
frame.
Wherever the reference compiles a scenario, `assemble_script` must give
its events as 4-tuples and both encodings byte for byte; where the
reference rejects an overlap, `assemble_script` must compile a script
that the type-B checker accepts. The scenarios are classified synthetic
traces and hand-built single- and multi-finger items; the encodings are
also checked on hand-built type-B scripts. The reference scripts are
`_OracleScript`s, because `SendEventScript` takes tuples of ints only.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracereplay.classify import (
    AtomicAction,
    ClassifiedScenario,
    MultiFingerItem,
    classify_action,
    classify_trace,
)
from tracereplay.codegen import (
    ABS_MT_POSITION_X,
    ABS_MT_POSITION_Y,
    ABS_MT_SLOT,
    ABS_MT_TRACKING_ID,
    BTN_TOUCH,
    EV_ABS,
    EV_KEY,
    EV_SYN,
    MAX_SLOTS,
    SYN_REPORT,
    TRACKING_RELEASE,
    SendEventScript,
    assemble_script,
    frame_offset_us,
    parse_runnable,
    parse_script,
    serialize_script,
    translate_runnable,
)
from tracereplay.errors import ScriptFormatError, SlotExhaustion
from tracereplay.model import HIGH, LOW, DeviceProfile, TouchDetection
from tracereplay.segment import TouchSequence
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

from conftest import distinct_detections
from type_b import check_type_b, peak_contacts

_LOG_LINE = re.compile(
    r"^\[(\d+)\.(\d{6})\] (\S+): ([0-9a-f]{4}) ([0-9a-f]{4}) ([0-9a-f]{8})$"
)
_RECORD = struct.Struct("<IHHi")
RUNNABLE_MAGIC = b"V2SR\x01\x00\x00\x00"


# --- reference stages, copied unchanged from the previous codegen.py ---


@dataclass(frozen=True)
class _OracleEvent:
    """One kernel input event, timestamped from script start."""

    timestamp_us: int
    event_type: int
    event_code: int
    value: int

    @property
    def timestamp_ms(self) -> float:
        return self.timestamp_us / 1000.0


class _OracleScript(NamedTuple):
    """A script of that time: its events are `_OracleEvent`s, which the
    constructor of `SendEventScript` does not take."""

    device_node: str
    events: tuple[_OracleEvent, ...]
    profile: DeviceProfile


def _oracle_emit_sfa(action, profile, t0_us, slot, tracking_id):
    fps = profile.fps
    x, y = _oracle_device_coords(action.touches[0].center, profile)
    events = [
        _OracleEvent(t0_us, EV_ABS, ABS_MT_SLOT, slot),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_TRACKING_ID, tracking_id),
        _OracleEvent(t0_us, EV_KEY, BTN_TOUCH, 1),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_POSITION_X, x),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_POSITION_Y, y),
        _OracleEvent(t0_us, EV_SYN, SYN_REPORT, 0),
    ]
    if action.kind == "gesture":
        for touch in action.high_touches[1:]:
            t = frame_offset_us(touch.frame, fps)
            x, y = _oracle_device_coords(touch.center, profile)
            events.extend(
                [
                    _OracleEvent(t, EV_ABS, ABS_MT_POSITION_X, x),
                    _OracleEvent(t, EV_ABS, ABS_MT_POSITION_Y, y),
                    _OracleEvent(t, EV_SYN, SYN_REPORT, 0),
                ]
            )
    t_end = frame_offset_us(action.last_high_frame + 1, fps)
    events.extend(
        [
            _OracleEvent(t_end, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
            _OracleEvent(t_end, EV_KEY, BTN_TOUCH, 0),
            _OracleEvent(t_end, EV_SYN, SYN_REPORT, 0),
        ]
    )
    return events


def _oracle_emit_mfa(actions, profile, first_tracking_id):
    fps = profile.fps
    fingers = sorted(
        actions,
        key=lambda a: (a.start_frame, a.touches[0].center),
    )
    group_start = min(a.start_frame for a in fingers)
    group_end = max(a.last_high_frame + 1 for a in fingers)
    touch_at = [
        {t.frame: t for t in a.high_touches} for a in fingers
    ]

    free_slots = list(range(MAX_SLOTS))
    slot_of: dict[int, int] = {}
    next_tid = first_tracking_id
    open_count = 0
    events: list[_OracleEvent] = []

    for frame in range(group_start, group_end + 1):
        t = frame_offset_us(frame, fps)
        window: list[_OracleEvent] = []
        closing: list[int] = []
        for idx, finger in enumerate(fingers):
            if finger.last_high_frame + 1 == frame:
                closing.append(idx)
            touch = touch_at[idx].get(frame)
            if touch is None:
                continue
            if idx not in slot_of:
                if not free_slots:
                    raise SlotExhaustion(
                        f"more than {MAX_SLOTS} simultaneous fingers"
                    )
                slot_of[idx] = free_slots.pop(0)
                window.append(_OracleEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
                window.append(_OracleEvent(t, EV_ABS, ABS_MT_TRACKING_ID, next_tid))
                next_tid += 1
                if open_count == 0:
                    window.append(_OracleEvent(t, EV_KEY, BTN_TOUCH, 1))
                open_count += 1
            else:
                window.append(_OracleEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
            x, y = _oracle_device_coords(touch.center, profile)
            window.append(_OracleEvent(t, EV_ABS, ABS_MT_POSITION_X, x))
            window.append(_OracleEvent(t, EV_ABS, ABS_MT_POSITION_Y, y))
        for idx in closing:
            window.append(_OracleEvent(t, EV_ABS, ABS_MT_SLOT, slot_of[idx]))
            window.append(
                _OracleEvent(t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE)
            )
            free_slots.append(slot_of.pop(idx))
            free_slots.sort()
            open_count -= 1
            if open_count == 0:
                window.append(_OracleEvent(t, EV_KEY, BTN_TOUCH, 0))
        if window:
            window.append(_OracleEvent(t, EV_SYN, SYN_REPORT, 0))
            events.extend(window)
    return events


class OverlapConflict(Exception):
    """The reference's error for items whose event windows overlap."""


def _oracle_assemble_script(scenario, device_node="/dev/input/event2"):
    profile = scenario.profile
    events = []
    next_tid = 1
    prev_end_frame = None
    prev_end_us = 0
    prev_desc = ""
    for item in scenario.items:
        t0_us = frame_offset_us(item.start_frame, profile.fps)
        if prev_end_frame is not None and item.start_frame < prev_end_frame:
            raise OverlapConflict(
                f"item at frame {item.start_frame} starts before {prev_desc} "
                f"releases at frame {prev_end_frame}"
            )
        if t0_us < prev_end_us:
            raise OverlapConflict(
                f"item at frame {item.start_frame} starts at {t0_us}us, before "
                f"{prev_desc} releases at {prev_end_us}us"
            )
        emitted = len(events)
        if isinstance(item, AtomicAction):
            events.extend(_oracle_emit_sfa(item, profile, t0_us, 0, next_tid))
            next_tid += 1
            prev_end_frame = item.last_high_frame + 1
            prev_desc = f"single-finger item at frame {item.start_frame}"
        else:
            events.extend(
                _oracle_emit_mfa(list(item.actions), profile, next_tid)
            )
            next_tid += len(item.actions)
            prev_end_frame = max(a.last_high_frame + 1 for a in item.actions)
            prev_desc = f"multi-finger item at frame {item.start_frame}"
        if len(events) > emitted:
            prev_end_us = events[-1].timestamp_us
    # The check of that time, now made by the constructor.
    SendEventScript(device_node=device_node, events=_tuples(events), profile=profile)
    return _OracleScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def _oracle_serialize_script(script: _OracleScript) -> bytes:
    """Write the human-readable log form; inverse of parse_script."""
    lines = [
        "# tracereplay-log 1",
        f"# device_node: {script.device_node}",
        f"# profile: {json.dumps(script.profile.to_dict(), sort_keys=True)}",
    ]
    for event in script.events:
        secs, micros = divmod(event.timestamp_us, 1_000_000)
        lines.append(
            f"[{secs}.{micros:06d}] {script.device_node}: "
            f"{event.event_type:04x} {event.event_code:04x} "
            f"{event.value & 0xFFFFFFFF:08x}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def _oracle_parse_script(data: bytes | str) -> _OracleScript:
    """Parse the log form back into a script."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    device_node = None
    profile = None
    events: list[_OracleEvent] = []
    for raw in data.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# device_node: "):
                device_node = line[len("# device_node: "):]
            elif line.startswith("# profile: "):
                profile = DeviceProfile.from_dict(
                    json.loads(line[len("# profile: "):])
                )
            continue
        match = _LOG_LINE.match(line)
        if match is None:
            raise ScriptFormatError(f"bad log line: {line!r}")
        secs, micros, node, etype, code, value = match.groups()
        if device_node is None:
            device_node = node
        elif node != device_node:
            raise ScriptFormatError(f"device node changed mid-log: {node!r}")
        raw_value = int(value, 16)
        if raw_value >= 1 << 31:
            raw_value -= 1 << 32
        events.append(
            _OracleEvent(
                timestamp_us=int(secs) * 1_000_000 + int(micros),
                event_type=int(etype, 16),
                event_code=int(code, 16),
                value=raw_value,
            )
        )
    if device_node is None or profile is None:
        raise ScriptFormatError("log missing device_node/profile headers")
    return _OracleScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def _oracle_translate_runnable(script: _OracleScript) -> bytes:
    """Write the compact delta-timestamped form for the replay agent."""
    chunks = [RUNNABLE_MAGIC]
    prev = 0
    for event in script.events:
        delta = event.timestamp_us - prev
        if delta < 0:
            raise ScriptFormatError(
                f"timestamps must be non-decreasing, got step {delta}us"
            )
        prev = event.timestamp_us
        chunks.append(
            _RECORD.pack(delta, event.event_type, event.event_code, event.value)
        )
    return b"".join(chunks)


def _oracle_parse_runnable(data: bytes) -> list[_OracleEvent]:
    """Parse runnable bytes back into events with absolute timestamps."""
    if len(data) < len(RUNNABLE_MAGIC) or not data.startswith(RUNNABLE_MAGIC):
        raise ScriptFormatError("bad runnable magic")
    body = data[len(RUNNABLE_MAGIC):]
    if len(body) % _RECORD.size != 0:
        raise ScriptFormatError(
            f"runnable body length {len(body)} not a record multiple"
        )
    events = []
    t = 0
    for offset in range(0, len(body), _RECORD.size):
        delta, etype, code, value = _RECORD.unpack_from(body, offset)
        t += delta
        events.append(
            _OracleEvent(timestamp_us=t, event_type=etype, event_code=code, value=value)
        )
    return events


def _oracle_device_coords(
    center: tuple[float, float], profile: DeviceProfile
) -> tuple[int, int]:
    """Round a center half-up to device pixels, clamped on-screen."""
    x = min(max(math.floor(center[0] + 0.5), 0), profile.screen_width - 1)
    y = min(max(math.floor(center[1] + 0.5), 0), profile.screen_height - 1)
    return x, y


# --- helpers ---


PROFILE = DeviceProfile(name="d", screen_width=1080, screen_height=1920, fps=30)
SIZE = 40.0


def _tuples(events):
    return [
        (e.timestamp_us, e.event_type, e.event_code, e.value) for e in events
    ]


def _oracle_script(script: SendEventScript) -> _OracleScript:
    """The same script with reference events."""
    return _OracleScript(
        device_node=script.device_node,
        events=tuple(_OracleEvent(*e) for e in script.events),
        profile=script.profile,
    )


def _check_scenario(scenario):
    """`assemble_script` gives the reference's events and bytes where
    the reference compiles, the reference's error where it fails for
    another reason, and a script the type-B checker accepts where it
    rejects an overlap; SlotExhaustion only past MAX_SLOTS contacts.
    Returns the script when both compile."""
    try:
        want = _oracle_assemble_script(scenario)
    except OverlapConflict:
        try:
            script = assemble_script(scenario)
        except SlotExhaustion:
            assert peak_contacts(scenario) > MAX_SLOTS
        else:
            check_type_b(translate_runnable(script), scenario)
        return None
    except (ScriptFormatError, SlotExhaustion) as exc:
        with pytest.raises(type(exc)):
            assemble_script(scenario)
        return None
    got = assemble_script(scenario)
    assert all(type(e) is tuple for e in got.events)
    assert list(got.events) == _tuples(want.events)
    assert serialize_script(got) == _oracle_serialize_script(want)
    assert translate_runnable(got) == _oracle_translate_runnable(want)
    return got


def _scenario(*items):
    return ClassifiedScenario(
        PROFILE, tuple(sorted(items, key=lambda item: item.start_frame))
    )


def _check_encodings(script: SendEventScript) -> None:
    """Both encoders and decoders agree with the reference."""
    reference = _oracle_script(script)
    log = serialize_script(script)
    runnable = translate_runnable(script)
    assert log == _oracle_serialize_script(reference)
    assert runnable == _oracle_translate_runnable(reference)
    decoded = parse_runnable(runnable)
    assert all(type(e) is tuple for e in decoded)
    assert decoded == _tuples(_oracle_parse_runnable(runnable)) == list(script.events)
    parsed = parse_script(log)
    want = _oracle_parse_script(log)
    assert (parsed.device_node, parsed.profile) == (want.device_node, want.profile)
    assert list(parsed.events) == _tuples(want.events)
    assert parsed == script


# --- generators ---


@st.composite
def actions(draw, start=None):
    """One finger's classified action: a tap, long tap or gesture
    (moving 0-25 px a frame), with an optional fade tail."""
    if start is None:
        start = draw(st.integers(0, 40))
    high = draw(st.integers(1, 40))
    fade = draw(st.integers(0, 3))
    x = draw(st.floats(0, 1080))
    y = draw(st.floats(0, 1920))
    dx, dy = (draw(st.floats(-25, 25)) for _ in "xy")
    touches = []
    for k in range(high + fade):
        step = min(k, high - 1)
        # The box stays on the screen, as a scenario's touches must.
        cx = min(max(x + dx * step, SIZE / 2), 1080.0 - SIZE / 2)
        cy = min(max(y + dy * step, SIZE / 2), 1920.0 - SIZE / 2)
        touches.append(
            TouchDetection(
                frame=start + k,
                bbox=(cx - SIZE / 2, cy - SIZE / 2, SIZE, SIZE),
                confidence=0.9,
                opacity=HIGH if k < high else LOW,
            )
        )
    return classify_action(TouchSequence(touches=tuple(touches)), PROFILE)


#: First frames up to about 55 minutes in at 30 fps: the first event's
#: timestamp, a step from 0, stays within u32 microseconds.
_STARTS = st.one_of(st.integers(0, 40), st.integers(0, 100_000))


@st.composite
def mfa_items(draw, first=None, most=12):
    """2 to `most` fingers starting within a few frames of each other,
    less each that shares a detection with an earlier one, but at least
    2 (the reference selects even a lone finger's slot before each sample
    and its release); more than MAX_SLOTS overlapping fingers exhaust the
    slots."""
    if first is None:
        first = draw(_STARTS)
    count = draw(st.integers(2, most))
    fingers = distinct_detections(draw(st.lists(
        st.integers(0, 8).flatmap(lambda k: actions(start=first + k)),
        min_size=count, max_size=count,
    )))
    assume(len(fingers) > 1)
    return MultiFingerItem(actions=tuple(fingers), finger_count=len(fingers))


@st.composite
def overlapping_items(draw):
    """1-6 single- and multi-finger items starting within 60 frames, so
    that many overlap in time."""
    first = draw(st.integers(0, 20))
    return distinct_detections([
        draw(st.one_of(
            actions(start=first + draw(st.integers(0, 60))),
            mfa_items(first=first + draw(st.integers(0, 60)), most=4),
        ))
        for _ in range(draw(st.integers(1, 6)))
    ])


# --- properties ---


@given(_STARTS.flatmap(lambda start: actions(start=start)))
@settings(max_examples=300, deadline=None)
def test_sfa_matches_oracle(action):
    assert _check_scenario(_scenario(action)) is not None


@given(mfa_items())
@settings(max_examples=300, deadline=None)
def test_mfa_matches_oracle(item):
    _check_scenario(_scenario(item))


@given(overlapping_items())
@settings(max_examples=300, deadline=None)
def test_hand_built_scenarios_match_oracle(items):
    _check_scenario(_scenario(*items))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["physical-device", "emulator"]))
@example(seed=59828, preset="emulator")  # 1 us before an MFA release on a per-item grid
@settings(max_examples=40, deadline=None)
def test_classified_traces_match_oracle(seed, preset):
    scenario = random_scenario(PROFILE, seed=seed, n_actions=12)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=seed))
    script = _check_scenario(classify_trace(trace))
    if script is not None:
        _check_encodings(script)


_NODE = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=12
)


@st.composite
def in_range_scripts(draw):
    """Type-B scripts the constructor accepts: windows that open, move
    or release contacts in any free or held slot, each slot at most once
    per window, at timestamps that repeat, cross whole seconds, pass
    2**31 us and step by a whole u32, with tracking ids up to 2**31 - 1
    and coordinates at the screen's edges."""
    t = draw(st.sampled_from([0, 999_999, 2**31 - 3, 2**32 - 1]))
    # Ids count down, one per open; 36 opens at most keep them >= 0.
    next_tid = draw(st.sampled_from([35, 1000, 2**31 - 1]))
    held = {}  # the slots whose contact is open, in the order they opened
    events = []
    for i in range(draw(st.integers(0, 12))):
        if i:
            t += draw(st.sampled_from([0, 1, 999_999, 1_000_000, 1_000_001, 2**32 - 1]))
        drawn = set()  # the slots this window has selected
        for _ in range(draw(st.integers(1, 3))):
            free = [slot for slot in range(MAX_SLOTS) if slot not in held]
            slot = draw(st.sampled_from(
                [slot for slot in free + list(held) if slot not in drawn]))
            drawn.add(slot)
            events.append((t, EV_ABS, ABS_MT_SLOT, slot))
            if slot in held and draw(st.booleans()):
                del held[slot]
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE))
                if not held:
                    events.append((t, EV_KEY, BTN_TOUCH, 0))
                continue
            if slot not in held:
                held[slot] = True
                events.append((t, EV_ABS, ABS_MT_TRACKING_ID, next_tid))
                next_tid -= 1
                if len(held) == 1:
                    events.append((t, EV_KEY, BTN_TOUCH, 1))
            events.append((t, EV_ABS, ABS_MT_POSITION_X, draw(
                st.one_of(st.sampled_from([0, 1079]), st.integers(0, 1079)))))
            events.append((t, EV_ABS, ABS_MT_POSITION_Y, draw(
                st.one_of(st.sampled_from([0, 1919]), st.integers(0, 1919)))))
        events.append((t, EV_SYN, SYN_REPORT, 0))
    if held:
        for slot in held:
            events.append((t, EV_ABS, ABS_MT_SLOT, slot))
            events.append((t, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE))
        events += [(t, EV_KEY, BTN_TOUCH, 0), (t, EV_SYN, SYN_REPORT, 0)]
    return SendEventScript(
        device_node=draw(_NODE), events=tuple(events), profile=PROFILE
    )


@given(in_range_scripts())
@settings(max_examples=300, deadline=None)
def test_in_range_events_round_trip_like_oracle(script):
    _check_encodings(script)


def test_largest_step_round_trips():
    """A first step of exactly u32 microseconds, then one of 1 us."""
    script = SendEventScript(
        device_node="/dev/x",
        events=(
            (2**32 - 1, EV_SYN, SYN_REPORT, 0),
            (2**32, EV_SYN, SYN_REPORT, 0),
        ),
        profile=PROFILE,
    )
    _check_encodings(script)
