"""Differential test of event emission and both script encodings
against reference implementations.

The `_oracle_*` functions and `_OracleEvent` are these stages as they
were when each event was a frozen dataclass built through its
`__init__`, read by attribute, and every log line was formatted in
full. Emitted events must equal the reference's as 4-tuples, and both
encodings must match the reference's byte for byte, on classified
synthetic traces, hand-built single- and multi-finger items, and
arbitrary in-range event sequences.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereplay import codegen
from tracereplay.classify import (
    ActionKind,
    MultiFingerItem,
    SingleFingerItem,
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
    InputEvent,
    SendEventScript,
    assemble_script,
    frame_offset_us,
    parse_runnable,
    parse_script,
    serialize_script,
    translate_runnable,
)
from tracereplay.errors import OverlapConflict, ScriptFormatError, SlotExhaustion
from tracereplay.model import DeviceProfile, Opacity, TouchDetection
from tracereplay.segment import TouchSequence
from tracereplay.synth import noise_preset, random_scenario, synthesize_trace

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



def _oracle_emit_sfa(action, profile, t0_us, slot, tracking_id):
    fps = profile.fps
    start = action.start_frame
    x, y = _oracle_device_coords(action.sequence.touches[0].center, profile)
    events = [
        _OracleEvent(t0_us, EV_ABS, ABS_MT_SLOT, slot),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_TRACKING_ID, tracking_id),
        _OracleEvent(t0_us, EV_KEY, BTN_TOUCH, 1),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_POSITION_X, x),
        _OracleEvent(t0_us, EV_ABS, ABS_MT_POSITION_Y, y),
        _OracleEvent(t0_us, EV_SYN, SYN_REPORT, 0),
    ]
    if action.kind is ActionKind.GESTURE:
        for touch in action.sequence.high_touches[1:]:
            t = t0_us + frame_offset_us(touch.frame - start, fps)
            x, y = _oracle_device_coords(touch.center, profile)
            events.extend(
                [
                    _OracleEvent(t, EV_ABS, ABS_MT_POSITION_X, x),
                    _OracleEvent(t, EV_ABS, ABS_MT_POSITION_Y, y),
                    _OracleEvent(t, EV_SYN, SYN_REPORT, 0),
                ]
            )
    t_end = t0_us + frame_offset_us(action.active_frames, fps)
    events.extend(
        [
            _OracleEvent(t_end, EV_ABS, ABS_MT_TRACKING_ID, TRACKING_RELEASE),
            _OracleEvent(t_end, EV_KEY, BTN_TOUCH, 0),
            _OracleEvent(t_end, EV_SYN, SYN_REPORT, 0),
        ]
    )
    return events


def _oracle_emit_mfa(actions, profile, t0_us, first_tracking_id):
    fps = profile.fps
    fingers = sorted(
        actions,
        key=lambda a: (a.start_frame, a.sequence.touches[0].center),
    )
    group_start = min(a.start_frame for a in fingers)
    group_end = max(a.active_end_frame for a in fingers)
    touch_at = [
        {t.frame: t for t in a.sequence.high_touches} for a in fingers
    ]

    free_slots = list(range(MAX_SLOTS))
    slot_of: dict[int, int] = {}
    next_tid = first_tracking_id
    open_count = 0
    events: list[_OracleEvent] = []

    for frame in range(group_start, group_end + 1):
        t = t0_us + frame_offset_us(frame - group_start, fps)
        window: list[_OracleEvent] = []
        closing: list[int] = []
        for idx, finger in enumerate(fingers):
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
            if finger.active_end_frame == frame:
                closing.append(idx)
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

def _oracle_serialize_script(script: SendEventScript) -> bytes:
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


def _oracle_parse_script(data: bytes | str) -> SendEventScript:
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
    return SendEventScript(
        device_node=device_node, events=tuple(events), profile=profile
    )


def _oracle_translate_runnable(script: SendEventScript) -> bytes:
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


def _oracle_script(script: SendEventScript) -> SendEventScript:
    """The same script with reference events."""
    return SendEventScript(
        device_node=script.device_node,
        events=tuple(_OracleEvent(*e) for e in script.events),
        profile=script.profile,
    )


def _check_item(item, t0_us=0, tid=1):
    """An item's events equal the reference's, or both exhaust the slots."""
    if isinstance(item, SingleFingerItem):
        emit = (codegen._emit_sfa, item.action, PROFILE, t0_us, 0, tid)
        reference = (_oracle_emit_sfa, item.action, PROFILE, t0_us, 0, tid)
    else:
        emit = (codegen._emit_mfa, list(item.actions), PROFILE, t0_us, tid)
        reference = (_oracle_emit_mfa, list(item.actions), PROFILE, t0_us, tid)
    try:
        want = reference[0](*reference[1:])
    except SlotExhaustion:
        with pytest.raises(SlotExhaustion):
            emit[0](*emit[1:])
        return
    got = emit[0](*emit[1:])
    assert all(type(e) is InputEvent for e in got)
    assert got == _tuples(want)


def _check_encodings(script: SendEventScript) -> None:
    """Both encoders and decoders agree with the reference."""
    reference = _oracle_script(script)
    log = serialize_script(script)
    runnable = translate_runnable(script)
    assert log == _oracle_serialize_script(reference)
    assert runnable == _oracle_translate_runnable(reference)
    decoded = parse_runnable(runnable)
    assert all(type(e) is InputEvent for e in decoded)
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
        cx = min(max(x + dx * step, 0.0), 1080.0)
        cy = min(max(y + dy * step, 0.0), 1920.0)
        touches.append(
            TouchDetection(
                frame=start + k,
                bbox=(cx - SIZE / 2, cy - SIZE / 2, SIZE, SIZE),
                confidence=0.9,
                opacity=Opacity.HIGH if k < high else Opacity.LOW,
            )
        )
    return classify_action(TouchSequence(touches=tuple(touches)), PROFILE)


@st.composite
def mfa_items(draw):
    """2-12 fingers starting within a few frames of each other; more
    than MAX_SLOTS overlapping fingers exhaust the slots."""
    first = draw(st.integers(0, 20))
    fingers = [
        draw(actions(start=first + draw(st.integers(0, 8))))
        for _ in range(draw(st.integers(2, 12)))
    ]
    return MultiFingerItem(actions=tuple(fingers), finger_count=len(fingers))


# --- properties ---


@given(actions(), st.integers(0, 10**10), st.integers(0, MAX_SLOTS - 1),
       st.integers(1, 2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_sfa_matches_oracle(action, t0_us, slot, tid):
    got = codegen._emit_sfa(action, PROFILE, t0_us, slot, tid)
    want = _oracle_emit_sfa(action, PROFILE, t0_us, slot, tid)
    assert all(type(e) is InputEvent for e in got)
    assert got == _tuples(want)


@given(mfa_items(), st.integers(0, 10**10), st.integers(1, 1000))
@settings(max_examples=300, deadline=None)
def test_mfa_matches_oracle(item, t0_us, tid):
    _check_item(item, t0_us, tid)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["physical-device", "emulator"]))
@example(seed=59828, preset="emulator")  # an item starts 1 us before an MFA release
@settings(max_examples=40, deadline=None)
def test_classified_traces_match_oracle(seed, preset):
    scenario = random_scenario(PROFILE, seed=seed, n_actions=12)
    trace, _ = synthesize_trace(scenario, noise_preset(preset, seed=seed))
    classified = classify_trace(trace)
    for item in classified.items:
        _check_item(item, frame_offset_us(item.start_frame, PROFILE.fps), 1)
    try:
        script = assemble_script(classified)
    except (OverlapConflict, SlotExhaustion):
        return
    _check_encodings(script)


_NODE = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=12
)


@st.composite
def in_range_scripts(draw):
    """Arbitrary events that a runnable record can hold: runs of equal
    timestamps, steps that cross whole seconds, negative values and
    timestamps past 2**31 us."""
    t = draw(st.sampled_from([0, 999_999, 2**31 - 3, 2**32 - 1]))
    events = []
    for i in range(draw(st.integers(0, 40))):
        if i:
            t += draw(st.sampled_from([0, 0, 0, 1, 999_999, 1_000_000, 1_000_001]))
        events.append(InputEvent(
            t,
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(st.one_of(st.sampled_from([-(2**31), -1, 0, 2**31 - 1]),
                           st.integers(-(2**31), 2**31 - 1))),
        ))
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
            InputEvent(2**32 - 1, EV_SYN, SYN_REPORT, 0),
            InputEvent(2**32, EV_SYN, SYN_REPORT, 0),
        ),
        profile=PROFILE,
    )
    _check_encodings(script)
